"""Per-layer spans and counters, recorded from outside the program.

The tracer wraps the functions each layer of ``currentgpd`` exposes.  The
modules import each other with ``from .x import y``, so a wrapper on the
defining module alone would miss the copies; :meth:`Tracer.install` rebinds
every module attribute that holds the original, patches the class methods,
and wraps the per-instance sampler hooks as the groupoid constructors set
them.  :meth:`Tracer.uninstall` restores every binding.

A span records calls, total time (outermost calls of that name only, so a
recursive span is not counted twice) and self time (its time minus the time
of spans opened inside it).  Spans and counters live in memory and are read
with :meth:`Tracer.metrics` when the run ends.  The tracer assumes one
thread: the benchmark installs it only around sequential passes.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

import numpy as np

# Spans whose calls, total and self time are reported, layer by layer.
SPANS = (
    "currents.check_axioms", "currents.current_etale_nodes", "currents.iso",
    "currents.certificates",
    "catalog.sample_path", "catalog.sample",
    "groupoids.sample_arrow_path", "groupoids.structure_maps",
    "groupoids.check_axioms",
    "manifolds.best_chart", "manifolds.map_jacobian",
    "ad.jvp", "ad.jacobian",
    "linalg.linsolve",
    "algebroids.groupoid_power", "algebroids.bracket_eval",
    "algebroids.current_bracket_two_ways",
    "gridmaps.classify_pushforward", "gridmaps.pushforward",
    "gridmaps.local_diffeo_inverse",
    "localadd.sigma", "localadd.theta_inverse",
    "orbifolds.path_lift", "orbifolds.local_action_form", "orbifolds.atlas",
)

# Work counts.  They depend only on the inputs, so two traced runs with the
# same seed give the same values.
COUNTS = (
    "currents.check_axioms.samples", "catalog.sample_path.nodes",
    "groupoids.structure_maps.rows", "manifolds.best_chart.points",
    "manifolds.best_chart.charts_scored", "manifolds.product_charts_built",
    "ad.dual_objects",
)

# Suites of ``currentgpd run``, each timed alone through ``run_suite``.
SUITE_IDS = (
    "algebroid-laws", "atlas-negative", "current-groupoid-axioms",
    "embedding", "flip-identities", "groupoid-axioms", "local-action-form",
    "local-addition", "local-inverse", "not-proper-certificate",
    "not-tra-certificate", "pair-action-iso", "path-lifting",
    "proper-etale-lifting", "pushforward-classifiers", "tangent-diagram",
    "theorem-D-pointwise-bracket",
)

# The groupoid hooks that draw grid paths of arrows.
ARROW_PATH_HOOKS = ("sample_arrow_path", "sample_arrow_path_with_beta")
STRUCTURE_MAPS = ("alpha_batch", "beta_batch", "mu_batch", "iota_batch",
                  "unit_batch")

LAYERS = ("cli", "suites", "currents", "catalog", "groupoids", "manifolds",
          "ad", "linalg", "algebroids", "gridmaps", "localadd", "orbifolds")

_MISSING = object()


def _rows(arr):
    """Number of stacked points in an (..., ambient) array."""
    shape = np.shape(arr)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


@functools.lru_cache(maxsize=None)
def _signature(fn):
    return inspect.signature(fn)


def _argument(fn, args, kwargs, name):
    bound = _signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


class Tracer:
    def __init__(self):
        self.recording = False
        self._undo = []
        self.reset()

    # -- recording ----------------------------------------------------------
    def reset(self):
        self.spans = {}        # name -> [calls, total_s, self_s]
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack = []       # open spans: [name, start, child_s]
        self._depth = {}

    def add(self, counter, n):
        self.counts[counter] += n

    def inside(self, name):
        return bool(self._stack) and self._stack[-1][0] == name

    def wrap(self, name, fn, count=None):
        """``fn`` inside a span; ``count(args, kwargs)`` feeds counters."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            if count is not None:
                count(args, kwargs)
            stack, depth = tracer._stack, tracer._depth
            depth[name] = depth.get(name, 0) + 1
            frame = [name, perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter() - frame[1]
                stack.pop()
                depth[name] -= 1
                st = tracer.spans.setdefault(name, [0, 0.0, 0.0])
                st[0] += 1
                st[2] += took - frame[2]
                if depth[name] == 0:
                    st[1] += took
                if stack:
                    stack[-1][2] += took

        traced.traced_span = name
        return traced

    # -- patching -------------------------------------------------------------
    def _set(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, new)

    def _function(self, module, attr, name, count=None):
        """Wrap a module function and rebind every copy of it in the package."""
        original = getattr(module, attr)
        wrapped = self.wrap(name, original, count)
        for modname, mod in list(sys.modules.items()):
            if modname == "currentgpd" or modname.startswith("currentgpd."):
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._set(mod, key, wrapped)

    def _method(self, cls, attr, name, count=None):
        self._set(cls, attr, self.wrap(name, cls.__dict__[attr], count))

    def _methods_everywhere(self, base, attr, name, count=None):
        """Wrap ``attr`` on ``base`` and on each subclass that redefines it."""
        todo, seen = [base], set()
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            todo.extend(cls.__subclasses__())
            if attr in cls.__dict__:
                self._method(cls, attr, name, count)

    def install(self, layers=LAYERS):
        """Patch the named layers and start recording."""
        from currentgpd import (ad, algebroids, cli, currents, gridmaps,
                                groupoids, linalg, localadd, manifolds,
                                orbifolds, suites)
        layers = set(layers)
        if "cli" in layers:
            self._function(cli, "execute", "cli.execute")
            self._function(cli, "write_report", "cli.write_report")
        if "suites" in layers:
            run_suite = suites.run_suite

            def run_one(suite_id, *args, **kwargs):
                return self.wrap(f"suites.{suite_id}", run_suite)(
                    suite_id, *args, **kwargs)

            for mod in (suites, cli):
                self._set(mod, "run_suite", run_one)
        if "currents" in layers:
            cur_fn = currents.CurrentGroupoid.check_axioms
            self._method(currents.CurrentGroupoid, "check_axioms",
                         "currents.check_axioms",
                         lambda a, k: self.add(
                             "currents.check_axioms.samples",
                             _argument(cur_fn, a, k, "n_samples")))
            self._function(currents, "current_etale_nodes",
                           "currents.current_etale_nodes")
            for attr in ("pair_iso", "action_iso"):
                self._function(currents, attr, "currents.iso")
            for attr in ("transitivity_obstruction",
                         "properness_failure_witness",
                         "proper_etale_fiber_bound"):
                self._function(currents, attr, "currents.certificates")
        if "catalog" in layers:
            self._methods_everywhere(
                manifolds.ChartedManifold, "sample_path", "catalog.sample_path",
                lambda a, k: self.add("catalog.sample_path.nodes", len(a[1])))
            self._methods_everywhere(manifolds.ChartedManifold, "sample",
                                     "catalog.sample")
        if "groupoids" in layers:
            for attr in STRUCTURE_MAPS:
                self._method(groupoids.LieGroupoid, attr,
                             "groupoids.structure_maps",
                             lambda a, k: self.add(
                                 "groupoids.structure_maps.rows", _rows(a[1])))
            self._function(groupoids, "check_axioms", "groupoids.check_axioms")

            def set_hook(obj, key, val, _set=object.__setattr__):
                if (key in ARROW_PATH_HOOKS and callable(val)
                        and not hasattr(val, "traced_span")):
                    val = self.wrap("groupoids.sample_arrow_path", val)
                _set(obj, key, val)

            self._set(groupoids.LieGroupoid, "__setattr__", set_hook)
        if "manifolds" in layers:
            def chart_count(args, kwargs):
                self.add("manifolds.best_chart.points", _rows(args[1]))

            self._methods_everywhere(manifolds.ChartedManifold, "best_chart",
                                     "manifolds.best_chart", chart_count)
            # charts_scored counts chart margins evaluated while best_chart
            # runs (a product chart's margin evaluates its factors' margins
            # too).  Only charts built after install() are counted.
            chart_init = manifolds.Chart.__init__

            def init_chart(chart, *args, **kwargs):
                chart_init(chart, *args, **kwargs)
                margin = chart.margin

                def scored(*a, **k):
                    if self.recording and self.inside("manifolds.best_chart"):
                        self.add("manifolds.best_chart.charts_scored", 1)
                    return margin(*a, **k)

                chart.margin = scored

            self._set(manifolds.Chart, "__init__", init_chart)
            product_chart = manifolds.ProductManifold._product_chart

            def built(*args, **kwargs):
                if self.recording:
                    self.add("manifolds.product_charts_built", 1)
                return product_chart(*args, **kwargs)

            self._set(manifolds.ProductManifold, "_product_chart", built)
            self._function(manifolds, "map_jacobian", "manifolds.map_jacobian")
        if "ad" in layers:
            self._function(ad, "jvp", "ad.jvp")
            self._function(ad, "jacobian", "ad.jacobian")
            dual_init = ad.Dual.__init__

            def init_dual(*args, **kwargs):
                self.counts["ad.dual_objects"] += 1
                dual_init(*args, **kwargs)

            self._set(ad.Dual, "__init__", init_dual)
        if "linalg" in layers:
            self._function(linalg, "linsolve", "linalg.linsolve")
        if "algebroids" in layers:
            self._function(algebroids, "groupoid_power",
                           "algebroids.groupoid_power")
            self._function(algebroids, "current_bracket_two_ways",
                           "algebroids.current_bracket_two_ways")
            bracket = algebroids.LieAlgebroid.bracket

            def traced_bracket(*args, **kwargs):
                section = bracket(*args, **kwargs)
                section.vector_fn = self.wrap("algebroids.bracket_eval",
                                              section.vector_fn)
                return section

            self._set(algebroids.LieAlgebroid, "bracket", traced_bracket)
        if "gridmaps" in layers:
            for attr in ("classify_pushforward", "pushforward",
                         "local_diffeo_inverse"):
                self._function(gridmaps, attr, f"gridmaps.{attr}")
        if "localadd" in layers:
            self._method(localadd.LocalAddition, "sigma", "localadd.sigma")
            self._method(localadd.LocalAddition, "theta_inverse",
                         "localadd.theta_inverse")
        if "orbifolds" in layers:
            self._function(orbifolds, "path_lift", "orbifolds.path_lift")
            self._function(orbifolds, "local_action_form",
                           "orbifolds.local_action_form")
            self._function(orbifolds, "atlas_connectivity_negative_test",
                           "orbifolds.atlas")
        self.recording = True

    def uninstall(self):
        """Stop recording and restore every patched binding."""
        self.recording = False
        while self._undo:
            owner, attr, old = self._undo.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    # -- results ----------------------------------------------------------------
    def span(self, name):
        calls, total, self_s = self.spans.get(name, (0, 0.0, 0.0))
        return {"calls": calls, "s": total, "self_s": self_s}

    def metrics(self):
        """The per-layer metrics of :data:`SPANS` and :data:`COUNTS`."""
        out = {}
        for name in SPANS:
            st = self.span(name)
            out[f"{name}.calls"] = (st["calls"], "count")
            out[f"{name}.s"] = (st["s"], "s")
            out[f"{name}.self_s"] = (st["self_s"], "s")
        for name in COUNTS:
            out[name] = (self.counts[name], "count")
        return out
