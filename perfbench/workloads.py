"""The benchmark's workloads: seeded inputs, the timed body and its gate.

Each workload is a class with

* ``setup(seed, workdir)``: everything from the imports on up to inputs
  ready (groupoids, grids, seeded sections and paths, a parsed config);
* ``run(inputs)``: the timed verification work, returning its outcome;
* ``gate(outcome, tol)``: ``(attempted, failed)`` check counts, where an
  exception, a wrong verdict or a residual over its tolerance fails a check;
* ``fingerprint(outcome)``: the verdicts and residuals, as JSON-safe data,
  so that a traced run can be compared with an untraced one;
* ``describe(inputs)``: the resolved inputs, for the result's header.

The program sees only the generated inputs; the seed stays here.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from currentgpd import (algebroids, catalog, cli, currents, gridmaps,
                        groupoids, suites)
from currentgpd.tolerances import DEFAULT

CATALOG = sorted(groupoids.GROUPOIDS)
OK_STATUSES = ("pass", "obstructed-as-expected")


def sub_seed(seed, *parts):
    """A stable per-input seed; ``hash()`` is salted, so it is not used."""
    text = ":".join(str(p) for p in (seed,) + parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") >> 1


def _checked(outcome, key, fn, *args, **kwargs):
    """Run one check; an exception is recorded as its failure, not raised."""
    try:
        outcome[key] = fn(*args, **kwargs)
    except Exception as e:  # noqa: BLE001 - a failed check, counted by gate()
        outcome[key] = {"error": f"{type(e).__name__}: {e}"}


def _failed(result):
    return isinstance(result, dict) and "error" in result


class VerifyAll:
    """``currentgpd run`` on ``{"seed": S}``: all suites and catalog groupoids."""

    name = "verify-all"
    n_records = 59

    def setup(self, seed, workdir):
        os.makedirs(workdir, exist_ok=True)
        path = os.path.join(workdir, f"verify-all-{seed}.json")
        with open(path, "w") as fh:
            json.dump({"seed": seed}, fh)
        return {"config": cli.load_config(path),
                "report_path": os.path.join(workdir, "verify-all-report.json")}

    def run(self, inputs):
        try:
            report = cli.execute(inputs["config"])
            cli.write_report(report, inputs["report_path"])
        except Exception as e:  # noqa: BLE001 - counted by gate()
            return {"error": f"{type(e).__name__}: {e}"}
        return report

    def run_sequential(self, inputs):
        """The same suites one at a time through ``run_suite``, no pool."""
        config = inputs["config"]
        ctx = suites.SuiteContext(
            seed=config["seed"],
            grid=gridmaps.GridSpec(config["grid"]["kind"], config["grid"]["n"],
                                   config["grid"]["ell"]),
            tol=DEFAULT.with_overrides(**config["tolerances"]),
            instances=config["instances"], samples=config["samples"])
        records, errors = [], {}
        for sid in config["suites"]:
            try:
                records.extend(suites.run_suite(sid, ctx))
            except Exception as e:  # noqa: BLE001 - its records count as missing
                errors[sid] = f"{type(e).__name__}: {e}"
        records.sort(key=lambda r: r.check_name)
        ok = not errors and all(r.status in OK_STATUSES for r in records)
        return {"status": "pass" if ok else "fail", "errors": errors,
                "records": [r.to_dict() for r in records]}

    def gate(self, outcome, tol):
        if _failed(outcome):
            return self.n_records, self.n_records
        records = outcome["records"]
        bad = sum(r["status"] not in OK_STATUSES for r in records)
        missing = max(self.n_records - len(records), 0)
        failed = bad + missing
        if outcome["status"] != "pass" and failed == 0:
            failed = 1
        return max(self.n_records, len(records)), failed

    def fingerprint(self, outcome):
        if _failed(outcome):
            return outcome
        return {"errors": outcome.get("errors", {}),
                "records": [{k: v for k, v in r.items() if k != "wall_time_ms"}
                            for r in outcome["records"]]}

    def describe(self, inputs):
        config = inputs["config"]
        return {"entry": "currentgpd.cli.execute + write_report",
                "seed": config["seed"], "grid": config["grid"],
                "suites": len(config["suites"]),
                "groupoids": config["instances"],
                "expected_records": self.n_records}


class BracketGrid:
    """Two-way current brackets plus the per-node Jacobian classifiers."""

    name = "bracket-grid"
    brackets = (("rot-action", 12), ("pair-real2", 24))
    classifier_nodes = 256
    classifiers = {
        "plane-projection": "submersion_on_trace",
        "line-inclusion": "immersion_on_trace",
        "exp-cover": "local_diffeo_on_trace",
        "circle-constant": "neither",
    }
    etale_groupoid = "z4-plane"
    etale_arrows = 4

    def setup(self, seed, workdir):
        brackets = []
        for name, n in self.brackets:
            rng = np.random.default_rng(sub_seed(seed, self.name, name))
            gpd = groupoids.make_groupoid(name)
            alg = algebroids.algebroid_of_groupoid(gpd)
            grid = gridmaps.GridSpec("circle", n)
            base = gridmaps.random_grid_map(grid, gpd.base, rng)
            brackets.append({"name": name, "gpd": gpd, "grid": grid,
                             "base": base,
                             "X": alg.random_polynomial_section(rng, "X"),
                             "Y": alg.random_polynomial_section(rng, "Y")})
        maps = catalog.catalog_maps()
        rng = np.random.default_rng(sub_seed(seed, self.name, "classifiers"))
        grid = gridmaps.GridSpec("circle", self.classifier_nodes)
        loops = {name: (maps[name], gridmaps.random_grid_map(
                    grid, maps[name].source, rng))
                 for name in self.classifiers}
        return {"brackets": brackets, "loops": loops,
                "etale_gpd": groupoids.make_groupoid(self.etale_groupoid),
                "etale_grid": gridmaps.GridSpec("circle", self.classifier_nodes),
                "etale_seed": sub_seed(seed, self.name, "etale")}

    def run(self, inputs):
        out = {}
        for b in inputs["brackets"]:
            _checked(out, f"bracket/{b['name']}",
                     algebroids.current_bracket_two_ways,
                     b["gpd"], b["grid"], b["X"], b["Y"], b["base"])
        for name, (f, gamma) in inputs["loops"].items():
            _checked(out, f"classify/{name}", lambda f=f, g=gamma:
                     gridmaps.classify_pushforward(f, g).verdict)
        _checked(out, "etale/" + self.etale_groupoid,
                 currents.current_etale_nodes, inputs["etale_gpd"],
                 inputs["etale_grid"], n_arrows=self.etale_arrows,
                 seed=inputs["etale_seed"])
        return out

    def gate(self, outcome, tol):
        failed = 0
        for key, got in outcome.items():
            if _failed(got):
                ok = False
            elif key.startswith("bracket/"):
                ok = got <= tol.tol_bracket
            elif key.startswith("classify/"):
                ok = got == self.classifiers[key.split("/", 1)[1]]
            else:
                ok = bool(got[0])
            failed += not ok
        expected = len(self.brackets) + len(self.classifiers) + 1
        return max(expected, len(outcome)), failed + max(expected - len(outcome), 0)

    def fingerprint(self, outcome):
        return {k: (v if _failed(v) else
                    [bool(v[0]), float(v[1])] if isinstance(v, tuple) else v)
                for k, v in outcome.items()}

    def describe(self, inputs):
        return {"brackets": [{"groupoid": b["name"], "grid": "circle",
                              "n": b["grid"].n,
                              "product_charts": len(b["gpd"].arrows.charts)
                              ** b["grid"].n}
                             for b in inputs["brackets"]],
                "classifiers": {"grid": "circle", "n": self.classifier_nodes,
                                "expected": self.classifiers},
                "etale": {"groupoid": self.etale_groupoid, "grid": "circle",
                          "n": self.classifier_nodes,
                          "arrows": self.etale_arrows}}


class AxiomsLong:
    """Lifted axioms on long circle and interval grids, flat axioms on big batches."""

    name = "axioms-long"
    kinds = ("circle", "interval")
    nodes = 2048
    path_samples = 20
    flat_points = 100_000

    def setup(self, seed, workdir):
        lifted, flat = [], []
        for name in CATALOG:
            gpd = groupoids.make_groupoid(name)
            for kind in self.kinds:
                lifted.append({
                    "key": f"lifted/{name}/{kind}",
                    "current": currents.build_current(
                        gpd, gridmaps.GridSpec(kind, self.nodes)),
                    "seed": sub_seed(seed, self.name, name, kind)})
            flat.append({"key": f"flat/{name}", "gpd": gpd,
                         "seed": sub_seed(seed, self.name, name, "flat")})
        return {"lifted": lifted, "flat": flat}

    def run(self, inputs):
        out = {}
        for item in inputs["lifted"]:
            _checked(out, item["key"], lambda c=item["current"], s=item["seed"]:
                     c.check_axioms(n_samples=self.path_samples,
                                    seed=s).violations)
        for item in inputs["flat"]:
            _checked(out, item["key"], lambda g=item["gpd"], s=item["seed"]:
                     groupoids.check_axioms(g, n_samples=self.flat_points,
                                            seed=s).violations)
        return out

    def gate(self, outcome, tol):
        # ``<=`` is False for NaN, so a NaN violation fails its check.
        failed = sum(_failed(v) or not all(x <= tol.tol_chart for x in v.values())
                     for v in outcome.values())
        expected = len(CATALOG) * (len(self.kinds) + 1)
        return max(expected, len(outcome)), failed + max(expected - len(outcome), 0)

    def fingerprint(self, outcome):
        return outcome

    def describe(self, inputs):
        return {"groupoids": CATALOG, "grids": list(self.kinds),
                "n": self.nodes, "path_samples": self.path_samples,
                "flat_points": self.flat_points}


WORKLOADS = {w.name: w for w in (VerifyAll(), BracketGrid(), AxiomsLong())}
