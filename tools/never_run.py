"""Lines of ``currentgpd`` that the program never runs; the golden reports.

Records every line of ``src/currentgpd`` that runs while the program does
its work, then compares them with the lines of every function the package
compiles (``co_lines()``).  The work is:

- ``currentgpd run`` on ``{"seed": 7}``, and on the same seed with an
  interval grid at ``ell`` 2;
- ``currentgpd list-suites`` and ``currentgpd dump-gridmap``;
- ``setup`` and ``run`` of the ``bracket-grid`` and ``axioms-long``
  workloads of ``perfbench/workloads.py``.

Tracing starts before ``currentgpd`` is imported, and it carries into the
worker processes that ``cli.execute`` forks: each worker saves the lines it
ran as it exits, and they count as run.  A function is keyed by
``module:qualname``; a lambda or comprehension has its own qualname
(``f.<locals>.<lambda>``), and functions that share one are counted
together.  Module and class bodies run at import and are not counted.

``KEEP`` is the one table of what the package keeps without a use, one
entry with one reason each.  It maps each function that keeps lines the
work never runs to the number of those lines; the scans of
``tests/test_surface.py`` read the same table for code that nothing calls,
fields that nothing reads and parameters that no call sets.  The script
prints each function whose count differs from its entry, with the lines.

The two reports the work writes are then compared with
``tests/golden/seed-7.json`` and ``tests/golden/interval-ell2.json``, every
``wall_time_ms`` set to 0; the script names the records or the other
fields that differ, or says that only the formatting does.  It exits 1 on
either kind of difference, otherwise 0.  It takes about half a minute.

Run from the repository root::

    python3 tools/never_run.py
"""

from __future__ import annotations

import contextlib
import importlib.util
import inspect
import io
import json
import multiprocessing.util
import pathlib
import pickle
import re
import sys
import tempfile
import threading

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "currentgpd"
GOLDEN = ROOT / "tests" / "golden"
# The reports the work writes, each under the name of its golden file.
REPORTS = {"seed-7": {"seed": 7},
           "interval-ell2": {"seed": 7,
                             "grid": {"kind": "interval", "ell": 2}}}

# Reasons shared by several entries.
RAISES = "raises on an input the work never gives it"
CLI = "reports a bad command line or config; the work passes good ones"
NAN = "handles a NaN or non-finite value; no sample of the work produces one"
REPR = "debugging text; the work prints none"
PLANNED = ("no caller yet: an input to a planned property-inheritance suite "
           "(Theorems C and E)")
CERTIFICATE = ("an input of an obstruction certificate, which a control where "
               "the obstruction is absent will set")
# A function or method with one of these reasons has no caller in the
# package or in perfbench/: the caller scan of tests/test_surface.py lets
# it be, and fails once it has one.
NO_CALLER = (PLANNED,)
CLASSIFIERS = ("read only by classify_etale, classify_locally_transitive and "
               "current_anchor_rank_nodes, which have no caller yet")
MIXED_AXES = ("a matrix whose entries carry direction axes in some places "
              "and not in others; every matrix the work packs has them "
              "everywhere or nowhere")
OFF_KERNEL = ("the fail record of a bracket that leaves the kernel; no "
              "bracket the work takes does, the perturbed-projector controls "
              "of tests/test_negative_controls.py do")
DISTANCE = ("the intrinsic distance that coherence checks read; no grid map "
            "the work checks lands on this manifold")

# key -> (never-run lines, why it stays), where the key is one of
# - module:qualname of a function, lambda or comprehension, with the number
#   of its lines the work never runs;
# - module:Class.field of a dataclass field that nothing reads, 0 lines;
# - module:function(parameter) or module:Class.method(parameter) of a
#   defaulted parameter that no call sets, 0 lines.
KEEP = {
    "ad:Dual.__repr__": (2, REPR),
    "ad:_columns":
        (1, "an output part without the direction axis; every output the work "
         "differentiates carries it"),
    "ad:_past_directions": (1, RAISES),
    "ad:_pack": (3, MIXED_AXES),
    "ad:_pack.<locals>.<listcomp>": (1, MIXED_AXES),
    "ad:jacobian_columns":
        (2, "a function of no inputs, and a refused input; no caller passes "
         "either"),
    "algebroids:LieAlgebroid._select_axes": (1, RAISES),
    "algebroids:LieAlgebroid.bracket.<locals>.vector_fn": (1, RAISES),
    "algebroids:LieAlgebroid.frame_fields": (1, RAISES),
    "algebroids:_node_entries":
        (1, "a coefficient that is a plain number; every coefficient the work "
         "draws has a node axis"),
    "algebroids:_pick":
        (1, "nodes that pick different frame axes; in the work all nodes of a "
         "call pick the same one"),
    "algebroids:algebroid_of_groupoid": (1, RAISES),
    "algebroids:sign_convention_check":
        (4, "an abelian group, a group without a commutator and a vanishing "
         "commutator; the suite checks SO(3) on random pairs"),
    "catalog:RotationGroup.geodesic_distance": (6, DISTANCE),
    "catalog:Sphere.geodesic_distance": (5, DISTANCE),
    "catalog:Sphere.sample_path":
        (7, "no groupoid of the catalog has sphere paths; tests draw them"),
    "catalog:Sphere.sample_path.<locals>.<listcomp>":
        (2, "no groupoid of the catalog has sphere paths; tests draw them"),
    "cli:_id_list": (1, CLI),
    "cli:_out_path": (1, CLI),
    "cli:_mapping": (1, CLI),
    "cli:_strict_json": (1, NAN),
    "cli:load_config": (22, CLI),
    "cli:main(argv)":
        (0, "the entry point's argument list; the console script calls "
         "main(), which then parses sys.argv"),
    "cli:main":
        (14, "the --seed and --suite flags, and the exit on a bad id, config, "
         "node count or output path; tests/test_cli.py runs them"),
    "cli:named_gridmap": (1, CLI),
    "cli:suite_context": (2, CLI),
    "cli:write_report":
        (1, "writes the report to stdout; the traced runs write it to a file"),
    "currents:CurrentGroupoid.mu_star": (3, RAISES),
    "currents:action_iso": (1, RAISES),
    "currents:current_anchor_rank_nodes": (5, PLANNED),
    "currents:proper_etale_fiber_bound": (1, RAISES),
    "currents:current_anchor_rank_nodes(n_arrows)": (0, PLANNED),
    "currents:current_anchor_rank_nodes(seed)": (0, PLANNED),
    "currents:properness_failure_witness(k_max)": (0, CERTIFICATE),
    "currents:properness_failure_witness(windings)": (0, CERTIFICATE),
    "currents:properness_failure_witness":
        (1, "the inconclusive verdict; the winding family always shows the "
         "obstruction"),
    "errors:BranchAmbiguity.__init__": (3, RAISES),
    "errors:FrameProjectionError.__init__": (3, RAISES),
    "errors:GeometryError.__reduce__":
        (2, "carries a suite's error out of its worker process; no suite of "
         "the work raises one"),
    "gridmaps:GridMap.__init__": (1, RAISES),
    "gridmaps:GridMap.__repr__": (3, REPR),
    "gridmaps:GridMap.check_coherence": (3, RAISES),
    "gridmaps:GridMap.close_to":
        (2, "compares a section's base with a grid map that is a different "
         "object; every caller passes the same one"),
    "gridmaps:GridSection.__init__": (1, RAISES),
    "gridmaps:GridSection.__repr__": (2, REPR),
    "gridmaps:GridSpec.__post_init__": (3, RAISES),
    "gridmaps:_finite_difference":
        (1, "order 0, which seminorm_distance measures without differences"),
    "gridmaps:degree": (3, RAISES),
    "gridmaps:local_diffeo_inverse":
        (12, "errors on a map or lift that cannot be inverted, a map with one "
         "branch, and the lone call, which the work's stacked calls never "
         "make; tests/test_mapping_space.py reaches them"),
    "gridmaps:pushforward_tangent": (1, RAISES),
    "gridmaps:seminorm_distance": (1, RAISES),
    "groupoids:ClassifyReport.extreme": (0, PLANNED),
    "groupoids:ClassifyReport.witness": (0, PLANNED),
    "groupoids:FiniteGroup.__init__": (1, RAISES),
    "groupoids:LieGroupoid.__repr__": (2, REPR),
    "groupoids:LieGroupoid._fiber": (1, RAISES),
    "groupoids:LieGroupoid.anchor_map": (5, CLASSIFIERS),
    "groupoids:LieGroupoid.anchor_map.<locals>.fn": (2, CLASSIFIERS),
    "groupoids:axiom_report": (1, RAISES),
    "groupoids:classify_etale": (9, PLANNED),
    "groupoids:classify_etale(n_samples)": (0, PLANNED),
    "groupoids:classify_etale(seed)": (0, PLANNED),
    "groupoids:classify_locally_transitive": (10, PLANNED),
    "groupoids:classify_locally_transitive(n_samples)": (0, PLANNED),
    "groupoids:classify_locally_transitive(seed)": (0, PLANNED),
    "groupoids:isotropy_group": (1, RAISES),
    "groupoids:make_groupoid": (1, RAISES),
    "groupoids:worst_rank_ratio":
        (2, "the two cases that need no Jacobian; the planned "
         "property-inheritance suite (Theorems C and E) reaches them"),
    "linalg:_solve": (4, RAISES),
    "linalg:gram_schmidt":
        (2, "a frame vector that vanishes; the frames of the catalog keep "
         "their rank"),
    "linalg:newton":
        (4, "Newton's failures: a singular step, an iterate outside the box, "
         "no convergence"),
    "localadd:LocalAddition.sigma": (1, RAISES),
    "localadd:LocalAddition.theta_inverse": (4, RAISES),
    "localadd:normalize": (2, RAISES),
    "localadd:riemannian_local_addition": (1, RAISES),
    "manifolds:ChartedManifold.__repr__": (2, REPR),
    "manifolds:ChartedManifold.best_chart": (2, RAISES),
    "manifolds:ChartedManifold.point_from_ambient": (1, RAISES),
    "manifolds:ChartedManifold.sample":
        (2, "the abstract sampler; every catalog manifold overrides it"),
    "manifolds:ChartedManifold.sample_path":
        (2, "the abstract path sampler; every catalog manifold that draws "
         "paths overrides it"),
    "manifolds:DiscreteManifold.geodesic_distance": (5, DISTANCE),
    "manifolds:LazyCharts.__getitem__": (1, RAISES),
    "manifolds:LazyCharts.__len__":
        (2, "read by describe() in perfbench/workloads.py, which the tracer "
         "does not call"),
    "manifolds:Point.__repr__": (2, REPR),
    "manifolds:ProductManifold.__init__.<locals>.<genexpr>":
        (1, "the default name; every product the work builds is named"),
    "manifolds:ProductManifold.best_chart": (2, RAISES),
    "manifolds:SmoothMap.__repr__": (2, REPR),
    "manifolds:Tangent.__repr__": (2, REPR),
    "manifolds:TangentBundleManifold.geodesic_distance": (7, DISTANCE),
    "manifolds:_pairwise_sum":
        (4, "sums of 16 or more terms; no ambient space the work measures has "
         "16 coordinates"),
    "manifolds:_pairwise_sum.<locals>.<listcomp>":
        (1, "sums of 16 or more terms; no ambient space the work measures has "
         "16 coordinates"),
    "orbifolds:atlas_connectivity_negative_test": (1, RAISES),
    "orbifolds:atlas_connectivity_negative_test(chart_margin)":
        (0, CERTIFICATE),
    "orbifolds:atlas_connectivity_negative_test(component_offset)":
        (0, CERTIFICATE),
    "orbifolds:local_action_form":
        (17, "group elements outside the isotropy, and the shrinking ball; "
         "both points the suite takes are fixed by the whole group "
         "(ROADMAP item 2)"),
    "orbifolds:local_action_form.<locals>.<genexpr>":
        (2, "group elements outside the isotropy; both points the suite takes "
         "are fixed by the whole group"),
    "orbifolds:path_lift":
        (11, "errors on a path that cannot be lifted, and the lone call, which "
         "the work's stacked calls never make; tests/test_orbifolds.py "
         "reaches them"),
    "report:worst_residual": (1, NAN),
    "suites:SuiteContext.<lambda>":
        (2, "defaults that cli.execute always sets; tests rely on them"),
    "suites:_left_the_kernel": (2, OFF_KERNEL),
    "suites:_lifts": (1, RAISES),
    "suites:run_suite": (1, RAISES),
    "suites:suite_algebroid_laws": (5, OFF_KERNEL),
    "suites:suite_not_tra_certificate": (3, "the record's fail branches"),
    "suites:suite_theorem_d": (2, OFF_KERNEL),
}


def function_codes(path):
    """Every function, lambda and comprehension compiled from ``path``."""
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        todo += [c for c in code.co_consts if inspect.iscode(c)]
        if code.co_flags & inspect.CO_OPTIMIZED:  # not a module or class body
            yield code


def start_tracing(workdir):
    """Trace the package's frames from now on, here and in every worker
    process that ``multiprocessing`` forks; returns {code key: lines}, to
    which ``add_worker_lines(hits, workdir)`` adds the workers' lines."""
    files = {str(p) for p in PACKAGE.glob("*.py")}
    hits = {}

    def call(frame, event, arg):
        code = frame.f_code
        if code.co_filename not in files:
            return None
        key = (code.co_filename, code.co_qualname, code.co_firstlineno)
        lines = hits.setdefault(key, set())
        lines.add(frame.f_lineno)

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line

        return line

    def save():
        with tempfile.NamedTemporaryFile(dir=workdir, suffix=".lines",
                                         delete=False) as fh:
            pickle.dump(hits, fh)

    # A forked worker keeps the tracer and its own copy of the hits, which
    # it saves as it exits.  The finalizer is registered after the fork,
    # because a worker's bootstrap clears those registered before it.  The
    # registry holds its first argument weakly; the tracer outlives the runs.
    multiprocessing.util.register_after_fork(
        call, lambda call: multiprocessing.util.Finalize(None, save,
                                                         exitpriority=0))
    threading.settrace(call)
    sys.settrace(call)
    return hits


def add_worker_lines(hits, workdir):
    """Add the lines that the traced worker processes saved to ``hits``."""
    for path in workdir.glob("*.lines"):
        for key, lines in pickle.loads(path.read_bytes()).items():
            hits.setdefault(key, set()).update(lines)


def run_the_program(workdir):
    """The work whose lines count as run; raises if any of it fails."""
    sys.path.insert(0, str(ROOT / "src"))
    from currentgpd import cli
    from currentgpd.tolerances import DEFAULT
    if pathlib.Path(cli.__file__).parent != PACKAGE:
        raise RuntimeError(f"imported {cli.__file__}, not {PACKAGE}")
    def command(*argv):
        code = cli.main(list(argv))
        if code != 0:
            raise RuntimeError(f"currentgpd {' '.join(argv)} exited {code}")

    for name, config in REPORTS.items():
        path = workdir / f"{name}-config.json"
        path.write_text(json.dumps(config))
        command("run", "--config", str(path),
                "--out", str(workdir / f"{name}.json"))
    with contextlib.redirect_stdout(io.StringIO()):
        command("list-suites")
    for name in ("identity-loop", "constant-loop", "winding-2-loop"):
        command("dump-gridmap", name, "--out", str(workdir / f"{name}.csv"))
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name in ("bracket-grid", "axioms-long"):
        w = workloads.WORKLOADS[name]
        outcome = w.run(w.setup(7, str(workdir)))
        attempted, failed = w.gate(outcome, DEFAULT)
        if failed:
            raise RuntimeError(f"{name}: {failed} of {attempted} checks failed")


def never_run(hits):
    """{module:qualname: sorted never-run lines} over the package."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for code in function_codes(path):
            ran = hits.get((str(path), code.co_qualname, code.co_firstlineno),
                           set())
            missed = {line for _, _, line in code.co_lines()
                      if line is not None} - ran
            lines = out.setdefault(f"{path.stem}:{code.co_qualname}", set())
            lines |= missed
    return {key: sorted(lines) for key, lines in out.items() if lines}


def untimed(text):
    """A report's text with every ``wall_time_ms`` set to 0."""
    return re.sub(r'"wall_time_ms": [0-9.e+-]+', '"wall_time_ms": 0', text)


def records(text, fields=None):
    """{check_name: the record's text} of a report, over ``fields`` only
    when given.  JSON writes floats with ``repr``, so the text keeps every
    bit of every residual."""
    return {r["check_name"]: json.dumps(
                {k: v for k, v in r.items() if fields is None or k in fields},
                sort_keys=True)
            for r in json.loads(text)["records"]}


def differing(got, want, fields=None):
    """Names of the records that differ between two report texts, over
    ``fields`` only when given, or that only one of them has."""
    a, b = records(got, fields), records(want, fields)
    return sorted(name for name in set(a) | set(b)
                  if a.get(name) != b.get(name))


def difference(got, want):
    """What differs between two report texts: the records that differ, the
    other top-level fields that differ, or else only the formatting."""
    a, b = json.loads(got), json.loads(want)
    fields = sorted(key for key in set(a) | set(b)
                    if key != "records" and a.get(key) != b.get(key))
    names = differing(got, want)
    parts = ([f"the records {names}"] if names else []) + (
        [f"the fields {fields}"] if fields else [])
    return " and ".join(parts) or "its formatting only"


def golden_differences(workdir):
    """{report name: what differs} for each report the work wrote that is
    not its golden file to the byte, timing aside."""
    out = {}
    for name in REPORTS:
        got = untimed((workdir / f"{name}.json").read_text())
        want = (GOLDEN / f"{name}.json").read_text()
        if got != want:
            out[name] = difference(got, want)
    return out


def main():
    with tempfile.TemporaryDirectory() as tmp:
        workdir = pathlib.Path(tmp)
        hits = start_tracing(workdir)
        try:
            run_the_program(workdir)
        finally:
            sys.settrace(None)
            threading.settrace(None)
        add_worker_lines(hits, workdir)
        golden = golden_differences(workdir)
    found = never_run(hits)
    bad = 0
    for key in sorted(set(found) | set(KEEP)):
        got = len(found.get(key, ()))
        want = KEEP.get(key, (0, ""))[0]
        if got != want:
            bad += 1
            print(f"{key}: {got} never-run lines, KEEP says {want}: "
                  f"{found.get(key, [])}")
    total = sum(len(v) for v in found.values())
    print(f"{len(found)} functions keep {total} never-run lines; "
          f"{bad} differ from KEEP")
    for name, where in golden.items():
        print(f"{name}: the report differs from {GOLDEN.name}/{name}.json in "
              f"{where}")
    return 1 if bad or golden else 0


if __name__ == "__main__":
    raise SystemExit(main())
