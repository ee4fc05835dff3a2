"""Lines of ``currentgpd`` that the program never runs.

Records every line of ``src/currentgpd`` that runs while the program does
its work, then compares them with the lines of every function the package
compiles (``co_lines()``).  The work is:

- ``currentgpd run`` on ``{"seed": 7}``, and on the same seed with an
  interval grid at ``ell`` 2;
- ``currentgpd list-suites`` and ``currentgpd dump-gridmap``;
- ``setup`` and ``run`` of the ``bracket-grid`` and ``axioms-long``
  workloads of ``perfbench/workloads.py``.

Tracing starts before ``currentgpd`` is imported.  A function is keyed by
``module:qualname``; a lambda or comprehension has its own qualname
(``f.<locals>.<lambda>``), and functions that share one are counted
together.  Module and class bodies run at import and are not counted.

``ALLOW`` maps each function that keeps lines the work never runs to the
number of those lines and the reason they stay.  The script prints each
function whose count differs from its entry, with the lines, and exits 1
when there is one; otherwise it exits 0.  It takes about half a minute.

Run from the repository root::

    python3 tools/never_run.py
"""

from __future__ import annotations

import contextlib
import importlib.util
import inspect
import io
import json
import pathlib
import sys
import tempfile
import threading

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "currentgpd"

# Reasons shared by several entries.
RAISES = "raises on an input the work never gives it"
CLI = "reports a bad command line or config; the work passes good ones"
NAN = "handles a NaN or non-finite value; no sample of the work produces one"
REPR = "debugging text; the work prints none"
PLANNED = "input to a planned property-inheritance suite (Theorems C and E)"
TESTED = "library surface that tests check; KEEP in tests/test_surface.py"
MIXED_AXES = ("a matrix whose entries carry direction axes in some places "
              "and not in others; every matrix the work packs has them "
              "everywhere or nowhere")
OFF_KERNEL = ("the fail record of a bracket that leaves the kernel; no "
              "bracket the work takes does, the perturbed-projector controls "
              "of tests/test_negative_controls.py do")
DISTANCE = ("the intrinsic distance that coherence checks read; no grid map "
            "the work checks lands on this manifold")

# module:qualname -> (never-run lines, why they stay)
ALLOW = {
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
    "catalog:Circle.exp_chart":
        (2, "the group chart of the circle, read only by "
         "lie_group_local_addition"),
    "catalog:Circle.omega":
        (2, "the Maurer-Cartan form of the circle, read only by "
         "lie_group_local_addition"),
    "catalog:Euclidean.exp_chart":
        (2, "the group chart of a translation group, read only by "
         "lie_group_local_addition"),
    "catalog:Euclidean.omega":
        (2, "the Maurer-Cartan form of a translation group, read only by "
         "lie_group_local_addition"),
    "catalog:RotationGroup.exp_chart":
        (2, "the group chart of SO(3), read only by lie_group_local_addition"),
    "catalog:RotationGroup.omega":
        (3, "the Maurer-Cartan form of SO(3), read only by "
         "lie_group_local_addition"),
    "catalog:RotationGroup.geodesic_distance": (6, DISTANCE),
    "catalog:Sphere.geodesic_distance": (5, DISTANCE),
    "catalog:Sphere.sample_path":
        (7, "no groupoid of the catalog has sphere paths; tests draw them"),
    "catalog:Sphere.sample_path.<locals>.<listcomp>":
        (2, "no groupoid of the catalog has sphere paths; tests draw them"),
    "cli:_id_list": (1, CLI),
    "cli:_mapping": (1, CLI),
    "cli:_strict_json": (1, NAN),
    "cli:execute": (2, CLI),
    "cli:load_config": (22, CLI),
    "cli:main":
        (14, "the --seed and --suite flags, and the exit on a bad id, config, "
         "node count or output path; tests/test_cli.py runs them"),
    "cli:named_gridmap": (1, CLI),
    "cli:write_report":
        (1, "writes the report to stdout; the traced runs write it to a file"),
    "currents:CurrentGroupoid.mu_star": (3, RAISES),
    "currents:action_iso": (1, RAISES),
    "currents:current_anchor_rank_nodes": (5, PLANNED),
    "currents:proper_etale_fiber_bound": (1, RAISES),
    "currents:properness_failure_witness":
        (1, "the inconclusive verdict; the winding family always shows the "
         "obstruction"),
    "errors:BranchAmbiguity.__init__": (3, RAISES),
    "errors:FrameProjectionError.__init__": (3, RAISES),
    "errors:GraphOutsideDomain.__init__": (3, RAISES),
    "errors:NotInDomainU.__init__": (3, RAISES),
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
    "gridmaps:chart_phi": (8, TESTED),
    "gridmaps:chart_phi_inverse": (17, TESTED),
    "gridmaps:degree": (3, RAISES),
    "gridmaps:local_diffeo_inverse":
        (5, "errors on a map or lift that cannot be inverted; "
         "tests/test_mapping_space.py reaches them"),
    "gridmaps:pushforward_tangent": (1, RAISES),
    "gridmaps:seminorm_distance": (1, RAISES),
    "gridmaps:superposition": (8, TESTED),
    "groupoids:FiniteGroup.__init__": (1, RAISES),
    "groupoids:LieGroupoid.__repr__": (2, REPR),
    "groupoids:LieGroupoid._fiber": (1, RAISES),
    "groupoids:LieGroupoid.anchor_map": (5, PLANNED),
    "groupoids:LieGroupoid.anchor_map.<locals>.fn": (2, PLANNED),
    "groupoids:classify_etale": (9, PLANNED),
    "groupoids:classify_locally_transitive": (10, PLANNED),
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
    "localadd:lie_group_local_addition": (8, TESTED),
    "localadd:lie_group_local_addition.<locals>.closed": (2, TESTED),
    "localadd:lie_group_local_addition.<locals>.sigma_fn": (4, TESTED),
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
    "manifolds:second_tangent_map": (22, TESTED),
    "manifolds:second_tangent_map.<locals>.<listcomp>": (2, TESTED),
    "orbifolds:atlas_connectivity_negative_test": (1, RAISES),
    "orbifolds:local_action_form":
        (17, "group elements outside the isotropy, and the shrinking ball; "
         "both points the suite takes are fixed by the whole group "
         "(ROADMAP item 2)"),
    "orbifolds:local_action_form.<locals>.<genexpr>":
        (2, "group elements outside the isotropy; both points the suite takes "
         "are fixed by the whole group"),
    "orbifolds:path_lift": (9, RAISES),
    "report:worst_residual": (1, NAN),
    "suites:SuiteContext.<lambda>":
        (2, "defaults that cli.execute always sets; tests rely on them"),
    "suites:_left_the_kernel": (2, OFF_KERNEL),
    "suites:run_suite": (1, RAISES),
    "suites:suite_algebroid_laws": (5, OFF_KERNEL),
    "suites:suite_local_addition":
        (1, "a draw outside U, which 0.4 times a standard normal does not "
         "reach at seed 7"),
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


def start_tracing():
    """Trace the package's frames from now on; returns {code key: lines}."""
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

    threading.settrace(call)
    sys.settrace(call)
    return hits


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

    configs = {"circle": {"seed": 7},
               "interval": {"seed": 7,
                            "grid": {"kind": "interval", "ell": 2}}}
    for name, config in configs.items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(config))
        command("run", "--config", str(path),
                "--out", str(workdir / f"{name}-report.json"))
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


def main():
    hits = start_tracing()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            run_the_program(pathlib.Path(tmp))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    found = never_run(hits)
    bad = 0
    for key in sorted(set(found) | set(ALLOW)):
        got = len(found.get(key, ()))
        want = ALLOW.get(key, (0, ""))[0]
        if got != want:
            bad += 1
            print(f"{key}: {got} never-run lines, ALLOW says {want}: "
                  f"{found.get(key, [])}")
    total = sum(len(v) for v in found.values())
    print(f"{len(found)} functions keep {total} never-run lines; "
          f"{bad} differ from ALLOW")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
