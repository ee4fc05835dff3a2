"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

For each workload it makes two traced runs with seed 7 and one short
untraced run, each in its own process, one at a time, and checks that

* each run is correct; a traced run is correct only if its traced pass gave
  the same verdicts and residuals as its untraced pass;
* every span and counter the workload is meant to exercise fired;
* the two traced runs give identical counts (every ``.calls`` metric and
  every counter of ``tracer.COUNTS``);
* the metric names and units printed are those listed in ``BENCHMARK.json``.

Exits with code 1 if a check fails.
"""

from __future__ import annotations

import json
import os

from summary import ROOT, run_json
from tracer import COUNTS, SPANS, SUITE_IDS

SEED = 7

# Metrics that must be non-zero on each workload: the spans by their call
# counts, the suites and cli layer by their times.
EXPECTED = {
    "verify-all": (
        [f"{s}.calls" for s in SPANS] + list(COUNTS)
        + ["cli.execute.s", "cli.write_report.s", "cli.pool_gain"]
        + [f"suites.{sid}.s" for sid in SUITE_IDS]),
    "bracket-grid": [f"{s}.calls" for s in (
        "currents.current_etale_nodes", "manifolds.best_chart",
        "manifolds.map_jacobian", "ad.jvp", "ad.jacobian", "linalg.linsolve",
        "algebroids.groupoid_power", "algebroids.bracket_eval",
        "algebroids.current_bracket_two_ways",
        "gridmaps.classify_pushforward")] + [
        "manifolds.best_chart.points", "manifolds.best_chart.charts_scored",
        "manifolds.product_charts_built", "ad.dual_objects"],
    "axioms-long": [f"{s}.calls" for s in (
        "currents.check_axioms", "catalog.sample_path", "catalog.sample",
        "groupoids.sample_arrow_path", "groupoids.structure_maps",
        "groupoids.check_axioms")] + [
        "currents.check_axioms.samples", "catalog.sample_path.nodes",
        "groupoids.structure_maps.rows"],
}


def check_workload(workload, seed, declared):
    problems = []
    traced = [run_json(workload, seed, 1, 1) for _ in range(2)]
    plain = run_json(workload, seed, 1, 0)
    for label, res in (("traced run 1", traced[0]), ("traced run 2", traced[1]),
                       ("untraced run", plain)):
        if not res["correct"] or res["failed"]:
            problems.append(f"{label} is not correct: {res['failed']} of "
                            f"{res['attempted']} checks failed")
    for label, res, kind in (("traced", traced[0], "per_layer"),
                             ("untraced", plain, "end_to_end")):
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        if got != declared[kind]:
            problems.append(f"{label} metrics differ from BENCHMARK.json "
                            f"{kind}: {sorted(set(got) ^ set(declared[kind]))}")
    first, second = (r["metrics"] for r in traced)
    for name in EXPECTED[workload]:
        if not first.get(name, {}).get("value"):
            problems.append(f"{name} did not fire")
    exact = [k for k in first if k.endswith(".calls") or k in COUNTS]
    for name in exact:
        if first[name]["value"] != second[name]["value"]:
            problems.append(f"{name} differs between traced runs: "
                            f"{first[name]['value']} != {second[name]['value']}")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = {kind: {m["name"]: m["unit"] for m in bench[kind]}
                for kind in ("end_to_end", "per_layer")}
    failed = False
    for workload in (w["name"] for w in bench["workloads"]):
        problems = check_workload(workload, SEED, declared)
        failed = failed or bool(problems)
        print(f"{workload}: {'ok' if not problems else 'FAILED'}")
        for line in problems:
            print(f"  {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
