"""Print the end-to-end metrics of every workload, by name and with units.

    python3 perfbench/summary.py [--seed 7]

Runs ``run.py --trace 0`` once for each workload of ``BENCHMARK.json``, for
its ``run_seconds``, one process at a time, and prints ``wall_s``,
``setup_s``, ``peak_rss_mb`` and ``fail_frac`` (failed checks over checks
attempted) for each.  Exits with code 1 if a run was not correct.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 300


def run_json(workload, seed, seconds, trace):
    """Run the benchmark once in its own process and return its result line."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=7)
    args = p.parse_args(argv)
    all_ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        res = run_json(workload, args.seed, bench["run_seconds"], 0)
        all_ok = all_ok and res["correct"]
        cells = [f"{name} {m['value']:.4g} {m['unit']}"
                 for name, m in res["metrics"].items()]
        cells.append(f"fail_frac {res['failed'] / res['attempted']:.4g} ratio "
                     f"({res['failed']} of {res['attempted']} checks)")
        print(f"{workload} seed {args.seed}: " + ", ".join(cells), flush=True)
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
