"""Benchmark of ``currentgpd``: one workload, one seed, one process.

    python3 perfbench/run.py --workload verify-all --seed 7 --seconds 25 --trace 0

Workloads (see ``workloads.py``): ``verify-all`` (the ``currentgpd run``
that users make), ``bracket-grid`` (two-way current brackets and per-node
Jacobian classifiers) and ``axioms-long`` (lifted axioms on long grids and
flat axioms on big batches).

With ``--trace 0`` the run builds the inputs, then repeats the workload
until ``--seconds`` would be exceeded (at least once), timing a set-up in a
fresh process between repetitions, and reports the end-to-end metrics:
``wall_s`` (median time of one repetition), ``setup_s`` (median, over
several fresh processes, of the time from process start to inputs ready)
and ``peak_rss_mb``.

With ``--trace 1`` the run makes an untraced pass and a traced pass of the
workload and reports the per-layer metrics of ``tracer.py``, the per-suite
times, the thread-pool gain and the tracing overhead.  It also checks that
both passes give the same verdicts and residuals.

Every repetition is gated: a check that raises, gives a wrong verdict or a
residual over its tolerance counts as failed.  The second-to-last line of
standard output describes the run (versions, machine, commit, inputs,
repetition times); the last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import bootstrap

currentgpd = bootstrap.use_source_tree()

import numpy as np  # noqa: E402

from tracer import SUITE_IDS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402
from currentgpd.tolerances import DEFAULT  # noqa: E402

SETUP_PROBES = 15
PROBE_TIMEOUT_S = 60


# -- the machine and the code ---------------------------------------------------

def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def git_commit():
    """The checked-out commit, or None outside a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=bootstrap.ROOT,
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def header(args, workload, inputs):
    return {
        "command": ["python3", "perfbench/run.py", "--workload", args.workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(args.trace)],
        "currentgpd": currentgpd.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "workload": workload.name,
        "seed": args.seed,
        "inputs": workload.describe(inputs),
    }


# -- untraced run -------------------------------------------------------------------

def probe_setup(workload, seed):
    """Seconds from starting a fresh interpreter to its inputs being ready."""
    cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "probe.py"),
           "--workload", workload, "--seed", str(seed)]
    start = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline().strip()
            took = perf_counter() - start
            proc.wait(timeout=PROBE_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if line != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return took


def measure(args, workload):
    inputs = workload.setup(args.seed, bootstrap.WORKDIR)
    setups, times, attempted, failed = [], [], 0, 0
    # A set-up probe before each repetition and the rest after the last one,
    # so that set-up and repetitions are sampled over the same stretch of time.
    while not times or sum(times) + statistics.median(times) <= args.seconds:
        if len(setups) < SETUP_PROBES:
            setups.append(probe_setup(workload.name, args.seed))
        start = perf_counter()
        outcome = workload.run(inputs)
        times.append(perf_counter() - start)
        n, bad = workload.gate(outcome, DEFAULT)
        attempted += n
        failed += bad
    while len(setups) < SETUP_PROBES:
        setups.append(probe_setup(workload.name, args.seed))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    info = header(args, workload, inputs)
    info.update(repetitions=len(times), repetition_s=times, setup_runs=setups)
    metrics = {"wall_s": (statistics.median(times), "s"),
               "setup_s": (statistics.median(setups), "s"),
               "peak_rss_mb": (rss_mb, "MiB")}
    return info, failed == 0, attempted, failed, metrics


# -- traced run ---------------------------------------------------------------------

def timed(fn, *args):
    start = perf_counter()
    out = fn(*args)
    return out, perf_counter() - start


def traced_pass(workload, seed, body):
    """Run ``body`` with every layer traced, on inputs built under the tracer.

    Building the inputs after installing lets the tracer wrap the sampler
    hooks of the new groupoids; the counts start after set-up.
    """
    tracer = Tracer()
    tracer.install()
    try:
        inputs = workload.setup(seed, bootstrap.WORKDIR)
        tracer.reset()
        outcome, took = timed(body, inputs)
    finally:
        tracer.uninstall()
    return tracer, outcome, took


def trace(args, workload):
    inputs = workload.setup(args.seed, bootstrap.WORKDIR)
    metrics = {f"suites.{sid}.s": (0.0, "s") for sid in SUITE_IDS}
    metrics.update({"cli.execute.s": (0.0, "s"),
                    "cli.write_report.s": (0.0, "s"),
                    "cli.pool_gain": (0.0, "ratio")})
    if workload.name == "verify-all":
        # The users' run with its thread pool, timed at the cli layer only.
        cli_tracer = Tracer()
        cli_tracer.install(["cli"])
        try:
            pooled, pooled_s = timed(workload.run, inputs)
        finally:
            cli_tracer.uninstall()
        # The suites one at a time, each timed alone: per-suite times and
        # the single-threaded baseline.
        suite_tracer = Tracer()
        suite_tracer.install(["suites"])
        try:
            plain, plain_s = timed(workload.run_sequential, inputs)
        finally:
            suite_tracer.uninstall()
        tracer, traced, traced_s = traced_pass(workload, args.seed,
                                               workload.run_sequential)
        suite_sum = 0.0
        for sid in SUITE_IDS:
            took = suite_tracer.span(f"suites.{sid}")["s"]
            metrics[f"suites.{sid}.s"] = (took, "s")
            suite_sum += took
        for name in ("cli.execute", "cli.write_report"):
            metrics[f"{name}.s"] = (cli_tracer.span(name)["s"], "s")
        metrics["cli.pool_gain"] = (suite_sum / pooled_s, "ratio")
        outcomes = [pooled, plain, traced]
    else:
        # The first pass warms caches, so the second is the untraced baseline.
        warm = workload.run(inputs)
        plain, plain_s = timed(workload.run, inputs)
        tracer, traced, traced_s = traced_pass(workload, args.seed, workload.run)
        outcomes = [warm, plain, traced]
    metrics.update(tracer.metrics())
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "ratio")

    attempted = failed = 0
    for outcome in outcomes:
        n, bad = workload.gate(outcome, DEFAULT)
        attempted += n
        failed += bad
    prints = [json.dumps(workload.fingerprint(o), sort_keys=True)
              for o in outcomes]
    same = all(p == prints[0] for p in prints)
    info = header(args, workload, inputs)
    info.update(passes=len(outcomes), untraced_s=plain_s, traced_s=traced_s,
                traced_equals_untraced=same,
                spans={name: tracer.span(name) for name in sorted(tracer.spans)})
    return info, same and failed == 0, attempted, failed, metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    workload = WORKLOADS[args.workload]
    run = trace if args.trace else measure
    info, correct, attempted, failed, metrics = run(args, workload)
    print(json.dumps({"run": info}, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct), "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
