"""Verification command line: run suites, list them, dump grid maps.

Reports are deterministic for a fixed (config, seed) up to the wall-time
fields: each suite draws from its own derived seed, so neither their order,
their selection nor the process that runs them changes any result.  The
suites run as tasks in a pool of worker processes forked from this one, one
worker per usable CPU and at most one per task.  A suite that checks each
catalog instance (``PER_INSTANCE``) is one task per instance, since its
seeds derive from the instance's name; any other suite is one task.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

from .catalog import Circle
from .errors import ConfigError, UnknownId
from .gridmaps import (GridSpec, circle_winding_loop, constant_grid_map,
                       gridmap_to_csv)
from .groupoids import GROUPOIDS
from .suites import (PER_INSTANCE, SAMPLE_COUNTS, SUITES, SuiteContext,
                     run_suite)
from .tolerances import DEFAULT, TOLERANCE_KEYS

_CONFIG_KEYS = {"suites", "grid", "tolerances", "seed", "instances",
                "samples", "out"}
_GRID_KEYS = {"kind", "n", "ell"}


def _typed(val, types):
    """isinstance, except that JSON true/false are not numbers."""
    return isinstance(val, types) and not isinstance(val, bool)


def _mapping(raw, key, default):
    val = raw.get(key, default)
    if not isinstance(val, dict):
        raise ConfigError(f"'{key}' must be a JSON object")
    return val


def _id_list(raw, key, known):
    val = raw.get(key, sorted(known))
    if not isinstance(val, list) or not all(isinstance(v, str) for v in val):
        raise ConfigError(f"'{key}' must be a list of ids")
    return val


def _out_path(val):
    """The report path: a non-empty string, or None for stdout."""
    if val is not None and (not isinstance(val, str) or not val):
        raise ConfigError("'out' must be a non-empty path string or null")
    return val


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "seed" not in raw:
        raise ConfigError("config key 'seed' is mandatory")
    if not _typed(raw["seed"], int):
        raise ConfigError("'seed' must be an integer")
    grid = _mapping(raw, "grid", {"kind": "circle", "n": 64, "ell": 1})
    unknown = set(grid) - _GRID_KEYS
    if unknown:
        raise ConfigError(f"unknown grid keys: {sorted(unknown)}")
    for key in ("n", "ell"):
        if key in grid and not _typed(grid[key], int):
            raise ConfigError(f"grid {key} must be an integer")
    tols = _mapping(raw, "tolerances", {})
    unknown = set(tols) - set(TOLERANCE_KEYS)
    if unknown:
        raise ConfigError(f"unknown tolerance keys: {sorted(unknown)}")
    for key, val in tols.items():
        if not _typed(val, (int, float)) or not 0 < val < math.inf:
            raise ConfigError(f"tolerance {key} must be finite and positive")
    suites = _id_list(raw, "suites", SUITES)
    for sid in suites:
        if sid not in SUITES:
            raise ConfigError(f"unknown suite id {sid!r}")
    instances = _id_list(raw, "instances", GROUPOIDS)
    for inst in instances:
        if inst not in GROUPOIDS:
            raise ConfigError(f"unknown catalog instance {inst!r}")
    samples = _mapping(raw, "samples", {})
    for key, val in samples.items():
        if key not in SUITES:
            raise ConfigError(f"unknown suite id in samples: {key!r}")
        if key not in SAMPLE_COUNTS:
            raise ConfigError(f"suite {key} reads no sample count; samples "
                              f"may set {sorted(SAMPLE_COUNTS)}")
        if not _typed(val, int) or val <= 0:
            raise ConfigError(f"sample count for {key} must be a positive int")
    return {
        "suites": list(suites),
        "grid": {"kind": grid.get("kind", "circle"),
                 "n": grid.get("n", 64), "ell": grid.get("ell", 1)},
        "tolerances": dict(tols),
        "seed": raw["seed"],
        "instances": list(instances),
        "samples": dict(samples),
        "out": _out_path(raw.get("out")),
    }


def suite_context(config: dict) -> SuiteContext:
    """The context that a loaded config's suites run in."""
    try:
        grid = GridSpec(config["grid"]["kind"], config["grid"]["n"],
                        config["grid"]["ell"])
    except ValueError as e:
        raise ConfigError(str(e)) from e
    return SuiteContext(
        seed=config["seed"],
        grid=grid,
        tol=DEFAULT.with_overrides(**config["tolerances"]),
        instances=config["instances"],
        samples=config.get("samples", {}),
    )


def execute(config: dict) -> dict:
    """The report of a loaded config, its suites run in worker processes.

    Each suite is one task, and each suite of ``PER_INSTANCE`` one task per
    configured instance, run on a context that lists only that instance.
    The tasks go to one worker per usable CPU, at most one per task.  The
    workers are forked, so they inherit the imported package, and a task's
    exception is raised here; no worker outlives the call."""
    # Imported here, as they add about 20 ms to every import of this module.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    ctx = suite_context(config)
    tasks = []
    for sid in sorted(set(config["suites"])):
        if sid in PER_INSTANCE:
            tasks += [(sid, dataclasses.replace(ctx, instances=[name]))
                      for name in ctx.instances]
        else:
            tasks.append((sid, ctx))
    workers = max(1, min(len(tasks), len(os.sched_getaffinity(0))))
    with ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork")) as pool:
        records = [r for part in pool.map(run_suite, *zip(*tasks))
                   for r in part]
    records.sort(key=lambda r: r.check_name)
    overall = all(r.status in ("pass", "obstructed-as-expected")
                  for r in records)
    return {
        "seed": config["seed"],
        "grid": config["grid"],
        "status": "pass" if overall else "fail",
        "records": [r.to_dict() for r in records],
    }


def _strict_json(obj):
    """obj with each non-finite number written as a string ("nan", "inf",
    "-inf"), since strict JSON parsers reject NaN and Infinity, and each
    key as a string, so keys sort the same whatever their type."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): _strict_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict_json(v) for v in obj]
    return obj


def write_report(report: dict, out_path=None):
    text = json.dumps(_strict_json(report), sort_keys=True, indent=2,
                      allow_nan=False)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


# -- named grid maps -----------------------------------------------------------

def named_gridmap(name: str, n: int):
    circle = Circle()
    grid = GridSpec("circle", n)
    if name == "identity-loop":
        return circle_winding_loop(grid, circle, 1)
    if name == "constant-loop":
        return constant_grid_map(grid, circle.point_from_ambient([1.0, 0.0]))
    if name == "winding-2-loop":
        return circle_winding_loop(grid, circle, 2)
    raise UnknownId(f"no grid map registered under {name!r}")


# -- entry point ------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(prog="currentgpd",
                                description="verification suites for groupoids "
                                            "of grid maps")
    sub = p.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run verification suites from a config")
    runp.add_argument("--config", required=True)
    runp.add_argument("--seed", type=int, default=None,
                      help="override the config seed")
    runp.add_argument("--out", default=None, help="override the report path")
    runp.add_argument("--suite", action="append", default=None,
                      help="run only these suites (repeatable)")

    sub.add_parser("list-suites", help="list suite ids and their anchors")

    dump = sub.add_parser("dump-gridmap", help="write a named grid map as CSV")
    dump.add_argument("id")
    dump.add_argument("--out", required=True)
    dump.add_argument("--n", type=int, default=8)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list-suites":
        width = max(len(s) for s in SUITES)
        for sid in sorted(SUITES):
            anchor, _ = SUITES[sid]
            sys.stdout.write(f"{sid:<{width}}  {anchor}\n")
        return 0
    if args.command == "dump-gridmap":
        try:
            gridmap_to_csv(named_gridmap(args.id, args.n), args.out)
        except (UnknownId, ValueError, OSError) as e:
            sys.stderr.write(f"error: {e}\n")
            return 2
        return 0
    # run
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config["seed"] = args.seed
        if args.out is not None:
            config["out"] = _out_path(args.out)
        if args.suite:
            for sid in args.suite:
                if sid not in SUITES:
                    raise ConfigError(f"unknown suite id {sid!r}")
            config["suites"] = list(args.suite)
        report = execute(config)
    except ConfigError as e:
        sys.stderr.write(f"config error: {e}\n")
        return 2
    try:
        write_report(report, config.get("out"))
    except OSError as e:
        sys.stderr.write(f"error: cannot write the report: {e}\n")
        return 2
    return 0 if report["status"] == "pass" else 1


if __name__ == "__main__":
    raise SystemExit(main())
