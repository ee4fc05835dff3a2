"""Verdicts over many seeds: the default report at seeds 1-30, on both
grid kinds.

Runs ``cli.execute`` on ``{"seed": s, "grid": g}`` for each seed of
``SEEDS`` and each grid ``g`` of ``GRIDS``: the default circle grid, and
the interval grid at ell 2 of ``tests/golden/interval-ell2.json``.  For
each grid it tallies, record by record, the statuses and the sample
counts of the reports: the fields that no host's floating point can move.
The tallies are compared with the committed table
``tests/golden/seed-sweep.json``, which holds one per grid; the script
names each record whose tallies differ, or that only one of them has, and
exits 1 if there is one, otherwise 0.  With ``--write`` it writes the
table instead.  It also prints the worst residual of each record over the
seeds, which the table does not hold.  It takes about a minute on two
CPUs.

A change that moves the random stream cites the table's diff: statuses
and counts that hold over thirty seeds, not only at seed 7.

Run from the repository root::

    python3 tools/seed_sweep.py [--write]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import tempfile
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
TABLE = ROOT / "tests" / "golden" / "seed-sweep.json"
SEEDS = range(1, 31)
# The grid of each sweep, as the "grid" entry of its configs.
GRIDS = {"circle": {"kind": "circle"},
         "interval": {"kind": "interval", "ell": 2}}


def tally(reports):
    """{check_name: {"status": {status: seeds}, "n_samples": {count:
    seeds}}} over the reports; JSON keys are strings, so counts are too."""
    table = {}
    for report in reports:
        for r in report["records"]:
            row = table.setdefault(r["check_name"], {"status": Counter(),
                                                     "n_samples": Counter()})
            row["status"][r["status"]] += 1
            row["n_samples"][str(r["n_samples"])] += 1
    return {name: {field: dict(sorted(c.items())) for field, c in row.items()}
            for name, row in sorted(table.items())}


def differing(got, want):
    """Names of the records whose tallies differ, or that one table lacks."""
    return sorted(name for name in set(got) | set(want)
                  if got.get(name) != want.get(name))


def sweep(seeds):
    """(table, {(grid, check_name): (worst residual, its seed)}) over the
    seeds, with one tally per grid of ``GRIDS``."""
    sys.path.insert(0, str(ROOT / "src"))
    from currentgpd import cli
    tallies, worst = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for kind, grid in GRIDS.items():
            reports = []
            for seed in seeds:
                path = pathlib.Path(tmp) / f"{kind}-{seed}.json"
                path.write_text(json.dumps({"seed": seed, "grid": grid}))
                report = cli.execute(cli.load_config(path))
                reports.append(report)
                for r in report["records"]:
                    key = (kind, r["check_name"])
                    # NaN residuals rank first, as their records fail
                    res = r["max_residual"]
                    res = float("inf") if res != res else float(res)
                    if res > worst.get(key, (-1.0, None))[0]:
                        worst[key] = (res, seed)
            tallies[kind] = tally(reports)
    return {"seeds": [min(seeds), max(seeds)], "records": tallies}, worst


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help=f"write the table to {TABLE.relative_to(ROOT)}")
    args = parser.parse_args(argv)
    table, worst = sweep(SEEDS)
    for (kind, name), (res, seed) in sorted(worst.items()):
        print(f"{kind} {name}: worst residual {res:.3e} at seed {seed}")
    if args.write:
        TABLE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
        print(f"wrote {TABLE.relative_to(ROOT)}")
        return 0
    want = json.loads(TABLE.read_text())
    differ = 0
    for kind in sorted(set(table["records"]) | set(want["records"])):
        got_rows = table["records"].get(kind, {})
        want_rows = want["records"].get(kind, {})
        names = differing(got_rows, want_rows)
        for name in names:
            print(f"{kind} {name}: {got_rows.get(name)} at seeds "
                  f"{table['seeds']}, the table says {want_rows.get(name)} "
                  f"at seeds {want['seeds']}")
        print(f"{kind}: {len(got_rows)} records over seeds {table['seeds']}; "
              f"{len(names)} differ from {TABLE.relative_to(ROOT)}")
        differ += len(names)
    if table["seeds"] != want["seeds"]:
        print(f"seeds {table['seeds']}, the table says {want['seeds']}")
    return 1 if differ or table["seeds"] != want["seeds"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
