"""One timed set-up: start the interpreter, import, build a workload's inputs.

``run.py`` starts this script several times and times each from process
start to the ``ready`` line; the median is ``setup_s``.

    python3 perfbench/probe.py --workload bracket-grid --seed 7
"""

import argparse

import bootstrap

bootstrap.use_source_tree()
from workloads import WORKLOADS  # noqa: E402 - needs the source tree on sys.path


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args()
    WORKLOADS[args.workload].setup(args.seed, bootstrap.WORKDIR)
    print("ready", flush=True)


if __name__ == "__main__":
    main()
