"""Locate the source tree the benchmark measures and put it on ``sys.path``.

The benchmark runs ``currentgpd`` from ``src/`` of the checkout it lives in,
never from an installed copy, so that a result belongs to the code beside it.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_work")


def use_source_tree():
    """Import ``currentgpd`` from ``ROOT/src``; exit with code 2 if it is absent."""
    if not os.path.isfile(os.path.join(SRC, "currentgpd", "__init__.py")):
        sys.stderr.write(f"perfbench: no currentgpd sources under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import currentgpd
    where = os.path.dirname(os.path.abspath(currentgpd.__file__))
    if where != os.path.join(SRC, "currentgpd"):
        sys.stderr.write(f"perfbench: imported currentgpd from {where}, "
                         f"not from {SRC}\n")
        raise SystemExit(2)
    return currentgpd
