"""Negative controls: a broken input must turn a suite's records to fail.

Each row breaks one catalog groupoid for one suite and shrinks the sample
counts.  The suite must report ``fail`` for every record of the broken
groupoid and keep ``pass`` for the others.
"""

import numpy as np
import pytest

from currentgpd.ad import value
from currentgpd.groupoids import GROUPOIDS
from currentgpd.suites import SuiteContext, run_suite

INSTANCES = ["pair-real1", "rot-action", "so3-group"]


def rarely_wrong(make, thr):
    """``make`` with a multiplication off by 1e-3 where g[0] exceeds thr."""
    def make_broken():
        gpd = make()
        mu_fn = gpd.mu_fn

        def broken(g, h):
            out = mu_fn(g, h)
            off = np.where(np.asarray(value(g[0])) > thr, 1e-3, 0.0)
            return [out[0] + off] + list(out[1:])

        gpd.mu_fn = broken
        return gpd

    return make_broken


# suite id -> (broken groupoid, threshold, sample override).  At seed 7,
# 2 of the 400 flat pair-real1 triples and 1-3 of the 200 arrow paths on
# each grid reach the broken region, so a check that skips rows misses it.
CONTROLS = {
    "groupoid-axioms": ("pair-real1", 1.99, 400),
    "current-groupoid-axioms": ("pair-real1", 3.5, 200),
}


@pytest.mark.parametrize("suite", sorted(CONTROLS))
def test_suite_fails_under_its_control(suite, monkeypatch):
    broken, thr, count = CONTROLS[suite]
    ctx = SuiteContext(seed=7, instances=INSTANCES, samples={suite: count})
    assert {r.status for r in run_suite(suite, ctx)} == {"pass"}
    monkeypatch.setitem(GROUPOIDS, broken, rarely_wrong(GROUPOIDS[broken], thr))
    records = run_suite(suite, ctx)
    for r in records:
        want = "fail" if r.check_name.split("/")[1] == broken else "pass"
        assert r.status == want, r.check_name
