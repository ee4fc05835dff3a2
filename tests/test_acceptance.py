"""The acceptance gate: every checkable claim at its stated tolerance.

Each criterion is its suites from ``suites.py`` run at ``SEED``, with the
suites' own draws, counts and bounds; the criterion passes when every
record reads ``pass`` or ``obstructed-as-expected``.  Each test prints one
pass/fail line with the worst residual (collected again in the terminal
summary).
"""

import json
import re

import pytest

from conftest import record_criterion

from currentgpd.gridmaps import GridSpec
from currentgpd.suites import SuiteContext, run_suite

SEED = 20240817

# number, description, suite ids, SuiteContext keywords
CRITERIA = [
    pytest.param(1, "lifted groupoid axioms over grids {8,64,256}",
                 ["current-groupoid-axioms"], {}, id="01_lifted_axioms"),
    pytest.param(2, "flip involution exact, projection identity",
                 ["flip-identities"], {}, id="02_flip_identities"),
    pytest.param(3, "local additions: round trip, normalization, lift",
                 ["local-addition"], {}, id="03_local_additions"),
    pytest.param(4, "tangent of push-forward matches nodewise derivative",
                 ["tangent-diagram"], {}, id="04_tangent_diagram"),
    pytest.param(5, "rank classifiers and local-inverse reconstruction",
                 ["pushforward-classifiers", "local-inverse"], {},
                 id="05_block_classifier_and_inverse"),
    pytest.param(6, "transitivity obstruction certificate, refinements",
                 ["not-tra-certificate"], {},
                 id="06_transitivity_obstruction"),
    pytest.param(7, "equicontinuity-failure certificate in one fiber",
                 ["not-proper-certificate"], {}, id="07_properness_failure"),
    pytest.param(8, "source invertible nodewise; fibers bounded by |group|",
                 ["proper-etale-lifting"], {"grid": GridSpec("circle", 16)},
                 id="08_etale_lifting"),
    pytest.param(9, "current bracket two ways; bracket laws",
                 ["theorem-D-pointwise-bracket", "algebroid-laws"], {},
                 id="09_pointwise_bracket"),
    pytest.param(10, "local action-groupoid form at the fixed point",
                 ["local-action-form"], {}, id="10_local_action_form"),
    # path-lifting runs on an interval grid of n // 4 = 24 nodes
    pytest.param(11, "orbit path lifting and the atlas obstruction",
                 ["path-lifting", "atlas-negative"],
                 {"grid": GridSpec("interval", 96)}, id="11_path_lifting"),
]


@pytest.mark.parametrize("num, description, suites, kwargs", CRITERIA)
def test_criterion(num, description, suites, kwargs):
    ctx = SuiteContext(seed=SEED, **kwargs)
    records = [r for sid in suites for r in run_suite(sid, ctx)]
    failed = [r.check_name for r in records
              if r.status not in ("pass", "obstructed-as-expected")]
    record_criterion(num, description, not failed,
                     max(r.max_residual for r in records))
    assert not failed


# Criterion 9's records at seed 7, the seed of the reference report:
# max_residual and every details value, numbers as float.hex.  Batching the
# brackets over samples and points must keep each of them to the bit.
PINNED_09_SEED_7 = {
    "theorem-D-pointwise-bracket/pair-real2": ("0x0.0p+0", {}),
    "theorem-D-pointwise-bracket/rot-action": ("0x0.0p+0", {}),
    "algebroid-laws/pair-real2": ("0x1.0000000000000p-46", {
        "antisymmetry": "0x0.0p+0", "jacobi": "0x1.0000000000000p-46",
        "leibniz": "0x1.0000000000000p-47", "anchor_morphism": "0x0.0p+0"}),
    "algebroid-laws/rot-action": ("0x1.8000000000000p-50", {
        "antisymmetry": "0x0.0p+0", "jacobi": "0x1.8000000000000p-50",
        "leibniz": "0x1.0000000000000p-50",
        "anchor_morphism": "0x1.0000000000000p-51"}),
    "algebroid-laws/sign-convention": ("0x0.0p+0", {
        "sign": "-0x1.0000000000000p+0",
        "note": "groupoid bracket vs algebra commutator"}),
}


def test_criterion_09_records_are_pinned_at_seed_7():
    ctx = SuiteContext(seed=7)
    records = [r for sid in ("theorem-D-pointwise-bracket", "algebroid-laws")
               for r in run_suite(sid, ctx)]
    got = {r.check_name: (r.max_residual.hex(),
                          {k: v.hex() if isinstance(v, float) else v
                           for k, v in r.details.items()})
           for r in records}
    assert got == PINNED_09_SEED_7


def test_criterion_12_determinism(tmp_path):
    from currentgpd.cli import main
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "seed": SEED,
        "suites": ["flip-identities", "pair-action-iso",
                   "not-tra-certificate", "not-proper-certificate",
                   "local-action-form", "atlas-negative"]}))
    texts = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        text = re.sub(r'"wall_time_ms": [0-9.e+-]+', '"wall_time_ms": 0',
                      out.read_text())
        texts.append(text)
    ok = texts[0] == texts[1]
    record_criterion(12, "re-runs byte-identical modulo timing fields", ok)
    assert ok
