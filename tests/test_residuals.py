"""The one residual reduction, and a guard that keeps it the only one."""

import ast
import math
import pathlib

import numpy as np

import currentgpd
from currentgpd.report import worst_residual


def test_a_nan_anywhere_makes_the_worst_residual_nan():
    nan = math.nan
    assert math.isnan(worst_residual(0.0, nan))
    assert math.isnan(worst_residual(nan, 1.0))
    assert math.isnan(worst_residual(2.0, np.array([[0.1, nan]]), 3.0))


def test_numbers_that_are_not_nan_keep_their_bits():
    rng = np.random.default_rng(0)
    parts = [rng.normal(size=(3, 4)), -0.1 * rng.random(), rng.normal(size=5),
             np.float64(-2.5e-16), 0]
    want = max(float(np.max(np.abs(p))) for p in parts)
    got = worst_residual(*parts)
    assert type(got) is float and got.hex() == want.hex()
    assert worst_residual() == 0.0 and worst_residual(np.empty((0, 2))) == 0.0


def builtin_accumulations(source):
    """Lines of ``x = max(x, ...)`` or ``x = min(x, ...)`` with the built-in."""
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Name)
                and node.value.func.id in ("max", "min")):
            continue
        target = ast.unparse(node.targets[0])
        if any(ast.unparse(a) == target for a in node.value.args):
            yield node.lineno


def test_the_guard_sees_builtin_accumulations():
    found = list(builtin_accumulations(
        "w = 0.0\nfor r in rs:\n    w = max(w, r)\n"
        "d[k] = min(1.0, d[k])\nv = np.maximum(v, r)\nu = max(a, b)\n"))
    assert sorted(found) == [3, 4]


def test_no_module_accumulates_with_the_builtin_max_or_min():
    root = pathlib.Path(currentgpd.__file__).parent
    hits = [f"{path.name}:{line}" for path in sorted(root.glob("*.py"))
            for line in builtin_accumulations(path.read_text())]
    assert not hits, f"use report.worst_residual instead: {hits}"
