import importlib.util
import math
import pathlib

import numpy as np

from currentgpd.tolerances import DEFAULT

TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"
NEVER_RUN = TOOLS / "never_run.py"

ACCEPTANCE_LINES = []


def close_to(p, q, tol=DEFAULT.tol_chart):
    """Whether two points of one manifold lie within tol of each other."""
    return float(p.manifold.distance(p.ambient, q.ambient)) < tol


def angle_of(p):
    """The angle of a point of the circle."""
    return math.atan2(p.ambient[1], p.ambient[0])


def sigma_rows(add, base, vel):
    """add.sigma on all rows at once; each row must get the bits it gets
    alone."""
    out = add.sigma(base, vel)
    for b, v, o in zip(base, vel, out):
        assert np.array_equal(add.sigma(b, v), o)
    return out


def stacked_rows(m, base, fn, *rows):
    """fn(p, *rows) once on the stacked Point p of the (n, m) base rows, as
    n results; each row must get the bits fn gives it alone."""
    out = fn(m.point_from_ambient(base), *rows)
    for i, o in enumerate(out):
        alone = fn(m.point_from_ambient(base[i]), *(r[i] for r in rows))
        assert np.array_equal(o, alone)
    return out


def inverse_rows(add, base, q):
    """add.theta_inverse once on all base rows, as ambient velocity rows;
    each row must get the bits it gets alone."""
    return stacked_rows(add.manifold, base,
                        lambda p, q: add.theta_inverse(p, q).ambient_vel(), q)


def load_tool(name):
    """``tools/<name>.py`` as a module, for its tables and helpers; loading
    it runs nothing (``never_run`` traces nothing, ``seed_sweep`` sweeps
    nothing)."""
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def record_criterion(num, description, ok, residual=None):
    tail = "" if residual is None else f" (max residual {residual:.3e})"
    line = f"criterion {num:>2}: {description:<58s} {'PASS' if ok else 'FAIL'}{tail}"
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
