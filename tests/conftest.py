import importlib.util
import math
import pathlib

from currentgpd.tolerances import DEFAULT

NEVER_RUN = pathlib.Path(__file__).resolve().parents[1] / "tools/never_run.py"

ACCEPTANCE_LINES = []


def close_to(p, q, tol=DEFAULT.tol_chart):
    """Whether two points of one manifold lie within tol of each other."""
    return float(p.manifold.distance(p.ambient, q.ambient)) < tol


def angle_of(p):
    """The angle of a point of the circle."""
    return math.atan2(p.ambient[1], p.ambient[0])


def load_never_run():
    """``tools/never_run.py`` as a module, for its table and its golden
    report helpers; loading it traces nothing."""
    spec = importlib.util.spec_from_file_location("never_run", NEVER_RUN)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


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
