from currentgpd.tolerances import DEFAULT

ACCEPTANCE_LINES = []


def close_to(p, q, tol=DEFAULT.tol_chart):
    """Whether two points of one manifold lie within tol of each other."""
    return float(p.manifold.distance(p.ambient, q.ambient)) < tol


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
