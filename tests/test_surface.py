"""The package carries no code that only tests call, and no unused import.

A definition counts as called when its name appears in a module of the
package other than ``__init__.py``, or in ``perfbench/``: as a name, an
attribute, an imported name, or a string (the benchmark's tracer patches
functions by name).  A top-level function counts only where the name can
refer to it: as a name loaded in its own module, an imported name, an
attribute of its module (``ad.jvp``) or a string; a method or a local
variable of the same name elsewhere does not call it.  Tests do not count;
a helper that only a test calls belongs in that test.
"""

import ast
import pathlib

import currentgpd

PACKAGE = pathlib.Path(currentgpd.__file__).parent
PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"

# Definitions with no caller in the package, each kept for a reason.
KEEP = {
    "fd_jacobian": "the finite-difference reference tests compare AD against",
    "classify_etale": "input to a planned property-inheritance suite "
                      "(Theorems C and E)",
    "classify_locally_transitive": "input to a planned property-inheritance "
                                   "suite (Theorems C and E)",
    "current_anchor_rank_nodes": "input to a planned property-inheritance "
                                 "suite (Theorems C and E)",
    "chart_phi": "the paper's chart of C^l(K, M); tests check it",
    "chart_phi_inverse": "the inverse chart of C^l(K, M); tests check it",
    "second_tangent_map": "T^2 f on second tangents; tests check it",
    "restriction_subgroupoid": "restriction to an open subgroupoid; tests "
                               "check it",
    "lie_group_local_addition": "the local addition of a Lie group; tests "
                                "check it",
    "circle_group": "the group that lie_group_local_addition is checked on",
}


def definitions(tree):
    """Top-level functions and classes, and the non-dunder methods of each
    class, as (name, qualified name); a top-level function's qualified name
    is its name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if (isinstance(sub, ast.FunctionDef)
                        and not (sub.name.startswith("__")
                                 and sub.name.endswith("__"))):
                    yield sub.name, f"{node.name}.{sub.name}"


def named(tree):
    """Every identifier a module mentions."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def function_uses(tree, home, own):
    """Names by which a module can use a top-level function of module
    ``home``; ``own`` says whether the module is ``home`` itself."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if own and isinstance(node.ctx, ast.Load):
                yield node.id
        elif isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == home:
                yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def unused_imports(tree):
    """Names a module imports and never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                imported[bound] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in read)


def parsed(paths):
    return {path: ast.parse(path.read_text()) for path in paths}


def test_the_scans_see_what_they_look_for():
    tree = ast.parse(
        "import os\nimport numpy as np\nfrom . import ad\n"
        "class A:\n    def __init__(self):\n        pass\n"
        "    def m(self):\n        return np.pi\n"
        "def f():\n    return ad.value(getattr(A, 'g'))\n")
    assert list(definitions(tree)) == [("A", "A"), ("m", "A.m"), ("f", "f")]
    assert {"np", "ad", "value", "A", "g", "os"} <= set(named(tree))
    assert unused_imports(tree) == ["os (line 1)"]
    # a method call, an attribute of another module or a local name is no
    # use of a top-level function elsewhere; a load in its own module is
    other = ast.parse("def k(x, ad, m):\n    f = m.f\n    g = x.g(f)\n"
                      "    return ad.h, mod.i, 'j', g\n")
    assert set(function_uses(other, "mod", own=False)) == {"i", "j"}
    assert {"f", "g", "i"} <= set(function_uses(other, "mod", own=True))


def test_every_definition_has_a_caller_outside_the_tests():
    modules = parsed(sorted(PACKAGE.glob("*.py")))
    callers = parsed(sorted(PERFBENCH.glob("*.py")))
    assert callers, f"no benchmark sources under {PERFBENCH}"
    callers.update((p, t) for p, t in modules.items()
                   if p.name != "__init__.py")
    used = {name for tree in callers.values() for name in named(tree)}
    orphans = []
    for path, tree in modules.items():
        functions = {node.name for node in tree.body
                     if isinstance(node, ast.FunctionDef)}
        calls = {name for caller, t in callers.items()
                 for name in function_uses(t, path.stem, caller == path)}
        orphans += [f"{path.name}: {qual}" for name, qual in definitions(tree)
                    if name not in KEEP
                    and name not in (calls if qual in functions else used)]
    assert not orphans, f"only tests call these; delete or use them: {orphans}"
    stale = sorted(set(KEEP) - {name for tree in modules.values()
                                for name, _ in definitions(tree)})
    assert not stale, f"KEEP names definitions that are gone: {stale}"


def test_no_module_imports_a_name_it_does_not_use():
    hits = [f"{path.name}: {entry}"
            for path, tree in parsed(sorted(PACKAGE.glob("*.py"))).items()
            for entry in unused_imports(tree)]
    assert not hits, f"unused imports: {hits}"
