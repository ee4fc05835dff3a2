"""The package carries no code, state or option that nothing uses.

The callers are the modules of the package other than ``__init__.py``, and
``perfbench/``.  Tests do not count as callers: a helper that only a test
calls belongs in that test.  Five scans:

- Definitions.  A top-level function counts as used through a name loaded
  in its own module, an imported name or an attribute of its module
  (``ad.jvp``), and a method through an attribute access; either also
  through a string in ``perfbench/`` (the benchmark's tracer patches
  functions and methods by name).  A local variable, a method of another
  class or a string of the package that shares the name does not count.
  A class counts through any mention.
- Stored attributes.  Every attribute the package stores (``x.a = ...``),
  and every annotated field of a dataclass, is read by a caller: as an
  attribute, as a string handed to ``getattr`` or ``hasattr``, or as a
  string in ``perfbench/``.  A read that only feeds the keyword of the same
  name, as in ``f(a=x.a * 0.9)``, does not count: it only copies the
  attribute into another object's.
- Module tables.  Every module-level name is loaded in its own module,
  imported by a caller, or read as ``module.NAME``.  A load inside the
  name's own assignment does not count.
- Parameters.  Every defaulted parameter of a top-level function or a
  method is set by some call of a caller.
  A call is matched to a definition by name: a function by its name, a
  method by the attribute it is called through, and ``__init__`` by its
  class or by ``super().__init__`` in a subclass (a call of a subclass
  that inherits it is missed, so the scan errs towards flagging).  A call
  sets a parameter by keyword, by a position past it (not counting
  ``self``), or through ``*args`` or ``**kwargs``.  A default read from
  ``DEFAULT`` is a tolerance, which the run configuration sets, and is
  exempt.
- Imports.  No module imports a name it does not use.

The line tracer ``tools/never_run.py`` finds what these scans cannot: code
that no run reaches.  It is too slow for this suite, so only the keys of
its table are checked here, against the code that exists, without tracing.

What is kept without a use has one entry, with one reason, in the one
table ``KEEP`` of ``tools/never_run.py``: a function as
``module:qualname``, a dataclass field as ``module:Class.field`` and a
parameter as ``module:function(parameter)``.  A top-level function or a
method that nothing calls is kept when its reason is one of
``NO_CALLER``, and only while nothing calls it.
"""

import ast
import pathlib

from conftest import NEVER_RUN, load_tool

import currentgpd

PACKAGE = pathlib.Path(currentgpd.__file__).parent
PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
TESTS = pathlib.Path(__file__).resolve().parent

TRACER = load_tool("never_run")
KEEP = TRACER.KEEP


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


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
                        and not is_dunder(sub.name)):
                    yield sub.name, f"{node.name}.{sub.name}"


def strings(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def named(tree):
    """Every identifier a module mentions."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
    yield from strings(tree)


def reads(tree, home, own):
    """Names by which a module can read a top-level name of module ``home``,
    a function or a table; ``own`` says whether the module is ``home``
    itself.  A load inside the top-level assignment of the same name, as in
    ``exp = lift(lambda x: exp(x))``, does not count: only that assignment
    reaches it."""
    for stmt in tree.body:
        assigns = set(assigned(stmt))
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                if (own and isinstance(node.ctx, ast.Load)
                        and node.id not in assigns):
                    yield node.id
            elif isinstance(node, ast.Attribute):
                if isinstance(node.value, ast.Name) and node.value.id == home:
                    yield node.attr
            elif isinstance(node, ast.alias):
                yield node.name.rpartition(".")[2]


def attribute_loads(tree):
    """Attributes a module reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def state_reads(tree):
    """Attributes a module reads, except a read that only feeds the keyword
    of the same name in a call, as ``a`` in ``f(a=x.a * 0.9)``."""
    copies = {id(sub) for node in ast.walk(tree)
              if isinstance(node, ast.keyword)
              for sub in ast.walk(node.value)
              if isinstance(sub, ast.Attribute) and sub.attr == node.arg}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and id(node) not in copies):
            yield node.attr


def attribute_stores(tree):
    """Attributes a module stores, as (attribute, line)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            yield node.attr, node.lineno


def dataclass_fields(tree):
    """Annotated fields of each dataclass a module defines, as (field,
    "Class.field", line)."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if not any(getattr(getattr(d, "func", d), "id", None) == "dataclass"
                   for d in node.decorator_list):
            continue
        for sub in node.body:
            if (isinstance(sub, ast.AnnAssign)
                    and isinstance(sub.target, ast.Name)):
                yield sub.target.id, f"{node.name}.{sub.target.id}", sub.lineno


def looked_up(tree):
    """Strings a module hands to ``getattr`` or ``hasattr``."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("getattr", "hasattr")
                and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)):
            yield node.args[1].value


def assigned(stmt):
    """Names a statement assigns, dunders aside."""
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        targets = [stmt.target]
    else:
        return
    for target in targets:
        for sub in ast.walk(target):
            if isinstance(sub, ast.Name) and not is_dunder(sub.id):
                yield sub.id


def module_names(tree):
    """Names a module assigns at its top level, dunders aside."""
    for node in tree.body:
        yield from assigned(node)


def defaulted_parameters(fn, bound):
    """(name, position) of each defaulted parameter of fn whose default is
    not read from ``DEFAULT``.  The position is the index of the argument
    a call passes it as (past ``self`` when ``bound``), None for a
    keyword-only parameter."""
    args = fn.args
    pos = args.posonlyargs + args.args
    first = len(pos) - len(args.defaults)
    params = [(a.arg, i - bound, d) for i, (a, d)
              in enumerate(zip(pos[first:], args.defaults), first)]
    params += [(a.arg, None, d)
               for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
    for name, at, default in params:
        if not (isinstance(default, ast.Attribute)
                and isinstance(default.value, ast.Name)
                and default.value.id == "DEFAULT"):
            yield name, at


def callables(defined):
    """(module:qualified name, def, call names, whether a call passes self)
    for each top-level function and method of the modules ``defined``, a
    dict from module name to tree; the call names are those of
    :func:`calls_by_name`."""
    for home, tree in defined.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                names = {node.name, f"{home}.{node.name}"}
                yield f"{home}:{node.name}", node, names, False
            for sub in node.body if isinstance(node, ast.ClassDef) else ():
                if not isinstance(sub, ast.FunctionDef):
                    continue
                names = ({node.name, f"{home}.{node.name}",
                          f"super:{node.name}"}
                         if sub.name == "__init__" else {f".{sub.name}"})
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in sub.decorator_list)
                yield (f"{home}:{node.name}.{sub.name}", sub, names,
                       not static)


def calls_by_name(trees):
    """Every call under each name its callee can have: ``f`` for
    ``f(...)``; ``.m`` and ``x.m`` for ``x.m(...)``; and ``super:B`` for
    ``super().__init__(...)`` in a class with base B."""
    out = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for call in ast.walk(node):
                    if not isinstance(call, ast.Call):
                        continue
                    f = call.func
                    if (isinstance(f, ast.Attribute) and f.attr == "__init__"
                            and isinstance(f.value, ast.Call)
                            and getattr(f.value.func, "id", None) == "super"):
                        for b in node.bases:
                            key = f"super:{getattr(b, 'id', None)}"
                            out.setdefault(key, []).append(call)
            elif isinstance(node, ast.Call):
                f = node.func
                keys = []
                if isinstance(f, ast.Name):
                    keys.append(f.id)
                elif isinstance(f, ast.Attribute):
                    keys.append(f".{f.attr}")
                    if isinstance(f.value, ast.Name):
                        keys.append(f"{f.value.id}.{f.attr}")
                for key in keys:
                    out.setdefault(key, []).append(node)
    return out


def passes(call, name, at):
    """Whether a call sets the parameter ``name`` at position ``at``."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    return at is not None and (
        len(call.args) > at
        or any(isinstance(a, ast.Starred) for a in call.args))


def unset_parameters(defined, calling):
    """Defaulted parameters of the modules ``defined`` (a dict from module
    name to tree) that no call in the trees ``calling`` sets, as
    "module:qualified(parameter)"."""
    calls = calls_by_name(calling)
    out = []
    for qual, fn, names, bound in callables(defined):
        reach = [c for key in names for c in calls.get(key, [])]
        out += [f"{qual}({name})"
                for name, at in defaulted_parameters(fn, bound)
                if not any(passes(c, name, at) for c in reach)]
    return out


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


def is_caller(path):
    """Whether the source file ``path`` counts as a caller: tests and the
    package's ``__init__.py`` do not."""
    return TESTS not in path.parents and path != PACKAGE / "__init__.py"


def sources():
    """(package modules, callers, benchmark modules)."""
    modules = parsed(sorted(PACKAGE.glob("*.py")))
    bench = parsed(sorted(PERFBENCH.glob("*.py")))
    assert bench, f"no benchmark sources under {PERFBENCH}"
    callers = {p: t for p, t in {**bench, **modules}.items() if is_caller(p)}
    return modules, callers, bench


def test_the_scans_see_what_they_look_for():
    tree = ast.parse(
        "import os\nimport numpy as np\nfrom . import ad\n"
        "class A:\n    def __init__(self):\n        pass\n"
        "    def m(self):\n        return np.pi\n"
        "def f():\n    return ad.value(getattr(A, 'g'))\n")
    assert list(definitions(tree)) == [("A", "A"), ("m", "A.m"), ("f", "f")]
    assert {"np", "ad", "value", "A", "g", "os"} <= set(named(tree))
    assert unused_imports(tree) == ["os (line 1)"]
    # a method call, an attribute of another module, a local name or a
    # string is no use of a top-level function elsewhere; a load at home is
    other = ast.parse("def k(x, ad, m):\n    f = m.f\n    g = x.g(f)\n"
                      "    return ad.h, mod.i, 'j', g\n")
    assert set(reads(other, "mod", own=False)) == {"i"}
    assert {"f", "g", "i"} <= set(reads(other, "mod", own=True))
    # a method is used through an attribute, not a local name or a string
    calls = ast.parse("def k(x):\n    at = 1\n    return x.m(at), 'n'\n")
    assert set(attribute_loads(calls)) == {"m"}
    # a stored attribute is read by a load or a getattr/hasattr string
    state = ast.parse("def k(x):\n    x.a = x.b = 1\n    x.c += 1\n"
                      "    return x.a, getattr(x, 'b'), 'c'\n")
    assert {a for a, _ in attribute_stores(state)} == {"a", "b", "c"}
    assert {"a", "b"} <= set(attribute_loads(state)) | set(looked_up(state))
    assert "c" not in set(attribute_loads(state)) | set(looked_up(state))
    # a read that only feeds the keyword of the same name is no read of the
    # state; one that feeds another keyword is
    copied = ast.parse("def k(x, y):\n"
                       "    return C(r=x.r * 0.9, s=min(a.s for a in y),\n"
                       "             t=x.u, u=x.t)\n")
    assert {"r", "s", "t", "u"} <= set(attribute_loads(copied))
    assert set(state_reads(copied)) == {"t", "u"}
    # the annotated fields of a dataclass, with or without arguments, are
    # stored attributes; a plain class's annotations are not
    fields = ast.parse("@dataclass\nclass D:\n    a: int\n    b: int = 0\n"
                       "    c = 1\n@dataclass(frozen=True)\nclass E:\n"
                       "    d: int\nclass F:\n    e: int\n")
    assert list(dataclass_fields(fields)) == [
        ("a", "D.a", 3), ("b", "D.b", 4), ("d", "E.d", 8)]
    # a module-level name is read by a load at home, an import or mod.NAME
    table = ast.parse("T, U = 1, 2\nV: int = 3\n__all__ = []\n"
                      "def k():\n    return U\n")
    assert list(module_names(table)) == ["T", "U", "V"]
    assert set(reads(table, "mod", own=True)) & {*"TUV"} == {"U"}
    reader = ast.parse("from mod import V\nx = mod.T\ny = U\n")
    assert set(reads(reader, "mod", own=False)) == {"V", "T"}
    # a name read only inside its own assignment is not read; names that
    # read each other are
    lifted = ast.parse("exp = lift(lambda x: exp(x))\n"
                       "sin = lift(lambda x: cos(x))\n"
                       "cos = lift(lambda x: -sin(x))\n")
    assert set(reads(lifted, "mod", own=True)) == {"lift", "x", "sin", "cos"}
    # a parameter is set by keyword, by a position past it or by unpacking;
    # a method's position skips self, __init__ is reached through its class
    # and super().__init__, and a method call x.f does not reach f
    defs = ast.parse(
        "def f(a, b=1, c=2, *, d=DEFAULT.tol, e=3):\n    pass\n"
        "class C:\n    def __init__(self, p=0, q=0):\n        pass\n"
        "    def m(self, r=0, s=0):\n        pass\n"
        "class E(C):\n    def __init__(self):\n"
        "        super().__init__(1)\n")
    home = {"mod": defs}
    assert unset_parameters(home, [ast.parse("x.f(0, 1, 2, e=4)\n")]) == [
        "mod:f(b)", "mod:f(c)", "mod:f(e)", "mod:C.__init__(p)",
        "mod:C.__init__(q)", "mod:C.m(r)", "mod:C.m(s)"]
    used = ast.parse("mod.f(0, 1)\nf(0, e=4)\nmod.C(0, 1)\nx.m(*a)\n")
    assert unset_parameters(home, [used]) == ["mod:f(c)"]
    assert unset_parameters(home, [defs, ast.parse("y.m(0)\n")]) == [
        "mod:f(b)", "mod:f(c)", "mod:f(e)", "mod:C.__init__(q)",
        "mod:C.m(s)"]
    # a call in a test sets nothing: tests are not callers
    calling = {PACKAGE / "mod.py": ast.parse("f(0, 1)\n"),
               TESTS / "test_mod.py": used}
    assert unset_parameters(
        home, [t for p, t in calling.items() if is_caller(p)]) == [
        "mod:f(c)", "mod:f(e)", "mod:C.__init__(p)", "mod:C.__init__(q)",
        "mod:C.m(r)", "mod:C.m(s)"]


def test_every_definition_has_a_caller_outside_the_tests():
    modules, callers, bench = sources()
    used = {name for tree in callers.values() for name in named(tree)}
    patched = {s for tree in bench.values() for s in strings(tree)}
    methods = patched | {a for tree in callers.values()
                         for a in attribute_loads(tree)}
    defined, uncalled = set(), set()
    for path, tree in modules.items():
        functions = {node.name for node in tree.body
                     if isinstance(node, ast.FunctionDef)}
        calls = patched | {name for caller, t in callers.items()
                           for name in reads(t, path.stem, caller == path)}
        for name, qual in definitions(tree):
            uses = (calls if qual in functions else
                    methods if "." in qual else used)
            defined.add(f"{path.stem}:{qual}")
            if name not in uses:
                uncalled.add(f"{path.stem}:{qual}")
    kept = {key for key, (_, why) in KEEP.items()
            if why in TRACER.NO_CALLER and key in defined}
    orphans = sorted(uncalled - kept)
    assert not orphans, f"only tests call these; delete or use them: {orphans}"
    called = sorted(kept - uncalled)
    assert not called, f"KEEP says nothing calls these, but something " \
                       f"does; give each another reason: {called}"


def test_every_stored_attribute_is_read():
    modules, callers, bench = sources()
    read = ({a for tree in callers.values() for a in state_reads(tree)}
            | {s for tree in callers.values() for s in looked_up(tree)}
            | {s for tree in bench.values() for s in strings(tree)})
    unread = [f"{path.name}:{line} {attr}"
              for path, tree in modules.items()
              for attr, line in attribute_stores(tree) if attr not in read]
    unread += [f"{path.name}:{line} {qual}"
               for path, tree in modules.items()
               for name, qual, line in dataclass_fields(tree)
               if name not in read and f"{path.stem}:{qual}" not in KEEP]
    assert not unread, f"stored, never read; delete them: {unread}"


def test_every_module_level_name_is_read():
    modules, callers, _ = sources()
    unread = []
    for path, tree in modules.items():
        read = {name for caller, t in callers.items()
                for name in reads(t, path.stem, caller == path)}
        unread += [f"{path.name}: {name}" for name in module_names(tree)
                   if name not in read and f"{path.stem}:{name}" not in KEEP]
    assert not unread, f"module-level names nothing reads: {unread}"


def test_every_defaulted_parameter_is_set_by_some_call():
    modules, callers, _ = sources()
    unset = unset_parameters(
        {path.stem: tree for path, tree in modules.items()},
        callers.values())
    assert not [p for p in unset if p not in KEEP], (
        f"no call sets these parameters; make each a constant: "
        f"{[p for p in unset if p not in KEEP]}")
    stale = sorted({key for key in KEEP if key.endswith(")")} - set(unset))
    assert not stale, f"KEEP names parameters now set or gone: {stale}"


def test_no_module_imports_a_name_it_does_not_use():
    hits = [f"{path.name}: {entry}"
            for path, tree in parsed(sorted(PACKAGE.glob("*.py"))).items()
            for entry in unused_imports(tree)]
    assert not hits, f"unused imports: {hits}"


def test_the_line_tracer_allows_only_functions_that_exist():
    """Every key of the table names a function, a field or a module-level
    name that exists; a parameter key is checked with the parameters."""
    modules, _, _ = sources()
    assert KEEP, f"no KEEP entries in {NEVER_RUN.name}"
    known = {f"{path.stem}:{code.co_qualname}"
             for path in modules for code in TRACER.function_codes(path)}
    named_here = {f"{path.stem}:{name}" for path, tree in modules.items()
                  for name in [*module_names(tree),
                               *(q for _, q, _ in dataclass_fields(tree))]}
    stale = sorted(key for key, (lines, _) in KEEP.items()
                   if not key.endswith(")")
                   and key not in (known if lines else named_here))
    assert not stale, f"KEEP in {NEVER_RUN.name} names code that is gone: " \
                      f"{stale}"
