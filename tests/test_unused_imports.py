"""No module in src/, tests/ or tools/ imports a name it never uses, no
function in src/ imports from a module that its file imports at module level
or that README "Cold start" does not let it load lazily, no private helper
in src/ is left without a reference, no definition in src/ is left without a
caller outside the tests, no parameter with a default in src/ is left that no
caller outside the tests passes, and no module in src/ reads another's
private name.

A name counts as used when the module references it anywhere or lists it in
``__all__``.  Package ``__init__.py`` files re-export by importing, and
imports under ``if TYPE_CHECKING:`` serve annotations only, so both are left
out; so is ``from __future__ import ...``.  A ``TYPE_CHECKING`` import is not
a module-level import either, so a function that imports its module at run
time does not repeat it.
"""

import ast
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _modules(tops=("src", "tests", "tools"), init=False):
    for top in tops:
        for folder, _, files in os.walk(os.path.join(ROOT, top)):
            for name in sorted(files):
                if name.endswith(".py") and (init or name != "__init__.py"):
                    yield os.path.relpath(os.path.join(folder, name), ROOT)


def _is_type_checking(test):
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")


def _type_checking_ids(tree):
    """ids of the nodes under an ``if TYPE_CHECKING:``."""
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            skipped.update(id(n) for stmt in node.body for n in ast.walk(stmt))
    return skipped


def unused_imports(source):
    """(line, name) of every imported name the module never references."""
    tree = ast.parse(source)
    skipped = _type_checking_ids(tree)
    imported = []
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, bound))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return [(line, name) for line, name in imported if name not in used]


def _sources(node):
    """The modules an import reads from; ``from . import m`` reads from ``.m``."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    dots = "." * node.level
    if node.module is None:
        return [dots + alias.name for alias in node.names]
    return [dots + node.module]


def redundant_local_imports(source):
    """(line, module) of every import below module level from a module that
    the file already imports at module level."""
    tree = ast.parse(source)
    skipped = _type_checking_ids(tree)
    top = {id(stmt) for stmt in tree.body}
    at_module_level = {m for stmt in tree.body if isinstance(stmt, (ast.Import, ast.ImportFrom))
                       for m in _sources(stmt)}
    return sorted((node.lineno, m) for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  and id(node) not in top and id(node) not in skipped
                  for m in _sources(node) if m in at_module_level)


# README "Cold start": what a function may load on first use
LAZY_MODULES = {".markov", ".montecarlo"}


def unlisted_local_imports(source):
    """(line, module) of every import below module level from a module that
    a function may not load lazily: anything but ``LAZY_MODULES``, and
    ``importlib`` outside the module ``__getattr__`` that resolves the
    package's names."""
    tree = ast.parse(source)
    allowed = {id(node): {"importlib"} for stmt in tree.body
               if isinstance(stmt, ast.FunctionDef) and stmt.name == "__getattr__"
               for node in ast.walk(stmt)}
    skipped = _type_checking_ids(tree)
    top = {id(stmt) for stmt in tree.body}
    return sorted((node.lineno, m) for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  and id(node) not in top and id(node) not in skipped
                  for m in _sources(node)
                  if m not in LAZY_MODULES | allowed.get(id(node), set()))


@pytest.mark.parametrize("relpath", list(_modules()))
def test_no_unused_imports(relpath):
    with open(os.path.join(ROOT, relpath)) as f:
        assert unused_imports(f.read()) == []


@pytest.mark.parametrize("relpath", list(_modules(("src",))))
def test_no_local_import_repeats_a_module_level_one(relpath):
    with open(os.path.join(ROOT, relpath)) as f:
        assert redundant_local_imports(f.read()) == []


@pytest.mark.parametrize("relpath", list(_modules(("src",), init=True)))
def test_functions_import_only_what_may_load_lazily(relpath):
    with open(os.path.join(ROOT, relpath)) as f:
        assert unlisted_local_imports(f.read()) == []


def test_lazy_import_detector_allows_only_the_listed_modules():
    source = (
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    import numpy as np\n"
        "    import decimal\n"
        "def __getattr__(name):\n"
        "    from importlib import import_module\n"
        "    return import_module(name)\n"
        "def f():\n"
        "    import numpy as np\n"
        "    from . import markov as M, montecarlo as MC\n"
        "    from .paths import dual\n"
        "    from itertools import product\n"
        "    import importlib\n"
        "    return np, M, MC, dual, product, importlib\n"
    )
    assert unlisted_local_imports(source) == [(9, "numpy"), (11, ".paths"),
                                              (12, "itertools"), (13, "importlib")]


def test_detector_sees_unused_and_skips_the_exempt():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from typing import TYPE_CHECKING\n"
        "from json import dumps as d\n"
        "if TYPE_CHECKING:\n"
        "    import decimal\n"
        "__all__ = ['sys']\n"
        "print(os.sep)\n"
    )
    assert unused_imports(source) == [(4, "d")]


def test_local_import_detector_keys_on_the_source_module():
    source = (
        "from typing import TYPE_CHECKING\n"
        "from . import paths as P\n"
        "from .exact import add\n"
        "if TYPE_CHECKING:\n"
        "    import numpy as np\n"
        "def f():\n"
        "    import numpy as np\n"
        "    from . import markov as M\n"
        "    from .exact import sub\n"
        "    from .paths import dual\n"
        "    from itertools import product\n"
        "    return np, M, sub, dual, product, add, P\n"
    )
    assert redundant_local_imports(source) == [(9, ".exact"), (10, ".paths")]


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_nodes(func):
    """The nodes of a function's body, those of the functions nested in it
    left out."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def dead_locals(source):
    """(line, name) of every name a function assigns, loop targets included,
    that neither it nor a function nested in it reads; ``_`` is exempt, and so
    is a name the function declares ``global`` or ``nonlocal``."""
    out = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, _FUNCTIONS):
            continue
        own = list(_own_nodes(func))
        shared = {name for node in own if isinstance(node, (ast.Global, ast.Nonlocal))
                  for name in node.names}
        read = {node.id for node in ast.walk(func)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        out.extend((node.lineno, node.id) for node in own
                   if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                   and node.id != "_" and node.id not in shared and node.id not in read)
    return sorted(set(out))


@pytest.mark.parametrize("relpath", list(_modules(("src",), init=True)))
def test_no_dead_local_in_src(relpath):
    assert dead_locals(_read(relpath)) == []


def test_dead_local_detector_sees_a_leftover():
    source = (
        "def f(xs):\n"
        "    zero = 0\n"
        "    total = 0\n"
        "    for _, x in xs:\n"
        "        total += x\n"
        "    for k, mult in xs:\n"
        "        seen = k\n"
        "    def g():\n"
        "        inner = 1\n"
        "        return total\n"
        "    return g, [y for y, z in xs]\n"
        "def h():\n"
        "    global state\n"
        "    state = 1\n"
    )
    assert dead_locals(source) == [(2, "zero"), (6, "mult"), (7, "seen"), (9, "inner"),
                                   (11, "z")]


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def unreferenced_private(sources):
    """(path, name) of every private module-level function, class or assigned
    name, and every private method of a module-level class, that no ``Name``
    or ``Attribute`` loads anywhere in ``sources`` (a {path: source} dict)."""
    trees = {path: ast.parse(source) for path, source in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    defs = []
    for path, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defs.append((path, stmt.name))
            if isinstance(stmt, ast.ClassDef):
                defs.extend((path, f.name) for f in stmt.body if isinstance(f, ast.FunctionDef))
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                defs.extend((path, t.id) for target in targets for t in ast.walk(target)
                            if isinstance(t, ast.Name))
    return sorted((path, name) for path, name in defs if _is_private(name) and name not in used)


def test_no_unreferenced_private_helper_in_src():
    sources = {}
    for relpath in _modules(("src",), init=True):
        with open(os.path.join(ROOT, relpath)) as f:
            sources[relpath] = f.read()
    assert unreferenced_private(sources) == []


def test_private_helper_detector_sees_a_leftover():
    sources = {
        "a.py": ("_TABLE = {}\n"
                 "def _monomial(x):\n    return x\n"
                 "def _used(x):\n    return _TABLE.get(x)\n"
                 "class C:\n"
                 "    def __init__(self):\n        self._cache = _used(1)\n"
                 "    def _stale(self):\n        return self._cache\n"
                 "    def _called(self):\n        return 0\n"),
        "b.py": "from a import C\nC()._called()\n",
    }
    assert unreferenced_private(sources) == [("a.py", "_monomial"), ("a.py", "_stale")]


def _definitions(tree):
    """Module-level functions and classes, and the methods of module-level
    classes, dunders aside, as (name, node) pairs."""
    out = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            out.append((stmt.name, stmt))
        if isinstance(stmt, ast.ClassDef):
            out.extend((f.name, f) for f in stmt.body if isinstance(f, ast.FunctionDef))
    return [(name, node) for name, node in out
            if not (name.startswith("__") and name.endswith("__"))]


def _loads(tree):
    """(name, node id) of every ``Name`` and ``Attribute`` the tree loads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, id(node)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, id(node)


def target_names(spans_source):
    """The names in the attribute strings of ``TARGETS``, such as
    ``CharacterAlgebra`` and ``psi`` from "CharacterAlgebra.psi"."""
    names = set()
    for node in ast.walk(ast.parse(spans_source)):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            for entry in node.value.elts:
                names.update(entry.elts[1].value.split("."))
    return names


def backticked_names(markdown):
    """Every identifier inside a backtick span of the markdown text."""
    return {name for span in re.findall(r"`([^`\n]+)`", markdown)
            for name in re.findall(r"[A-Za-z_]\w*", span)}


def uncalled_definitions(sources, outside=(), named=frozenset()):
    """(path, name) of every definition in ``sources`` (a {path: source} dict)
    that nothing loads: not ``sources`` outside the definition's own body, not
    the ``outside`` sources, and that is not in ``named``."""
    trees = {path: ast.parse(source) for path, source in sources.items()}
    loads = [pair for tree in trees.values() for pair in _loads(tree)]
    used = named | {name for source in outside for name, _ in _loads(ast.parse(source))}
    out = []
    for path, tree in trees.items():
        for name, node in _definitions(tree):
            if name in used:
                continue
            own = {id(n) for n in ast.walk(node)}
            if not any(load == name and nid not in own for load, nid in loads):
                out.append((path, name))
    return sorted(out)


def _read(relpath):
    with open(os.path.join(ROOT, relpath)) as f:
        return f.read()


def test_every_definition_in_src_has_a_caller():
    """A function, class or method of src/ that only the tests call belongs in
    tests/oracles.py.  A definition counts as called when src/ loads it outside
    its own body, perfbench/ or tools/ loads it or wraps it in ``TARGETS``, the
    package exports it, or README names it in backticks."""
    import weylwalk

    sources = {relpath: _read(relpath) for relpath in _modules(("src",), init=True)}
    outside = [_read(relpath) for relpath in _modules(("perfbench", "tools"))]
    named = (target_names(_read(os.path.join("perfbench", "spans.py")))
             | set(weylwalk.__all__) | backticked_names(_read("README.md")))
    assert uncalled_definitions(sources, outside, frozenset(named)) == []


def test_uncalled_definition_detector_sees_a_leftover():
    sources = {
        "a.py": ("def helper(x):\n    return x\n"
                 "def recursive(n):\n    return recursive(n - 1) if n else 0\n"
                 "def exported():\n    return 1\n"
                 "class C:\n"
                 "    def __len__(self):\n        return 0\n"
                 "    def used(self):\n        return helper(1)\n"
                 "    def oracle_only(self):\n        return self.used()\n"
                 "    def wrapped(self):\n        return 0\n"),
        "b.py": "from a import C\n",
    }
    outside = ["import a\na.C().used\n"]
    named = target_names("TARGETS = (('a', 'C.wrapped', 'a.wrapped', None, None),)\n")
    named |= backticked_names("Call `exported()` once.\n") | {"C"}
    assert uncalled_definitions(sources, outside, frozenset(named)) == [
        ("a.py", "oracle_only"), ("a.py", "recursive")]


def _defaulted_parameters(func, method):
    """(position, name) of every parameter of ``func`` with a default.  The
    position counts the values a call passes, so it leaves out the ``self``
    of a method that is not a ``staticmethod``; it is None for a keyword-only
    parameter."""
    args = func.args
    positional = args.posonlyargs + args.args
    bound = int(method and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                   for d in func.decorator_list))
    first = len(positional) - len(args.defaults)
    out = [(k - bound, p.arg) for k, p in enumerate(positional) if k >= first]
    out.extend((None, p.arg) for p, d in zip(args.kwonlyargs, args.kw_defaults)
               if d is not None)
    return out


def unpassed_defaults(sources, callers):
    """(path, function, parameter) of every parameter with a default, of a
    module-level function or a method of a module-level class in ``sources``
    (a {path: source} dict), that no call in ``callers`` passes: by keyword,
    by position, or through ``*`` or ``**``.  A call matches a definition by
    the name it calls, the class name for ``__init__``; other dunders are
    left out."""
    calls = {}
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                calls.setdefault(name, []).append(node)
    out = []
    for path, source in sources.items():
        tree = ast.parse(source)
        funcs = [(stmt, stmt.name, stmt.name, False) for stmt in tree.body
                 if isinstance(stmt, ast.FunctionDef)]
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                funcs.extend((f, cls.name if f.name == "__init__" else f.name,
                              f"{cls.name}.{f.name}", True) for f in cls.body
                             if isinstance(f, ast.FunctionDef)
                             and (f.name == "__init__" or not f.name.startswith("__")))
        for func, called_as, shown, method in funcs:
            sites = calls.get(called_as, [])
            for position, name in _defaulted_parameters(func, method):
                if not any(any(isinstance(a, ast.Starred) for a in call.args)
                           or any(k.arg in (name, None) for k in call.keywords)
                           or (position is not None and len(call.args) > position)
                           for call in sites):
                    out.append((path, shown, name))
    return sorted(out)


def test_every_default_in_src_is_passed_by_a_caller():
    """A default that only the tests override is a knob the program never
    turns: the tests monkeypatch the module constant the body reads instead.
    Callers are src/, perfbench/ and tools/."""
    sources = {relpath: _read(relpath) for relpath in _modules(("src",), init=True)}
    callers = list(sources.values()) + [_read(p) for p in _modules(("perfbench", "tools"))]
    assert unpassed_defaults(sources, callers) == []


def test_unpassed_default_detector_sees_a_leftover():
    sources = {"a.py": ("def f(x, scale=1, *, strict=True, budget=10):\n    return x\n"
                        "def g(x, y=0):\n    return x\n"
                        "def h(x, y=0):\n    return x\n"
                        "class C:\n"
                        "    def __init__(self, n, cache=None):\n        self.n = n\n"
                        "    def __eq__(self, other=None):\n        return True\n"
                        "    def m(self, k=2):\n        return k\n"
                        "    @staticmethod\n"
                        "    def s(a, b=3):\n        return a\n")}
    callers = [sources["a.py"], ("from a import C, f, g, h\n"
                                 "f(1, 2, strict=False)\n"
                                 "g(*[1, 2])\n"
                                 "h(1, **{'y': 2})\n"
                                 "C(1).m(3)\n"
                                 "C.s(1)\n")]
    assert unpassed_defaults(sources, callers) == [
        ("a.py", "C.__init__", "cache"), ("a.py", "C.s", "b"), ("a.py", "f", "budget")]


def private_reads_across_modules(source):
    """(line, name) of every private name the module reads from another
    module: imported by name, or read as an attribute of an imported module."""
    tree = ast.parse(source)
    modules = set()
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out.extend((node.lineno, alias.name) for alias in node.names
                       if _is_private(alias.name))
            if node.module is None:  # from . import module
                modules.update(alias.asname or alias.name for alias in node.names)
    out.extend((node.lineno, node.attr) for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id in modules and _is_private(node.attr))
    return sorted(out)


@pytest.mark.parametrize("relpath", list(_modules(("src",), init=True)))
def test_no_module_in_src_reads_another_modules_private_name(relpath):
    assert private_reads_across_modules(_read(relpath)) == []


def test_private_read_detector_sees_a_leftover():
    source = (
        "import os\n"
        "from . import montecarlo as MC\n"
        "from .cartan import _set_slot, Weight\n"
        "class C:\n"
        "    def _own(self):\n        return self._cache\n"
        "def f():\n"
        "    from . import markov\n"
        "    return MC._bernoulli_report, markov._step_weights, os.sep, C()._own()\n"
    )
    assert private_reads_across_modules(source) == [(3, "_set_slot"), (9, "_bernoulli_report"),
                                                    (9, "_step_weights")]
