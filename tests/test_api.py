"""The package's API surface, and guards against dead code, dead knobs and
unread fields.

Every public top-level function or method of the modules in ``CHECKED``
(all but ``numerics``) must be referenced elsewhere in ``src/nrestrict`` or
exported in ``nrestrict.__all__``.  References are matched by name, from the
syntax tree: a function counts as used when its name is loaded or imported
outside its own body, a method when an attribute of that name is read
outside its own body.  ``Cls.name`` on one of the package's classes counts
for that class only, so ``PuiseuxPoly.zero()`` does not keep another
``zero`` alive.  Code that only tests call is dead here; a test that needs a
kernel calls it by its private name.

Every public function or method of ``numerics`` must be referenced, by the
same rule, elsewhere in ``src/nrestrict`` (the CLI) or in ``bench/`` (the
benchmark), or imported by ``tests/test_acceptance.py`` (the paper's
claims).

Exporting a name keeps it alive only if the export is itself used: every
name in ``nrestrict.__all__`` must be read in ``src/nrestrict`` outside its
own definition, or imported by ``tests/test_acceptance.py``.

Every defaulted parameter of a public function or method, in every module
``numerics`` included, must be passed by some call in ``src/``, ``bench/``
or ``tests/``, by keyword or by position, as something other than the same
literal as its default.  A parameter that no call sets to another value
always takes its default, so it is a constant, not a knob.  Calls are
matched by the called name alone, and a call with ``*args`` or ``**kwargs``
counts as passing everything it could reach.

Every field of a dataclass of ``src/nrestrict`` must be read somewhere in
``src/``, ``bench/`` or ``tests/``.  A read is an attribute of the field's
name loaded anywhere, matched by name alone; that covers the reads of every
``to_json_dict``.  Taking part in equality does not count: a field that only
equality reads is unread unless code compares the instances, and then that
code reads it.
"""

import ast
import os
from collections import Counter, defaultdict

import nrestrict

SRC = os.path.dirname(os.path.abspath(nrestrict.__file__))
TESTS = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(TESTS)

#: the modules the guard walks: all but ``numerics``
CHECKED = ("poly", "roots", "geometry", "adapted", "splitting", "exponents",
           "report", "cli", "parser", "diagram", "errors")

#: imported on its own so that the exact core never loads numpy
SEPARATE = ("numerics",)


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read())


def _modules():
    """Syntax trees of every module in the package but ``__init__``."""
    return {name[:-3]: _parse(os.path.join(SRC, name))
            for name in sorted(os.listdir(SRC))
            if name.endswith(".py") and name != "__init__.py"}


def _references(node, classes):
    """Names loaded or imported under ``node``, and attributes read there:
    ``(class, attr)`` when read off one of ``classes`` by name, else
    ``(None, attr)``."""
    names, attrs = Counter(), Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.alias):
            names[sub.name] += 1
        elif isinstance(sub, ast.Attribute):
            owner = getattr(sub.value, "id", None)
            attrs[(owner if owner in classes else None, sub.attr)] += 1
    return names, attrs


def _public_defs(tree):
    """(owning class or None, def node) of each public definition."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield None, node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for sub in node.body:
                if (isinstance(sub, ast.FunctionDef)
                        and not sub.name.startswith("_")):
                    yield node.name, sub


def _py_trees(root):
    """Syntax trees of every Python file under ``root``."""
    for dirpath, _dirs, files in os.walk(root):
        for name in sorted(files):
            if name.endswith(".py"):
                yield _parse(os.path.join(dirpath, name))


def _dead_definitions(modules, readers=(), kept=frozenset()):
    """Public functions and methods of ``modules`` that no code of the
    package outside their own bodies, nor any tree of ``readers``,
    references; a function named in ``kept`` is alive."""
    trees = _modules()
    classes = {node.name for tree in trees.values() for node in tree.body
               if isinstance(node, ast.ClassDef)}
    names, attrs = Counter(), Counter()
    for tree in [*trees.values(), *readers]:
        n, a = _references(tree, classes)
        names += n
        attrs += a
    dead = []
    for mod in modules:
        for cls, node in _public_defs(trees[mod]):
            own_names, own_attrs = _references(node, classes)
            name = node.name
            if cls is None:
                used = names[name] > own_names[name] or name in kept
            else:
                used = any(attrs[key] > own_attrs[key]
                           for key in ((cls, name), (None, name)))
            if not used:
                dead.append(f"{mod}.{cls + '.' if cls else ''}{name}")
    return dead


def test_every_public_definition_is_used_or_exported():
    assert _dead_definitions(CHECKED, kept=set(nrestrict.__all__)) == []


def test_every_numerics_definition_serves_the_cli_bench_or_claims():
    bench = list(_py_trees(os.path.join(REPO, "bench")))
    assert _dead_definitions(SEPARATE, bench, _claimed()) == []


def _calls_by_name(roots):
    """Every call under the directories ``roots``, keyed by the called name:
    ``f`` for ``f(...)`` and ``name`` for ``obj.name(...)``."""
    calls = defaultdict(list)
    for root in roots:
        for tree in _py_trees(root):
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    func = node.func
                    called = getattr(func, "id", None) or getattr(
                        func, "attr", None)
                    calls[called].append(node)
    return calls


def _defaulted(node):
    """(parameter name, its position, or None if keyword-only, its default)
    of each parameter of ``node`` that has a default."""
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i, (arg, default) in enumerate(
            zip(positional[first:], args.defaults), start=first):
        yield arg.arg, i, default
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None, default


def _restates(arg, default):
    """Whether the argument ``arg`` is the same literal as ``default``."""
    try:
        a, d = ast.literal_eval(arg), ast.literal_eval(default)
    except ValueError:
        return False
    return type(a) is type(d) and a == d


def _passes(call, param, position, default):
    """Whether ``call`` can set ``param``, found at ``position`` among the
    arguments a caller writes, to something other than its ``default``."""
    for kw in call.keywords:
        if kw.arg is None or (kw.arg == param
                              and not _restates(kw.value, default)):
            return True
    if position is None:
        return False
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return (position < len(call.args)
            and not _restates(call.args[position], default))


def test_every_defaulted_parameter_is_passed_somewhere():
    calls = _calls_by_name([os.path.join(REPO, d)
                            for d in ("src", "bench", "tests")])
    unpassed = []
    for mod, tree in _modules().items():
        for cls, node in _public_defs(tree):
            # a caller writes no ``self`` for a method that is not static
            static = any(getattr(d, "id", None) == "staticmethod"
                         for d in node.decorator_list)
            shift = 0 if cls is None or static else 1
            for param, i, default in _defaulted(node):
                position = None if i is None else i - shift
                if not any(_passes(c, param, position, default)
                           for c in calls[node.name]):
                    unpassed.append(
                        f"{mod}.{cls + '.' if cls else ''}{node.name}({param})")
    assert unpassed == []


def _is_dataclass(cls):
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
               == "dataclass" for d in cls.decorator_list)


def test_every_dataclass_field_is_read_somewhere():
    reads = set()
    for root in ("src", "bench", "tests"):
        for tree in _py_trees(os.path.join(REPO, root)):
            reads.update(node.attr for node in ast.walk(tree)
                         if isinstance(node, ast.Attribute)
                         and isinstance(node.ctx, ast.Load))
    unread = []
    for mod, tree in _modules().items():
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and _is_dataclass(cls):
                unread.extend(f"{mod}.{cls.name}.{sub.target.id}"
                              for sub in cls.body
                              if isinstance(sub, ast.AnnAssign)
                              and sub.target.id not in reads)
    assert unread == []


def test_all_names_exist_once():
    assert len(set(nrestrict.__all__)) == len(nrestrict.__all__)
    missing = [n for n in nrestrict.__all__ if not hasattr(nrestrict, n)]
    assert missing == []


def _imported_from_package(path):
    """(module, name) of each name that ``path`` imports from a module of
    the package, by a relative or a ``nrestrict.``-qualified import."""
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.ImportFrom) and node.module and (
                node.level == 1 or node.module.startswith("nrestrict.")):
            mod = node.module.rsplit(".", 1)[-1]
            yield from ((mod, a.name) for a in node.names)


def _claimed():
    """Names that the paper-claim tests import from the package."""
    return {name for _mod, name in _imported_from_package(
        os.path.join(TESTS, "test_acceptance.py"))}


def test_every_exported_name_is_used_by_the_package_or_the_claims():
    """A name in ``nrestrict.__all__`` is read in ``src/nrestrict`` outside
    its own definition, or imported by the paper-claim tests: exporting a
    name does not keep alive code that only other tests call."""
    trees = _modules()
    names, attrs, own = Counter(), Counter(), {}
    for tree in trees.values():
        n, a = _references(tree, ())
        names += n
        attrs += a
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own[node.name] = _references(node, ())
    claimed = _claimed()
    unused = []
    for name in nrestrict.__all__:
        own_names, own_attrs = own.get(name, (Counter(), Counter()))
        reads = (names[name] - own_names[name]
                 + attrs[(None, name)] - own_attrs[(None, name)])
        if reads == 0 and name not in claimed:
            unused.append(name)
    assert unused == []


def test_all_lists_what_the_cli_report_and_claims_import():
    """Public names that the CLI, the report and the paper-claim tests
    import from the package's modules are all exported."""
    wanted = {name
              for path in (os.path.join(SRC, "cli.py"),
                           os.path.join(SRC, "report.py"),
                           os.path.join(TESTS, "test_acceptance.py"))
              for mod, name in _imported_from_package(path)
              if mod not in SEPARATE and not name.startswith("_")}
    assert wanted - set(nrestrict.__all__) == set()
