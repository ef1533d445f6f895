"""The package's API surface, and guards against dead code and dead knobs.

Every public top-level function or method of the modules in ``CHECKED``
(all but ``numerics``) must be referenced elsewhere in ``src/nrestrict`` or
exported in ``nrestrict.__all__``.  References are matched by name, from the
syntax tree: a function counts as used when its name is loaded or imported
outside its own body, a method when an attribute of that name is read
outside its own body.  ``Cls.name`` on one of the package's classes counts
for that class only, so ``PuiseuxPoly.zero()`` does not keep another
``zero`` alive.  Code that only tests call is dead here; a test that needs a
kernel calls it by its private name.

Every defaulted parameter of a public function or method, in every module
``numerics`` included, must be passed by some call in ``src/``, ``bench/``
or ``tests/``, by keyword or by position.  A parameter that no call passes
always takes its default, so it is a constant, not a knob.  Calls are
matched by the called name alone, and a call with ``*args`` or ``**kwargs``
counts as passing everything it could reach.
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


def test_every_public_definition_is_used_or_exported():
    trees = _modules()
    classes = {node.name for tree in trees.values() for node in tree.body
               if isinstance(node, ast.ClassDef)}
    names, attrs = Counter(), Counter()
    for tree in trees.values():
        n, a = _references(tree, classes)
        names += n
        attrs += a
    exported = set(nrestrict.__all__)
    dead = []
    for mod in CHECKED:
        for cls, node in _public_defs(trees[mod]):
            own_names, own_attrs = _references(node, classes)
            name = node.name
            if cls is None:
                used = names[name] > own_names[name] or name in exported
            else:
                used = any(attrs[key] > own_attrs[key]
                           for key in ((cls, name), (None, name)))
            if not used:
                dead.append(f"{mod}.{cls + '.' if cls else ''}{name}")
    assert dead == []


def _calls_by_name(roots):
    """Every call under the directories ``roots``, keyed by the called name:
    ``f`` for ``f(...)`` and ``name`` for ``obj.name(...)``."""
    calls = defaultdict(list)
    for root in roots:
        for dirpath, _dirs, files in os.walk(root):
            for name in sorted(files):
                if not name.endswith(".py"):
                    continue
                for node in ast.walk(_parse(os.path.join(dirpath, name))):
                    if isinstance(node, ast.Call):
                        func = node.func
                        called = getattr(func, "id", None) or getattr(
                            func, "attr", None)
                        calls[called].append(node)
    return calls


def _defaulted(node):
    """(parameter name, its position, or None if keyword-only) of each
    parameter of ``node`` that has a default."""
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], start=first):
        yield arg.arg, i
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _passes(call, param, position):
    """Whether ``call`` can set ``param``, found at ``position`` among the
    arguments a caller writes."""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    return (position < len(call.args)
            or any(isinstance(a, ast.Starred) for a in call.args))


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
            for param, i in _defaulted(node):
                position = None if i is None else i - shift
                if not any(_passes(c, param, position)
                           for c in calls[node.name]):
                    unpassed.append(
                        f"{mod}.{cls + '.' if cls else ''}{node.name}({param})")
    assert unpassed == []


def test_all_names_exist_once():
    assert len(set(nrestrict.__all__)) == len(nrestrict.__all__)
    missing = [n for n in nrestrict.__all__ if not hasattr(nrestrict, n)]
    assert missing == []


def test_all_lists_what_the_cli_report_and_claims_import():
    """Public names that the CLI, the report and the paper-claim tests
    import from the package's modules are all exported."""
    wanted = set()
    for path in (os.path.join(SRC, "cli.py"), os.path.join(SRC, "report.py"),
                 os.path.join(TESTS, "test_acceptance.py")):
        for node in ast.walk(_parse(path)):
            if not isinstance(node, ast.ImportFrom) or not node.module:
                continue
            mod = node.module.rsplit(".", 1)[-1]
            inside = node.level == 1 or node.module.startswith("nrestrict.")
            if inside and mod not in SEPARATE:
                wanted.update(a.name for a in node.names
                              if not a.name.startswith("_"))
    assert wanted - set(nrestrict.__all__) == set()
