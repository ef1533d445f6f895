"""The package's API surface, and a guard against dead code.

Every public top-level function or method of the modules in ``CHECKED``
(all but ``numerics``) must be referenced elsewhere in ``src/nrestrict`` or
exported in ``nrestrict.__all__``.  References are matched by name, from the
syntax tree: a function counts as used when its name is loaded or imported
outside its own body, a method when an attribute of that name is read
outside its own body.  ``Cls.name`` on one of the package's classes counts
for that class only, so ``PuiseuxPoly.zero()`` does not keep another
``zero`` alive.  Code that only tests call is dead here; a test that needs a
kernel calls it by its private name.
"""

import ast
import os
from collections import Counter

import nrestrict

SRC = os.path.dirname(os.path.abspath(nrestrict.__file__))
TESTS = os.path.dirname(os.path.abspath(__file__))

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
