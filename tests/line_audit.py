"""Line audit: list the lines of ``src/nrestrict`` that tier-1 never runs.

Run from anywhere with ``python tests/line_audit.py``.  The script starts a
line tracer before anything imports ``nrestrict``, runs the tier-1 suite
in-process with a fixed hypothesis seed, and then lists every line that some
code object's ``co_lines()`` names and no frame ran.  Each unreached line is
reported under its innermost statement.

It exits 1 when an unreached statement is not on ``ALLOWLIST``, or when an
allowlist entry matches no unreached statement (so the list cannot go
stale), and 0 otherwise.  The suite's own verdict does not change the exit
code; tier-1 runs separately.  Under the tracer the suite takes about twice
its usual wall time.

An allowlist entry is keyed by file, enclosing function and statement text
(whitespace collapsed; for a compound statement, its header only), never by
line number, and gives a one-line reason.  Only checks that compare two
routes or check a theorem belong here: a test cannot reach them without
breaking the code.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nrestrict"

_REACHED: dict[str, set[int]] = {}


def _local(frame, event, arg):
    if event == "line":
        _REACHED[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _REACHED:
        if not name.startswith(str(SRC) + os.sep):
            return None
        _REACHED[name] = set()
    _REACHED[name].add(frame.f_lineno)
    return _local


# (file, enclosing function, statement) -> reason
ALLOWLIST: dict[tuple[str, str, str], str] = {
    ("adapted.py", "is_adapted",
     'raise InternalInvariantError( "non-integer weight ratio must force '
     'circle order < distance")'):
        "theorem: a face of non-integer ratio has circle order below d",
    ("adapted.py", "_shear_root",
     'raise InternalInvariantError( "non-adapted verdict has no circle '
     'root exceeding the distance")'):
        "theorem: a non-adapted verdict carries a root of order > d",
    ("adapted.py", "classify_linear",
     'raise InternalInvariantError( "D-type linear coordinates have no '
     'x1*x2^2 term")'):
        "theorem: a D form of linear height < 2 has an x1*x2^2 term",
    ("adapted.py", "classify_linear",
     'raise InternalInvariantError( "critical branch is obstructed at order '
     '" f"{v}; no normal form of the expected shape")'):
        "theorem: the A/D critical branch solves term by term",
    ("adapted.py", "classify_linear",
     'raise InternalInvariantError("normal-form root jet must start at '
     'order >= 2")'):
        "theorem: linear coordinates leave no linear term in the root jet",
    ("adapted.py", "classify_linear",
     'raise InternalInvariantError( "normal-form distance does not match '
     'the classified family")'):
        "dual route: the normal form's distance against the family's",
    ("exponents.py", "h_r_tilde_sample",
     'raise InternalInvariantError( f"sampled shear height {value} exceeded '
     'the {kind} bound {bound}")'):
        "theorem: no sampled jet exceeds the r-height or the distance",
    ("exponents.py", "h_r_tilde_sample",
     'raise InternalInvariantError( "principal root jet did not attain the '
     'r-height")'):
        "dual route: the shear height of psi against the r-height",
    ("geometry.py", "NewtonPolyhedron.principal_face",
     'raise InternalInvariantError(f"(d, d) = {p} not located on the '
     'boundary")'):
        "theorem: the bisectrix meets the boundary at (d, d)",
    ("geometry.py", "r_height",
     'raise InternalInvariantError("supporting line misses all vertices")'):
        "theorem: a supporting line touches a vertex",
    ("geometry.py", "r_height",
     'raise InternalInvariantError( f"r-height mismatch: formula {best} vs '
     'geometric {geometric}")'):
        "dual route: the h^l formula against the boundary walk",
    ("geometry.py", "_augmented_crossing",
     'raise InternalInvariantError("shifted bisectrix missed the '
     'boundary")'):
        "theorem: the shifted bisectrix crosses the monotone boundary",
    ("geometry.py", "_augmented_crossing",
     'raise InternalInvariantError( f"ambiguous boundary crossing: {first} '
     'vs {h}")'):
        "theorem: that crossing is unique",
    ("splitting.py", "adapted_coordinates",
     'raise InternalInvariantError("shear exponents failed to increase")'):
        "theorem: each shear raises the principal face's ratio",
    ("splitting.py", "_explore",
     'raise InternalInvariantError("multiplicities must be nonincreasing")'):
        "theorem: a root's multiplicity bounds those of its children",
    ("splitting.py", "_explore",
     'raise InternalInvariantError( f"post-shear vertex {new_vertex} '
     'missing from the polyhedron")'):
        "dual route: the predicted vertex against the sheared polyhedron",
    ("splitting.py", "_explore",
     'raise InternalInvariantError("edge exponents must increase")'):
        "theorem: the next active edge is steeper",
    ("splitting.py", "_classify_simple",
     'raise InternalInvariantError("simple root with vanishing '
     'x2-partial")'):
        "dual route: a simple root against the exact x2-partial",
}


def _statements(tree: ast.AST):
    """Yield ``(qualname, stmt, header_end)`` for each statement."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            # an ``except`` clause is a statement of its own here
            if isinstance(child, (ast.stmt, ast.excepthandler)):
                body = getattr(child, "body", None)
                end = (body[0].lineno - 1 if body and isinstance(body, list)
                       else child.end_lineno)
                yield scope or "<module>", child, end
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            yield from walk(child, inner)
    yield from walk(tree, "")


def _code_lines(code) -> set[int]:
    lines = {ln for _, _, ln in code.co_lines() if ln is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def unreached(path: Path, reached: set[int]):
    """``{(file, qualname, text): [line, ...]}`` of the unreached lines, and
    the number of executable lines."""
    source = path.read_text(encoding="utf-8")
    lines = _code_lines(compile(source, str(path), "exec"))
    missed = lines - reached
    src_lines = source.splitlines()
    stmts = list(_statements(ast.parse(source)))
    out: dict[tuple[str, str, str], list[int]] = {}
    for line in sorted(missed):
        # the innermost statement whose header or body holds the line
        covering = [s for s in stmts if s[1].lineno <= line <= s[1].end_lineno]
        scope, stmt, header_end = max(covering, key=lambda s: s[1].lineno)
        text = " ".join(" ".join(src_lines[stmt.lineno - 1:header_end]).split())
        out.setdefault((path.name, scope, text), []).append(line)
    return out, len(lines)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(_global)
    import pytest

    os.chdir(ROOT)
    status = pytest.main(["-q", "--continue-on-collection-errors",
                          "-p", "no:cacheprovider", "--hypothesis-seed=0"])
    sys.settrace(None)

    import nrestrict
    if Path(nrestrict.__file__).resolve().parent != SRC:
        print(f"nrestrict imported from {nrestrict.__file__}, not {SRC}")
        return 1
    found: dict[tuple[str, str, str], list[int]] = {}
    total = 0
    for path in sorted(SRC.glob("*.py")):
        in_file, lines = unreached(path, _REACHED.get(str(path), set()))
        found |= in_file
        total += lines
    missed = sum(len(v) for v in found.values())
    print(f"\nline audit: pytest exit {int(status)}; {missed} of {total} "
          f"executable lines unreached, in {len(found)} statements")
    bad = 0
    for key, lines in sorted(found.items()):
        tag = "allowed" if key in ALLOWLIST else "UNREACHED"
        bad += key not in ALLOWLIST
        print(f"  {tag}: {key[0]}:{lines[0]} ({len(lines)} lines) "
              f"{key[1]}: {key[2]}")
    for key in ALLOWLIST.keys() - found.keys():
        bad += 1
        print(f"  STALE allowlist entry: {key[0]} {key[1]}: {key[2]}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
