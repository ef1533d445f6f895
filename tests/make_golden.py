"""Golden SHA-256 digests of the CLI's exact outputs.

``golden.json`` maps ``"<command>|<expression>"`` to ``"<exit code>:<sha256>"``
for the ``analyze``, ``knapp``, ``trace`` and ``diagram`` subcommands of
``nrestrict.cli.main``, over the 26 acceptance inputs, the first ladder rungs,
one input whose reports carry an algebraic-root halt, one A/D input whose
critical branch is not a polynomial, and two A/D inputs whose linear stage
ends in coordinates that ``classify_linear`` still moves or that a linear
transform reached, four high-contact A/D inputs whose index lies above
the classifier's series order, and one input whose principal edge only the
x1 < 0 side makes non-adapted.  The digest is of the written output
file on exit 0 and of stderr otherwise.
``tests/test_golden.py`` recomputes every entry and requires the bytes to be
unchanged; so does ``--check``, which needs no pytest::

    PYTHONPATH=src python tests/make_golden.py --check

Regenerate the file only when an output change is intended::

    PYTHONPATH=src python tests/make_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from nrestrict.cli import main

from inputs import EX122, NORMAL_FORMS, POWER_CASES, high_contact

COMMANDS = ("analyze", "knapp", "trace", "diagram")

ACCEPTANCE = ([EX122] + [f"(x2 - x1^{m})^{n}" for m, n in POWER_CASES]
              + [text for text, *_ in NORMAL_FORMS])

#: (x2 - x1^2 - x1^3)^n*(x2 - x1^2 - x1^4) + x1^(4n+7), the benchmark ladder
LADDER = [f"(x2 - x1^2 - x1^3)^{n}*(x2 - x1^2 - x1^4) + x1^({4 * n + 7})"
          for n in (2, 4, 6, 8)]

#: irrational multiple roots: the reports carry an algebraic-root halt record
HALT = ["((x2 - x1^2)^2 - 2*x1^6)^2"]

#: an A13 whose critical branch x2 = psi(x1) is an infinite series
NONPOLY_BRANCH = ["((x2 - x1)^2 - 5*x1)^2 + x1^7"]

#: a D7 whose cubic part has an x2^3 term, so the D branch maps
#: x1 -> x1 - x2, and an A4 whose linear transform is ((1, 0), (-3, 1))
LINEAR_NORMALIZATION = ["x1*(x2 - x1^2)^2 + x2^3 + x1^9",
                        "(x2 + 3*x1 - x1^2)^2 + x1^5"]

#: A49, D52, A71 and D74, whose n lies above the classifier's series order
HIGH_INDEX = [high_contact(a, x1) for a in (5, 6) for x1 in (False, True)]

#: a principal edge of ratio 1/2 that only the x1 < 0 side makes
#: non-adapted: p(1, t) = (1 + t^2)^2, p(-1, t) = (t^2 - 1)^2
NEGATIVE_SIDE = ["(x1 + x2^2)^2"]

INPUTS = (ACCEPTANCE + LADDER + HALT + NONPOLY_BRANCH + LINEAR_NORMALIZATION
          + HIGH_INDEX + NEGATIVE_SIDE)

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden.json")


def digest(cmd: str, text: str, out_dir: str) -> str:
    """``"<exit code>:<sha256>"`` of one CLI call."""
    out = os.path.join(out_dir, "out")
    flag = "--svg" if cmd == "diagram" else "--json"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([cmd, text, flag, out])
    if code == 0:
        with open(out, "rb") as fh:
            data = fh.read()
    else:
        data = err.getvalue().encode()
    return f"{code}:{hashlib.sha256(data).hexdigest()}"


def compute() -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        return {f"{cmd}|{text}": digest(cmd, text, tmp)
                for text in INPUTS for cmd in COMMANDS}


def changed(got: dict[str, str]) -> list[str]:
    """The keys of ``golden.json`` that ``got`` lacks, adds or differs on."""
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        want = json.load(fh)
    return sorted(key for key in want.keys() | got.keys()
                  if got.get(key) != want.get(key))


if __name__ == "__main__":
    table = compute()
    if sys.argv[1:] == ["--check"]:
        bad = changed(table)
        print(f"{len(table) - len(bad)} of {len(table)} digests match; "
              f"changed: {bad[:3]}", file=sys.stderr)
        sys.exit(1 if bad else 0)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(table)} digests to {GOLDEN_PATH}", file=sys.stderr)
