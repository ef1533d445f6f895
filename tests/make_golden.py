"""Golden SHA-256 digests of the CLI's exact outputs.

``golden.json`` maps ``"<command>|<expression>"`` to ``"<exit code>:<sha256>"``
for the ``analyze``, ``knapp``, ``trace`` and ``diagram`` subcommands of
``nrestrict.cli.main``, over the 26 acceptance inputs, the first ladder rungs
and one input whose reports carry an algebraic-root halt.  The digest is of
the written output file on exit 0 and of stderr otherwise.
``tests/test_golden.py`` recomputes every entry and requires the bytes to be
unchanged.

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

from test_acceptance import EX122, NORMAL_FORMS, POWER_CASES

COMMANDS = ("analyze", "knapp", "trace", "diagram")

ACCEPTANCE = ([EX122] + [f"(x2 - x1^{m})^{n}" for m, n in POWER_CASES]
              + [text for text, *_ in NORMAL_FORMS])

#: (x2 - x1^2 - x1^3)^n*(x2 - x1^2 - x1^4) + x1^(4n+7), the benchmark ladder
LADDER = [f"(x2 - x1^2 - x1^3)^{n}*(x2 - x1^2 - x1^4) + x1^({4 * n + 7})"
          for n in (2, 4, 6, 8)]

#: irrational multiple roots: the reports carry an algebraic-root halt record
HALT = ["((x2 - x1^2)^2 - 2*x1^6)^2"]

INPUTS = ACCEPTANCE + LADDER + HALT

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


if __name__ == "__main__":
    table = compute()
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(table)} digests to {GOLDEN_PATH}", file=sys.stderr)
