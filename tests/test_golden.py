"""The CLI's exact outputs stay byte-identical to ``golden.json``.

A change that alters these bytes on purpose regenerates the file with
``PYTHONPATH=src python tests/make_golden.py`` and says why.
"""

import json

from make_golden import GOLDEN_PATH, compute


def test_cli_outputs_match_golden_digests():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        want = json.load(fh)
    got = compute()
    assert sorted(got) == sorted(want)
    changed = [key for key in want if got[key] != want[key]]
    assert not changed, f"{len(changed)} outputs changed, e.g. {changed[:3]}"
