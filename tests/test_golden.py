"""The CLI's exact outputs stay byte-identical to ``golden.json``.

A change that alters these bytes on purpose regenerates the file with
``PYTHONPATH=src python tests/make_golden.py`` and says why.
"""

from make_golden import changed, compute


def test_cli_outputs_match_golden_digests():
    bad = changed(compute())
    assert not bad, f"{len(bad)} outputs changed, e.g. {bad[:3]}"
