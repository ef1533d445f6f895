"""The staged report: each subcommand runs only the stages it prints, and no
stage redoes the work of an earlier one."""

from collections import Counter
from fractions import Fraction as F

import pytest

from nrestrict import adapted, cli, report, splitting
from nrestrict.parser import parse_expression
from nrestrict.poly import PuiseuxPoly
from nrestrict.report import _jet_json, analyze

from inputs import HIGH_CONTACT
from make_golden import COMMANDS, INPUTS
from oracles import analyze_report_mismatches

STAGES = ("fine_splitting_trace", "classify_linear",
          "certificates_of_polyhedron")


@pytest.fixture
def stage_calls(monkeypatch):
    """Count the calls ``report`` makes to each later stage."""
    calls = Counter()
    for name in STAGES:
        def spy(*args, _name=name, _real=getattr(report, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(report, name, spy)
    return calls


def _run(cmd, text, out):
    flag = "--svg" if cmd == "diagram" else "--json"
    return cli.main([cmd, text, flag, str(out)])


def test_each_subcommand_runs_only_the_stages_it_prints(stage_calls,
                                                         tmp_path):
    reads = {"knapp": {"certificates_of_polyhedron"},
             "diagram": set(),
             "trace": {"fine_splitting_trace"},
             "analyze": set(STAGES)}
    assert set(reads) == set(COMMANDS)
    totals = {cmd: Counter() for cmd in COMMANDS}
    for text in INPUTS:
        for cmd in COMMANDS:
            stage_calls.clear()
            assert _run(cmd, text, tmp_path / "out") == 0, (cmd, text)
            assert set(stage_calls) <= reads[cmd], (cmd, text)
            assert max(stage_calls.values(), default=0) <= 1, (cmd, text)
            totals[cmd] += stage_calls
    # every stage a subcommand reads runs on some input
    for cmd in COMMANDS:
        assert set(totals[cmd]) == reads[cmd], cmd


def test_no_restriction_is_isolated_twice(isolations):
    """The splitting stage reads the roots the adaptedness verdict holds:
    over the golden inputs no restriction is isolated by both."""
    for text in INPUTS:
        isolations.clear()
        analyze(parse_expression(text)).to_json()
        judged = {key for mod, key in isolations if mod is adapted}
        split = [key for mod, key in isolations if mod is splitting]
        assert [key for key in split if key in judged] == [], text


#: a fixed list, apart from the golden inputs, whose isolation count is
#: pinned: EX122, a power, an A4, the D7 with an x2^3 term, the halting
#: input and a ladder rung
ISOLATION_INPUTS = [
    "(x2 - x1^2 - x1^3)*(x2 - x1^2 - x1^4)^3", "(x2 - x1^2)^5",
    "(x2 - x1^2)^2 + x1^5", "x1*(x2 - x1^2)^2 + x2^3 + x1^9",
    "((x2 - x1^2)^2 - 2*x1^6)^2",
    "(x2 - x1^2 - x1^3)^4*(x2 - x1^2 - x1^4) + x1^23"]


def test_isolation_count_is_pinned(isolations):
    """One ``analyze(...).to_json()`` each isolates 14 restrictions in all;
    p(-1, t) only at an edge ratio that is not an integer."""
    for text in ISOLATION_INPUTS:
        analyze(parse_expression(text)).to_json()
    assert len(isolations) == 14


def test_analyze_reports_agree_with_the_oracle():
    """Each report's d, p_c', theta, Knapp maximum, A/D index, canonical
    form, adapted polyhedron and splitting factorizations agree with the
    definitions, re-derived from the report and its input alone.  The last
    input's two branches factor off x2 -+ x1^(5/2)."""
    for text in dict.fromkeys(INPUTS + HIGH_CONTACT
                              + ["((x2 - x1^2)^2 - x1^5)^2"]):
        assert analyze_report_mismatches(text) == [], text


def test_jet_json_lists_terms_by_increasing_exponent():
    jet = PuiseuxPoly([((F(7, 2), 0), -1), ((2, 0), 3), ((F(5, 2), 0), F(1, 2))])
    assert _jet_json(jet) == [
        {"coefficient": "3", "exponent": "2"},
        {"coefficient": "1/2", "exponent": "5/2"},
        {"coefficient": "-1", "exponent": "7/2"}]
