import contextlib
import io
import json
import random
import re
import warnings
from fractions import Fraction as F
from xml.etree import ElementTree

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nrestrict import cli
from nrestrict.errors import ParseError
from nrestrict.exponents import critical_exponent
from nrestrict.parser import parse_expression, render
from nrestrict.poly import PuiseuxPoly
from nrestrict.report import analyze


def P(text):
    return parse_expression(text).poly


class TestParser:
    def test_square_support(self):
        assert P("(x2 - x1^2)^2") == P("x2^2 - 2*x1^2*x2 + x1^4")

    def test_example_12_2(self):
        phi = P("(x2 - x1^2 - x1^3)*(x2 - x1^2 - x1^4)^3")
        assert phi.degree_x2() == 4 and len(phi.terms) == 24

    def test_fractional_exponent(self):
        phi = P("x1^(3/2)")
        assert phi.ramification == 2
        assert phi.coefficient(F(3, 2), 0) == 1

    def test_aliases(self):
        assert P("x*y") == P("x1*x2")

    def test_rational_coefficient(self):
        assert P("-2/5*x1").coefficient(1, 0) == F(-2, 5)

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("2 x1")

    def test_negative_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("x1^(-2)")

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("x1 - x1")

    def test_error_carries_offset(self):
        with pytest.raises(ParseError) as err:
            parse_expression("x1 + %")
        assert err.value.offset == 5

    def test_round_trip_corpus(self):
        rng = random.Random(11)
        corpus = []
        for _ in range(200):
            terms = {}
            for _ in range(rng.randint(1, 6)):
                e1 = F(rng.randint(0, 9), rng.choice([1, 1, 1, 2, 3]))
                e2 = rng.randint(0, 6)
                c = F(rng.randint(-9, 9), rng.randint(1, 7))
                if c:
                    terms[(e1, e2)] = c
            if terms:
                corpus.append(PuiseuxPoly(terms))
        assert len(corpus) >= 195
        for phi in corpus:
            assert parse_expression(render(phi)).poly == phi


class TestAnalyzeReport:
    def test_fifth_power_golden_values(self):
        doc = analyze(parse_expression("(x2-x1^2)^5")).to_json_dict()
        assert doc["d"] == "10/3"
        assert doc["h"] == "5"
        assert doc["h_r"] == "4"
        assert doc["p_c_prime"] == "10"
        assert doc["adapted"] is False

    def test_adapted_quadratic(self):
        doc = analyze(parse_expression("x1^2+x2^2")).to_json_dict()
        assert doc["adapted"] is True
        assert doc["p_c_prime"] == "4"

    def test_example_12_2_fields(self):
        doc = analyze(parse_expression(
            "(x2 - x1^2 - x1^3)*(x2 - x1^2 - x1^4)^3")).to_json_dict()
        assert doc["adapted_polyhedron"]["vertices"] == [
            ["0", "4"], ["3", "3"], ["15", "0"]]
        assert doc["l_pr_case"] == {"case": "b", "l_pr": 2, "a": "3"}
        branches = doc["splitting"]["branches"]
        assert branches[0]["terminal"] == "stop_12_9"
        assert branches[0]["factorization"]["power"] == 3
        certs = doc["knapp_certificates"]
        assert max(F(c["derived_exponent"]) for c in certs) == F(15, 2)

    def test_json_byte_deterministic(self):
        a = analyze(parse_expression("(x2-x1^2)^5")).to_json()
        b = analyze(parse_expression("(x2-x1^2)^5")).to_json()
        assert a == b

    def test_singularity_block(self):
        doc = analyze(parse_expression("(x2 - x1^2)^2 + x1^5")).to_json_dict()
        assert doc["singularity"]["label"] == "A4"
        assert doc["singularity"]["m"] == 2


class TestCommands:
    def test_analyze_stdout(self, capsys):
        assert cli.main(["analyze", "x1^2+x2^2"]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["p_c_prime"] == "4"

    def test_parse_error_exit_code(self, capsys):
        assert cli.main(["analyze", "x1^2 +"]) == 1

    def test_internal_invariant_exit_code(self, capsys, monkeypatch):
        from nrestrict.errors import InternalInvariantError

        def boom(expr, **kw):
            raise InternalInvariantError("dual routes disagree")
        monkeypatch.setattr(cli, "analyze", boom)
        assert cli.main(["analyze", "x1^2+x2^2"]) == 3

    def test_diagram_contains_crossing(self, tmp_path):
        out = tmp_path / "d.svg"
        rc = cli.main(["diagram", "(x2 - x1^2 - x1^3)*(x2 - x1^2 - x1^4)^3",
                       "--svg", str(out)])
        assert rc == 0
        svg = out.read_text()
        for vertex in ("(0,4)", "(3,3)", "(15,0)"):
            assert vertex in svg
        m = re.search(r'data-role="delta-crossing"[^/]*data-t1="([0-9/]+)" '
                      r'data-t2="([0-9/]+)"', svg)
        assert m and (F(m.group(1)), F(m.group(2))) == (F(3, 4), F(15, 4))
        # the svg pixel coordinates match the exact point within rounding
        cm = re.search(r'cx="([0-9.]+)" cy="([0-9.]+)"[^/]*'
                       r'data-role="delta-crossing"', svg)
        assert cm is not None

    def test_diagram_title_is_escaped(self, tmp_path):
        # a file path named as the argument becomes the title verbatim
        path = tmp_path / "a&b<c>.txt"
        path.write_text("(x2 - x1^2)^2\n")
        out = tmp_path / "d.svg"
        assert cli.main(["diagram", str(path), "--svg", str(out)]) == 0
        root = ElementTree.parse(out).getroot()
        titles = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")
                  if t.text == str(path)]
        assert titles == [str(path)]

    def test_diagram_svg_coordinates_match_exact_point(self, tmp_path):
        out = tmp_path / "d.svg"
        cli.main(["diagram", "(x2 - x1^2 - x1^3)*(x2 - x1^2 - x1^4)^3",
                  "--svg", str(out)])
        svg = out.read_text()
        cross = re.search(
            r'<circle cx="([\d.]+)" cy="([\d.]+)" r="5.0"[^>]*'
            r'data-role="delta-crossing"', svg)
        origin = re.search(
            r'<circle cx="([\d.]+)" cy="([\d.]+)"[^>]*data-role="vertex"'
            r'[^>]*data-t1="0" data-t2="4"', svg)
        assert cross and origin
        # recover the scale from the (0,4) vertex and check the crossing
        x0, y0 = float(origin.group(1)), float(origin.group(2))
        xc, yc = float(cross.group(1)), float(cross.group(2))
        scale_y = abs(yc - y0) / abs(15 / 4 - 4)
        assert (xc - x0) / scale_y == pytest.approx(3 / 4, abs=0.02)

    def test_knapp_command(self, capsys):
        assert cli.main(["knapp", "(x2-x1^2)^5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["p_c_prime"] == "10"
        assert any(c["target"] == "horizontal" and
                   c["derived_exponent"] == "10"
                   for c in doc["certificates"])

    def test_trace_command(self, capsys):
        assert cli.main(["trace",
                         "(x2 - x1^2 - x1^3)*(x2 - x1^2 - x1^4)^3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["splitting"]["branches"][0]["terminal"] == "stop_12_9"

    def test_decay_command_single_expression(self, capsys):
        rc = cli.main(["decay", "x1^2 + x2^2", "--lambda-min", "100",
                       "--lambda-max", "100000", "--points", "12"])
        assert rc == 0
        line = capsys.readouterr().out.strip().splitlines()[0]
        fit = json.loads(line)
        assert fit["verdict"] == "pass"
        assert abs(fit["fitted_exponent"] - 1.0) <= 0.07

    def test_quadrature_failure_exit_code(self, capsys):
        # no symbolic reduction applies, and at lambda = 1e5 the direct
        # 2-D quadrature runs out of cells
        rc = cli.main(["decay", "x1^3*x2 + x1*x2^3 + x1^2*x2^2",
                       "--lambda-min", "1e5", "--lambda-max", "1e7",
                       "--points", "2"])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("quadrature failure: cell budget exceeded")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_unwritable_output_exits_1(self, tmp_path, capsys):
        missing = tmp_path / "no-such-dir"
        assert cli.main(["analyze", "x2^2 + x1^4",
                         "--json", str(missing / "out.json")]) == 1
        assert cli.main(["diagram", "x2^2 + x1^4",
                         "--svg", str(missing / "out.svg")]) == 1
        err = capsys.readouterr().err
        assert err.count("error: ") == 2 and "Traceback" not in err
        assert not missing.exists()

    def test_unreadable_input_exits_1(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "phi.txt"
        path.write_text("(x2 - x1^2)^5\n")

        def denied(*args, **kwargs):
            raise PermissionError(13, "Permission denied", str(path))
        monkeypatch.setattr("builtins.open", denied)
        assert cli.main(["analyze", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 13] Permission denied")

    def test_decay_grid_checked_before_integrating(self, capsys):
        rc = cli.main(["decay", "x1^2 + x2^2", "--lambda-min", "1e6",
                       "--lambda-max", "1e4", "--points", "8"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: frequency grid must be strictly increasing\n")

    def test_decay_rejects_grid_of_fewer_than_two_points(self, capsys):
        for points in ("0", "1"):
            assert cli.main(["decay", "x1^2 + x2^2", "--points", points]) == 1
            assert capsys.readouterr().err == (
                "error: frequency grid needs at least two points\n")

    def test_decay_rejects_bad_grid_bounds_before_numpy(self, capsys):
        for flag, value in [("--lambda-min", "-5"), ("--lambda-max", "inf"),
                            ("--lambda-min", "nan"), ("--lambda-max", "0")]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rc = cli.main(["decay", "x1^2 + x2^2", flag, value])
            assert rc == 1, (flag, value)
            assert capsys.readouterr().err == (
                "error: frequency grid bounds must be positive and finite\n")

    def test_decay_rejects_non_critical_input(self, capsys):
        # a constant or a linear term leaves no height to predict 1/h from
        for text in ("1 + x1^2 + x2^2", "x1"):
            assert cli.main(["decay", text, "--points", "4"]) == 1, text
            err = capsys.readouterr().err
            assert err.startswith("error: the origin must be a critical point")
            assert err.count("\n") == 1 and "Traceback" not in err


class TestHaltSurfacing:
    def test_halted_branches_appear_in_the_report(self):
        # the splitting of ((x2 - x1^2)^2 - 2 x1^6)^2 needs the shear
        # coefficients +-sqrt(2); both branches halt with isolating data
        # while the exact invariants are still computed
        doc = analyze(parse_expression(
            "((x2 - x1^2)^2 - 2*x1^6)^2")).to_json_dict()
        assert doc["p_c_prime"] == "15/2"
        terminals = [b["terminal"] for b in doc["splitting"]["branches"]]
        assert terminals == ["algebraic_root_halt", "algebraic_root_halt"]
        halt = doc["splitting"]["branches"][0]["halt"]
        assert halt["multiplicity"] == 2
        lo, hi = F(halt["interval"][0]), F(halt["interval"][1])
        assert lo < hi and hi - lo <= F(1, 4)
        assert halt["witness_poly"]  # square-free certificate coefficients


coefficients = st.sampled_from([F(0), F(1), F(-1), F(1, 2), F(-2, 3), F(3)])


@st.composite
def conjugate_products(draw):
    """``((x2 - q(x1))^2 - c*x1^j)^m``, perhaps plus ``x1^k``, with ``c`` not
    the square of a rational: the factor's roots ``q +- sqrt(c)*x1^(j/2)``
    are conjugate and irrational."""
    q = " + ".join(f"({draw(coefficients)})*x1^{e}" for e in (1, 2, 3))
    c = draw(st.sampled_from(["2", "3", "5", "7", "1/2", "2/9"]))
    j, m = draw(st.integers(2, 8)), draw(st.integers(1, 3))
    tail = draw(st.one_of(st.none(), st.integers(2, 14)))
    return (f"((x2 - ({q}))^2 - {c}*x1^{j})^{m}"
            + ("" if tail is None else f" + x1^{tail}"))


class TestConjugateIrrationalFactors:
    """The exponent stage never needs an irrational shear: only the unique
    root of multiplicity above the distance is sheared off, and it is
    rational (``adapted._shear_root``).  Only ``trace`` branches halt."""

    @given(conjugate_products())
    @example("((x2 - x1^2)^2 - 2*x1^6)^2")
    @settings(max_examples=100, deadline=None)
    def test_exponent_stage_never_halts_and_trace_exits_0(self, text):
        critical_exponent(P(text))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["trace", text]) == 0, text
        json.loads(out.getvalue())


class TestFileInput:
    def test_expression_read_from_file(self, tmp_path, capsys):
        path = tmp_path / "phi.txt"
        path.write_text("(x2 - x1^2)^5\n")
        assert cli.main(["analyze", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["p_c_prime"] == "10"
