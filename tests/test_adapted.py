import random
from fractions import Fraction as F

import pytest

from nrestrict import adapted, exponents, splitting
from nrestrict.adapted import (circle_vanishing_order, classify_singularity,
                               height, is_adapted, linear_height)
from nrestrict.geometry import NewtonPolyhedron, Weight, kappa_principal_part
from nrestrict.parser import parse_expression
from nrestrict.report import analyze
from nrestrict.roots import UniPoly, squarefree_real_roots

from make_golden import ACCEPTANCE


def P(text):
    return parse_expression(text).poly


class TestCircleVanishingOrder:
    def test_double_root_on_circle(self):
        assert circle_vanishing_order(P("(x2 - x1^2)^2"),
                                      Weight(F(1, 4), F(1, 2))) == 2

    def test_positive_on_circle(self):
        assert circle_vanishing_order(P("x1^2 + x2^2"),
                                      Weight(F(1, 2), F(1, 2))) == 0

    def test_axis_zeros(self):
        assert circle_vanishing_order(P("x1*x2"), Weight(F(1, 2), F(1, 2))) == 1

    def test_negative_halfplane_root(self):
        # root only at x1 = -1: (x2 + x1^3)^2 restricted to x1 = 1 has root -1,
        # so both restrictions are scanned; use an odd asymmetric case
        p = P("(x2 + x1)^3")
        assert circle_vanishing_order(p, Weight(F(1, 3), F(1, 3))) == 3

    def test_rejects_inhomogeneous(self):
        with pytest.raises(ValueError):
            circle_vanishing_order(P("x2^2 + x1^5"), Weight(F(1, 4), F(1, 2)))

    def test_homogeneous_height_formula(self):
        # height of a kappa-homogeneous part is max(circle order, 1/|kappa|)
        for text, k, expect_h in [
            ("(x2 - x1^2)^2", Weight(F(1, 4), F(1, 2)), 2),
            ("x1^2 + x2^2", Weight(F(1, 2), F(1, 2)), 1),
        ]:
            p = P(text)
            m = circle_vanishing_order(p, k)
            d_h = 1 / (k.k1 + k.k2)
            assert height(p)[0] == max(m, d_h) == expect_h


class TestIsAdapted:
    def test_not_adapted_power(self):
        v = is_adapted(P("(x2 - x1^2)^2"))
        assert not v.adapted and v.m_pr == 2 and v.d == F(4, 3)
        assert v.witness is not None and v.witness.value == 1

    def test_unbounded_edge_criterion_c(self):
        for n in (2, 3, 5):
            v = is_adapted(P(f"x2^{n}"))
            assert v.adapted and v.criterion == "c"

    def test_noninteger_ratio_shortcut(self):
        v = is_adapted(P("x1^3 + x2^2"))
        assert v.adapted and v.criterion == "a" and v.ratio_shortcut
        assert v.m_pr < v.d

    def test_vertex_criterion_b(self):
        v = is_adapted(P("x1*x2"))
        assert v.adapted and v.criterion == "b"


def _record_judgements(monkeypatch):
    """Wrap ``is_adapted`` and ``linear_height`` in every pipeline module
    that calls them; returns the (polynomial, verdict) log and the
    linear-height call log."""
    judged, linear = [], []
    real_is_adapted, real_linear_height = adapted.is_adapted, adapted.linear_height

    def spy_is_adapted(phi):
        verdict = real_is_adapted(phi)
        judged.append((phi, verdict))
        return verdict

    def spy_linear_height(phi, *args, **kwargs):
        linear.append(phi)
        return real_linear_height(phi, *args, **kwargs)

    for mod in (adapted, splitting, exponents):
        if hasattr(mod, "is_adapted"):
            monkeypatch.setattr(mod, "is_adapted", spy_is_adapted)
        if hasattr(mod, "linear_height"):
            monkeypatch.setattr(mod, "linear_height", spy_linear_height)
    return judged, linear


class TestShearWitness:
    """``is_adapted`` alone picks the circle root each shear kills."""

    def test_witness_is_the_positive_side_root_exceeding_d(self, monkeypatch):
        judged, _linear = _record_judgements(monkeypatch)
        for text in ACCEPTANCE:
            analyze(parse_expression(text))
        shear_steps = 0
        for phi, verdict in judged:
            if verdict.adapted:
                assert verdict.witness is None
                continue
            assert verdict.witness.multiplicity > verdict.d
            if verdict.weight.a.denominator != 1:
                continue  # linear_height swaps; no shear reads this witness
            # reference: the distance-exceeding root of p(1, t), isolated here
            pr = kappa_principal_part(phi, verdict.weight)
            best = None
            for rec in squarefree_real_roots(UniPoly(pr.restrict_x1(1))):
                if rec.multiplicity > verdict.d and (
                        best is None or rec.multiplicity > best.multiplicity):
                    best = rec
            assert verdict.witness == best
            shear_steps += 1
        assert shear_steps > len(ACCEPTANCE) // 2

    def test_analyze_judges_each_polynomial_once(self, monkeypatch):
        judged, linear = _record_judgements(monkeypatch)
        for text in ACCEPTANCE:
            del judged[:], linear[:]
            analyze(parse_expression(text))
            polys = [phi for phi, _verdict in judged]
            assert len(polys) == len(set(polys)), text
            assert len(linear) == 1, text


class TestHeight:
    def test_power_family(self):
        for m, n in [(2, 2), (2, 5), (3, 4)]:
            assert height(P(f"(x2 - x1^{m})^{n}"))[0] == n

    def test_sum_of_squares(self):
        assert height(P("x1^2 + x2^2"))[0] == 1

    def test_example_12_2(self):
        assert height(P("(x2 - x1^2 - x1^3)*(x2 - x1^2 - x1^4)^3"))[0] == 3


class TestLinearHeight:
    def test_already_linearly_adapted(self):
        lh = linear_height(P("(x2 - x1^2)^2"))
        assert lh.h_lin == F(4, 3)
        assert lh.transform == ((1, 0), (0, 1))
        assert not lh.adapted_linear_exists
        assert lh.m == 2

    def test_equal_weight_shear(self):
        lh = linear_height(P("(x2 - x1)^2"))
        assert lh.h_lin == 2
        assert lh.adapted_linear_exists
        assert lh.transformed == P("x2^2")

    def test_vertex_adapted(self):
        lh = linear_height(P("x1*x2"))
        assert lh.h_lin == 1 and lh.adapted_linear_exists

    def test_shear_stability_above_principal_weight(self):
        # an x1-shear by c*x2 leaves the principal face and d unchanged
        # whenever k2 > k1 for the principal face
        phi = P("(x2 - x1^2)^3 + x1^9")
        d0 = NewtonPolyhedron.of(phi).distance()
        for c in (F(1), F(-2), F(1, 3)):
            moved = phi.linear_substitute(((F(1), c), (F(0), F(1))))
            assert NewtonPolyhedron.of(moved).distance() == d0

    def test_m_invariant_across_unimodular_precompositions(self):
        phi = P("(x2 - x1^2)^2 + x1^5")
        base = linear_height(phi)
        rng = random.Random(3)
        for _ in range(6):
            c = F(rng.randint(-3, 3))
            pre = phi.linear_substitute(((F(1), c), (F(0), F(1))))
            assert linear_height(pre).m == base.m


class TestClassification:
    def test_a4(self):
        c = classify_singularity(P("(x2 - x1^2)^2 + x1^5"))
        assert (c.family, c.index, c.m, c.n) == ("A", 4, 2, 5)
        assert c.label == "A4" and c.exact

    def test_a_infinity_exactly_zero(self):
        c = classify_singularity(P("(x2 - x1^2)^2"))
        assert c.family == "A" and c.index is None and c.n is None
        assert c.exact and c.b0 is not None and c.b0.is_zero()

    def test_d8(self):
        c = classify_singularity(P("x1*(x2 - x1^2)^2 + x1^7"))
        assert (c.family, c.index, c.m, c.n) == ("D", 8, 2, 7)

    def test_d_infinity(self):
        c = classify_singularity(P("x1*(x2 - x1^2)^2"))
        assert c.family == "D" and c.index is None and c.exact

    def test_nontrivial_jet_and_unit(self):
        c = classify_singularity(P("(x2 - x1^2 - x1^3)^2 + x1^9"))
        assert (c.family, c.m, c.n) == ("A", 2, 9)
        assert list(c.psi_truncation.coeffs) == [0, 0, 1, 1]

    def test_linear_normalization(self):
        # same input after x2 -> x2 + 3 x1 must classify identically
        phi = P("(x2 - x1^2)^2 + x1^5")
        moved = phi.linear_substitute(((F(1), F(0)), (F(3), F(1))))
        c = classify_singularity(moved)
        assert (c.family, c.index) == ("A", 4)

    def test_rejects_high_linear_height(self):
        with pytest.raises(ValueError):
            classify_singularity(P("(x2 - x1^2)^4"))

    def test_rejects_adapted(self):
        with pytest.raises(ValueError):
            classify_singularity(P("x1^3 + x2^2"))

    def test_distance_formula_consistency(self):
        for text, fam, m in [("(x2 - x1^3)^2 + x1^8", "A", 3),
                             ("x1*(x2 - x1^3)^2 + x1^10", "D", 3)]:
            c = classify_singularity(P(text))
            assert c.family == fam and c.m == m
            d = NewtonPolyhedron.of(P(text)).distance()
            expect = F(2 * m, m + 1) if fam == "A" else F(2 * m + 1, m + 1)
            assert d == expect
            assert linear_height(P(text)).h_lin == d
