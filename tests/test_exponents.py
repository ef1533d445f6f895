from fractions import Fraction as F

import pytest

from nrestrict.adapted import classify_singularity
from nrestrict.exponents import (critical_exponent, h_f, h_r_tilde_sample,
                                 knapp_certificate, knapp_certificates_all,
                                 knapp_exponent_max)
from nrestrict.parser import parse_expression
from nrestrict.report import analyze
from nrestrict.splitting import RootJet

from make_golden import ACCEPTANCE
from test_adapted import _record_judgements


def P(text):
    return parse_expression(text).poly


def jet(*terms):
    return RootJet(tuple(
        (F(c), F(*e) if isinstance(e, tuple) else F(e)) for c, e in terms))


EX122 = "(x2 - x1^2 - x1^3)*(x2 - x1^2 - x1^4)^3"


class TestCriticalExponent:
    def test_square(self):
        rep = critical_exponent(P("(x2 - x1^2)^2"))
        assert rep.p_c_prime == F(14, 3)
        assert rep.source == "r_height_2hr_plus_2"
        assert (rep.h, rep.h_lin, rep.h_r) == (2, F(4, 3), F(4, 3))

    def test_fifth_power(self):
        rep = critical_exponent(P("(x2 - x1^2)^5"))
        assert rep.p_c_prime == 10 and rep.h_r == 4

    def test_example_12_2(self):
        rep = critical_exponent(P(EX122))
        assert rep.p_c_prime == F(15, 2) and rep.h_r == F(11, 4)

    def test_adapted_input(self):
        rep = critical_exponent(P("x1^2 + x2^2"))
        assert rep.p_c_prime == 4 and rep.source == "adapted_2h_plus_2"

    def test_theta_bookkeeping(self):
        for text in ["(x2 - x1^2)^2", EX122, "x1^2 + x2^2"]:
            rep = critical_exponent(P(text))
            assert rep.theta * rep.p_c_prime == 2

    def test_theta_window_for_classified_normal_forms(self):
        # type A: theta = (m+1)/(3m+1); type D: (m+1)/(3m+2); both in (1/3, 3/7]
        cases = [("(x2 - x1^2)^2 + x1^5", "A", 2),
                 ("(x2 - x1^3)^2 + x1^8", "A", 3),
                 ("x1*(x2 - x1^2)^2 + x1^7", "D", 2),
                 ("x1*(x2 - x1^3)^2 + x1^9", "D", 3)]
        for text, fam, m in cases:
            rep = critical_exponent(P(text))
            cls = classify_singularity(P(text))
            assert (cls.family, cls.m) == (fam, m)
            expect = (F(m + 1, 3 * m + 1) if fam == "A"
                      else F(m + 1, 3 * m + 2))
            assert rep.theta == expect
            assert F(1, 3) < rep.theta <= F(3, 7)

    def test_corollary_low_distance(self):
        # h_lin < 2 forces p_c' = 2d + 2
        for text in ["(x2 - x1^2)^2 + x1^5", "x1*(x2 - x1^2)^2 + x1^7",
                     "(x2 - x1^2)^2"]:
            rep = critical_exponent(P(text))
            assert rep.h_lin < 2
            assert rep.p_c_prime == 2 * rep.h_lin + 2


class TestUnboundedAdaptedFace:
    def test_pipeline_through_case_c2(self):
        # adapted expression is y2^2 (1 + y1): single vertex, horizontal
        # principal face; no fine splitting applies but the exponent pipeline
        # still lands on 2 h_r + 2
        from nrestrict.report import analyze
        from nrestrict.parser import parse_expression

        doc = analyze(parse_expression("(x2 - x1^2)^2 + x1*(x2 - x1^2)^2"))
        data = doc.to_json_dict()
        assert data["l_pr_case"]["case"] == "c2"
        assert data["splitting"] is None
        assert data["p_c_prime"] == "14/3"


class TestShearHeight:
    def test_fifth_power_with_its_jet(self):
        assert h_f(P("(x2 - x1^2)^5"), jet((1, 2))) == 4

    def test_square_with_linear_jet(self):
        assert h_f(P("(x2 - x1^2)^2"), jet((1, 1))) == 1

    def test_jet_equals_psi_reproduces_r_height(self):
        rep = critical_exponent(P("(x2 - x1^2)^2"))
        assert h_f(P("(x2 - x1^2)^2"), jet((1, 2))) == rep.h_r == F(4, 3)

    def test_family_values(self):
        phi = P("(x2 - x1^2)^5")
        values = {
            ((F(1), F(1)),): F(5, 2),
            ((F(1), F(2)),): F(4),
            ((F(1), F(2)), (F(1), F(3))): F(7, 2),
            ((F(1), F(2)), (F(-1), F(3))): F(7, 2),
            ((F(1), F(3)),): F(5, 2),
        }
        for terms, expect in values.items():
            assert h_f(phi, RootJet(terms)) == expect

    def test_fractional_jet(self):
        # shear by x1^(3/2): all support lands on the single line of ratio
        # 3/2 through (0,5) and (15/2, 0), so h^f is its bisectrix value 3
        value = h_f(P("(x2 - x1^2)^5"), jet((1, (3, 2))))
        assert value == 3

    def test_rejects_zero_jet(self):
        with pytest.raises(ValueError):
            h_f(P("x2^2"), RootJet(()))


class TestJetSampling:
    def test_nonadapted_sup_attained_at_psi(self):
        samp = h_r_tilde_sample(P("(x2 - x1^2)^5"))
        assert samp.bound_kind == "r_height"
        assert samp.sup_found == samp.bound == 4
        assert len(samp.samples) >= 50
        assert all(s.value <= samp.bound for s in samp.samples)

    def test_nonadapted_input_is_judged_once(self, monkeypatch):
        judged, _linear = _record_judgements(monkeypatch)
        samp = h_r_tilde_sample(P("(x2 - x1^2)^2 + x1^5"))
        assert samp.bound_kind == "r_height"
        polys = [phi for phi, _verdict in judged]
        assert len(polys) == len(set(polys))

    def test_rejected_inputs_keep_their_errors(self):
        with pytest.raises(ValueError, match="integer-exponent"):
            h_r_tilde_sample(P("(x2 - x1^2)^2 + x1^(9/2)"))
        with pytest.raises(ValueError, match="linearly adapted"):
            h_r_tilde_sample(P("(x2 + 2*x1 - x1^2)^2 + x1^5"))
        assert h_r_tilde_sample(P("x1^(3/2) + x2^2")).bound_kind == "distance"

    def test_adapted_compact_face(self):
        samp = h_r_tilde_sample(P("x1^4 + x2^2"))
        assert samp.bound_kind == "distance" and samp.bound == F(4, 3)
        assert samp.sup_found <= F(4, 3)

    def test_adapted_monomials_approach_distance(self):
        # unbounded-face input: h^{x1^n} = 2n/(n+1) increases to d = 2
        phi = P("x2^2 + x1*x2^3")
        values = [h_f(phi, jet((1, n))) for n in range(1, 13)]
        assert values == [F(2 * n, n + 1) for n in range(1, 13)]
        assert all(b > a for a, b in zip(values, values[1:]))
        samp = h_r_tilde_sample(phi)
        assert samp.bound == 2 and samp.sup_found < 2


class TestKnapp:
    def test_example_12_2_edges(self):
        phi = P(EX122)
        c1 = knapp_certificate(phi, jet((1, 2)), ("edge", 1))
        assert c1.derived_exponent == F(15, 2)
        assert c1.box_exponents == (F(1, 12), F(1, 4))
        assert c1.rect_exponents == (F(1, 12), F(1, 6))
        c2 = knapp_certificate(phi, jet((1, 2)), ("edge", 2))
        assert c2.derived_exponent == F(36, 5)

    def test_horizontal_target(self):
        c = knapp_certificate(P("(x2 - x1^2)^5"), jet((1, 2)), ("horizontal",))
        assert c.derived_exponent == 10

    def test_rejects_shallow_edge(self):
        # after shearing x1, the hull of (x2 + x1 - x1^2)^2 has slope-1 edges
        with pytest.raises(ValueError):
            knapp_certificate(P("(x2 - x1^2)^2"), jet((1, 1)), ("edge", 1))

    def test_necessity_matches_sufficiency(self):
        for text in [EX122, "(x2 - x1^2)^2", "(x2 - x1^2)^5",
                     "(x2 - x1^2)^2 + x1^5", "x1*(x2 - x1^2)^2 + x1^7"]:
            rep = critical_exponent(P(text))
            assert rep.coords is not None
            got = knapp_exponent_max(rep.linear.transformed, rep.coords.psi)
            assert got == rep.p_c_prime

    def test_sampled_jets_never_beat_psi(self):
        phi = P(EX122)
        rep = critical_exponent(phi)
        for terms in [((F(1), F(1)),), ((F(1), F(2)), (F(1), F(3))),
                      ((F(1), F(2)), (F(1), F(7, 2)))]:
            assert knapp_exponent_max(phi, RootJet(terms)) <= rep.p_c_prime


class TestCertificatesFromAdaptedPolyhedron:
    """analyze reads the certificates off phi_a's polyhedron; both routes
    through a fresh shear of the transformed input must agree with it."""

    def test_acceptance_inputs(self):
        checked = 0
        for text in ACCEPTANCE:
            doc = analyze(parse_expression(text))
            rep = doc.exponent
            if rep.coords is None:
                continue
            psi = rep.coords.psi
            assert rep.coords.phi_a == \
                rep.linear.transformed.shear_substitute(psi.to_poly()), text
            assert doc.certificates == \
                knapp_certificates_all(rep.linear.transformed, psi), text
            for cert in doc.certificates:
                target = ((cert.target, cert.edge_index)
                          if cert.target == "edge" else (cert.target,))
                assert cert == knapp_certificate(rep.linear.transformed, psi,
                                                 target), text
            checked += 1
        assert checked == len(ACCEPTANCE)
