from fractions import Fraction as F

import pytest

from nrestrict.adapted import is_adapted
from nrestrict.geometry import NewtonPolyhedron
from nrestrict.parser import parse_expression
from nrestrict.poly import PuiseuxPoly
from nrestrict.splitting import (adapted_coordinates, fine_splitting_trace,
                                 select_l_pr)


def P(text):
    return parse_expression(text).poly


EX122 = "(x2 - x1^2 - x1^3)*(x2 - x1^2 - x1^4)^3"


def split(phi_a, m=F(2)):
    """Edge selection and fine-splitting forest of adapted ``phi_a``."""
    verdict = is_adapted(phi_a)
    sel = select_l_pr(verdict.polyhedron, m)
    return sel, fine_splitting_trace(phi_a, verdict, sel)


class TestAdaptedCoordinates:
    def test_power_family(self):
        for m, n in [(2, 2), (2, 5), (3, 4)]:
            ac = adapted_coordinates(P(f"(x2 - x1^{m})^{n}"))
            assert ac.psi == P(f"x1^{m}")
            assert ac.phi_a == P(f"x2^{n}")
            assert ac.h == n

    def test_example_12_2(self):
        ac = adapted_coordinates(P(EX122))
        assert ac.psi == P("x1^2")
        assert ac.phi_a == P("(x2 - x1^3)*(x2 - x1^4)^3")
        assert ac.h == 3

    def test_adapted_input_returns_zero_jet(self):
        ac = adapted_coordinates(P("x1^3 + x2^2"))
        assert ac.psi.is_zero()
        assert ac.phi_a == P("x1^3 + x2^2")

    def test_idempotence(self):
        ac = adapted_coordinates(P(EX122))
        again = adapted_coordinates(ac.phi_a)
        assert again.psi.is_zero() and again.phi_a == ac.phi_a

    def test_multi_step_jet(self):
        phi = P("(x2 - x1^2 - x1^3)^4 + x1^14")
        ac = adapted_coordinates(phi)
        assert ac.psi == P("x1^2 + x1^3")
        assert ac.phi_a == P("x2^4 + x1^14")

    def test_jet_leading_exponent_is_integer_ge_two(self):
        for text in [EX122, "(x2 - x1^2)^3", "(x2 - x1^4 - x1^5)^2 + x1^11"]:
            ac = adapted_coordinates(P(text))
            lead = ac.psi.min_e1()
            assert lead.denominator == 1 and lead >= 2


class TestPublicApiErrors:
    @pytest.mark.parametrize("call, message", [
        (lambda: adapted_coordinates(P("x1 + x2^2")),
         "need a critical point at the origin"),
        # the principal face x2 = x1^(1/2) of a non-linearly-adapted input
        (lambda: adapted_coordinates(P("(x1 - x2^2)^2")),
         "need linearly adapted input; the principal face has ratio 1/2"),
        (lambda: select_l_pr(NewtonPolyhedron.of(P("x1^2*x2^2 + x1^5")),
                             F(2)),
         "bisectrix vertex with no edge above it"),
        (lambda: select_l_pr(NewtonPolyhedron.of(P("x1^3*x2 + x1^5")), F(2)),
         "vertical unbounded principal face has no root jet"),
        (lambda: split(P("x2^5")),
         "fine splitting applies to the compact-edge and bisectrix-vertex "
         "cases only"),
    ], ids=["linear-term", "not-linearly-adapted", "first-vertex",
            "vertical-ray", "case-c2"])
    def test_rejects(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


class TestSelectLpr:
    def test_example_12_2_vertex_case(self):
        ac = adapted_coordinates(P(EX122))
        sel = select_l_pr(ac.verdict.polyhedron, F(2))
        assert sel.case == "b" and sel.l_pr == 2 and sel.a == 3

    def test_pure_power_case_c2(self):
        sel = select_l_pr(NewtonPolyhedron.of(P("x2^5")), F(2))
        assert sel.case == "c2" and sel.a == 2

    def test_compact_interior_case_a(self):
        sel = select_l_pr(NewtonPolyhedron.of(P("x2^2 + x1^6")), F(2))
        assert sel.case == "a" and sel.l_pr == 1 and sel.a == 3

    def test_case_c1(self):
        # principal face is the horizontal ray, left endpoint ends an edge
        phi = P("x2^4 + x1*x2^2")
        n = NewtonPolyhedron.of(phi)
        face = n.principal_face()
        assert face.kind == "unbounded_edge"
        sel = select_l_pr(n, F(2))
        assert sel.case == "c1" and sel.a == n.edges[-1].a


class TestFineSplitting:
    def test_example_12_2(self):
        ac = adapted_coordinates(P(EX122))
        _sel, forest = split(ac.phi_a)
        assert len(forest.branches) == 1
        br = forest.branches[0]
        assert br.terminal == "stop_12_9"
        shear = [s for s in br.steps if s.case == "Case3_shear"][0]
        assert shear.root == 1 and shear.multiplicity == 3 and shear.a == 4
        assert shear.post_vertex == (F(3), 3)
        fact = br.factorization
        assert fact.power == 3
        assert fact.jet == P("x1^4")
        assert fact.cofactor == P("x2 - x1^3 + x1^4")

    def test_example_12_2_full_factorization(self):
        phi = P(EX122)
        ac = adapted_coordinates(phi)
        br = split(ac.phi_a)[1].branches[0]
        full_jet = ac.psi + br.factorization.jet
        cof_x = br.factorization.cofactor.shear_substitute(-full_jet)
        linear = PuiseuxPoly.x2() - full_jet
        assert (linear ** br.factorization.power) * cof_x == phi

    def test_pure_power_immediate_stop(self):
        _sel, forest = split(P("x2^2 + x1^6"))
        # principal part x2^2 + x1^6 has no real roots off t = 0... the
        # restriction t^2 + 1 has none at all, so the branch ends immediately
        assert forest.branches[0].terminal == "adapted_reached"
        assert forest.branches[0].steps[-1].case == "Case1_no_root"

    def test_vertex_with_no_lower_edge_stops(self):
        phi = P("x1*x2^5 + x1^3*x2^3")
        sel, forest = split(phi)
        assert sel.case == "b"
        br = forest.branches[0]
        assert br.terminal == "stop_12_9" and br.factorization.power == 3

    def test_polyhedra_agree_above_bisectrix(self):
        phi = P(EX122)
        ac = adapted_coordinates(phi)
        br = split(ac.phi_a)[1].branches[0]
        moved = ac.phi_a.shear_substitute(br.factorization.jet)
        above = lambda n: {v for v in n.vertices if v[1] > v[0]}
        assert above(NewtonPolyhedron.of(moved)) == \
            above(NewtonPolyhedron.of(ac.phi_a))

    def test_multiplicities_bounded_by_height(self):
        phi = P(EX122)
        ac = adapted_coordinates(phi)
        _sel, forest = split(ac.phi_a)
        for br in forest.branches:
            mults = [s.multiplicity for s in br.steps
                     if s.case == "Case3_shear"]
            assert all(m <= ac.h for m in mults)
            assert mults == sorted(mults, reverse=True)

    def test_fractional_branching(self):
        # adapted form whose splitting needs a half-integer shear exponent
        phi = P("(x2^2 - x1^5)^2 + x1^40")
        assert NewtonPolyhedron.of(phi).distance() == F(20, 7)
        sel, forest = split(phi)
        assert sel.case == "a"
        fractional = [s for br in forest.branches for s in br.steps
                      if s.a is not None and s.a.denominator > 1]
        assert fractional, "expected a fractional-exponent level"

    def test_irrational_root_halts_branch(self):
        phi = P("(x2^2 - 2*x1^2)^2")
        _sel, forest = split(phi)
        assert "algebraic_root_halt" in [b.terminal for b in forest.branches]
        halted = [b for b in forest.branches
                  if b.terminal == "algebraic_root_halt"]
        assert len(halted) == 2  # one branch per sign of sqrt(2)
        assert halted[0].halt["multiplicity"] == 2


class TestRandomizedFactorizations:
    def test_product_inputs_factor_exactly(self):
        # products of shifted powers: every stop_12_9 branch must hand back
        # a jet and cofactor that reproduce the input exactly
        import random

        from nrestrict.parser import InputExpr, render
        from nrestrict.report import analyze

        x2 = PuiseuxPoly.x2
        rng = random.Random(777)
        verified = 0
        for _ in range(60):
            lead_e = rng.randint(2, 3)
            lead_c = rng.choice([1, -1, 2])
            phi = PuiseuxPoly.constant(1)
            for _ in range(rng.randint(1, 3)):
                jet = PuiseuxPoly.monomial(lead_c, lead_e, 0)
                for _ in range(rng.randint(0, 2)):
                    e = rng.randint(lead_e + 1, lead_e + 4)
                    jet = jet + PuiseuxPoly.monomial(
                        rng.choice([1, -1, 2, F(1, 2)]), e, 0)
                phi = phi * (x2() - jet) ** rng.randint(1, 3)
            if rng.random() < 0.5:
                phi = phi + PuiseuxPoly.monomial(
                    rng.choice([1, -1]),
                    int(phi.total_degree()) + rng.randint(1, 4), 0)
            if not phi.vanishes_to_second_order():
                continue
            try:
                doc = analyze(InputExpr(render(phi), phi))
                forest = doc.forest
            except ValueError:
                continue
            if forest is None:
                continue
            for br in forest.branches:
                if br.terminal != "stop_12_9":
                    continue
                full = doc.exponent.coords.psi + br.factorization.jet
                cof = br.factorization.cofactor.shear_substitute(-full)
                lhs = (x2() - full) ** br.factorization.power * cof
                assert lhs == doc.exponent.linear.transformed
                verified += 1
        assert verified >= 15
