from fractions import Fraction as F

import pytest

from nrestrict.geometry import NewtonPolyhedron
from nrestrict.parser import parse_expression
from nrestrict.poly import PuiseuxPoly
from nrestrict.splitting import (RootJet, adapted_coordinates,
                                 condition_r_check, fine_splitting_trace,
                                 select_l_pr)


def P(text):
    return parse_expression(text).poly


EX122 = "(x2 - x1^2 - x1^3)*(x2 - x1^2 - x1^4)^3"


class TestAdaptedCoordinates:
    def test_power_family(self):
        for m, n in [(2, 2), (2, 5), (3, 4)]:
            ac = adapted_coordinates(P(f"(x2 - x1^{m})^{n}"))
            assert ac.psi.terms == ((F(1), F(m)),)
            assert ac.phi_a == P(f"x2^{n}")
            assert ac.h == n

    def test_example_12_2(self):
        ac = adapted_coordinates(P(EX122))
        assert ac.psi.terms == ((F(1), F(2)),)
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
        assert ac.psi.terms == ((F(1), F(2)), (F(1), F(3)))
        assert ac.shear_exponents == (F(2), F(3))
        assert ac.phi_a == P("x2^4 + x1^14")

    def test_jet_leading_exponent_is_integer_ge_two(self):
        for text in [EX122, "(x2 - x1^2)^3", "(x2 - x1^4 - x1^5)^2 + x1^11"]:
            ac = adapted_coordinates(P(text))
            lead = ac.psi.leading_exponent
            assert lead.denominator == 1 and lead >= 2


class TestSelectLpr:
    def test_example_12_2_vertex_case(self):
        ac = adapted_coordinates(P(EX122))
        sel = select_l_pr(ac.phi_a, F(2))
        assert sel.case == "b" and sel.l_pr == 2 and sel.a == 3

    def test_pure_power_case_c2(self):
        sel = select_l_pr(P("x2^5"), F(2))
        assert sel.case == "c2" and sel.a == 2

    def test_compact_interior_case_a(self):
        sel = select_l_pr(P("x2^2 + x1^6"), F(2))
        assert sel.case == "a" and sel.l_pr == 1 and sel.a == 3

    def test_case_c1(self):
        # principal face is the horizontal ray, left endpoint ends an edge
        phi = P("x2^4 + x1*x2^2")
        n = NewtonPolyhedron.of(phi)
        face = n.principal_face()
        assert face.kind == "unbounded_edge"
        sel = select_l_pr(phi, F(2))
        assert sel.case == "c1" and sel.a == n.edges[-1].a


class TestFineSplitting:
    def test_example_12_2(self):
        ac = adapted_coordinates(P(EX122))
        sel = select_l_pr(ac.phi_a, F(2))
        forest = fine_splitting_trace(ac.phi_a, F(2), sel)
        assert len(forest.branches) == 1
        br = forest.branches[0]
        assert br.terminal == "stop_12_9"
        shear = [s for s in br.steps if s.case == "Case3_shear"][0]
        assert shear.root == 1 and shear.multiplicity == 3 and shear.a == 4
        assert shear.post_vertex == (F(3), 3)
        fact = br.factorization
        assert fact.power == 3
        assert fact.jet.terms == ((F(1), F(4)),)
        assert fact.cofactor == P("x2 - x1^3 + x1^4")

    def test_example_12_2_full_factorization(self):
        phi = P(EX122)
        ac = adapted_coordinates(phi)
        sel = select_l_pr(ac.phi_a, F(2))
        br = fine_splitting_trace(ac.phi_a, F(2), sel).branches[0]
        full_jet = ac.psi.to_poly() + br.factorization.jet.to_poly()
        cof_x = br.factorization.cofactor.shear_substitute(-full_jet)
        linear = PuiseuxPoly.x2() - full_jet
        assert (linear ** br.factorization.power) * cof_x == phi

    def test_pure_power_immediate_stop(self):
        sel = select_l_pr(P("x2^2 + x1^6"), F(2))
        forest = fine_splitting_trace(P("x2^2 + x1^6"), F(2), sel)
        # principal part x2^2 + x1^6 has no real roots off t = 0... the
        # restriction t^2 + 1 has none at all, so the branch ends immediately
        assert forest.branches[0].terminal == "adapted_reached"
        assert forest.branches[0].steps[-1].case == "Case1_no_root"

    def test_vertex_with_no_lower_edge_stops(self):
        phi = P("x1*x2^5 + x1^3*x2^3")
        sel = select_l_pr(phi, F(2))
        assert sel.case == "b"
        forest = fine_splitting_trace(phi, F(2), sel)
        br = forest.branches[0]
        assert br.terminal == "stop_12_9" and br.factorization.power == 3

    def test_polyhedra_agree_above_bisectrix(self):
        phi = P(EX122)
        ac = adapted_coordinates(phi)
        sel = select_l_pr(ac.phi_a, F(2))
        br = fine_splitting_trace(ac.phi_a, F(2), sel).branches[0]
        jet = br.factorization.jet.to_poly()
        moved = ac.phi_a.shear_substitute(jet)
        above = lambda n: {v for v in n.vertices if v[1] > v[0]}
        assert above(NewtonPolyhedron.of(moved)) == \
            above(NewtonPolyhedron.of(ac.phi_a))

    def test_multiplicities_bounded_by_height(self):
        phi = P(EX122)
        ac = adapted_coordinates(phi)
        sel = select_l_pr(ac.phi_a, F(2))
        forest = fine_splitting_trace(ac.phi_a, F(2), sel)
        for br in forest.branches:
            mults = [s.multiplicity for s in br.steps
                     if s.case == "Case3_shear"]
            assert all(m <= ac.h for m in mults)
            assert mults == sorted(mults, reverse=True)

    def test_fractional_branching(self):
        # adapted form whose splitting needs a half-integer shear exponent
        phi = P("(x2^2 - x1^5)^2 + x1^40")
        assert NewtonPolyhedron.of(phi).distance() == F(20, 7)
        sel = select_l_pr(phi, F(2))
        assert sel.case == "a"
        forest = fine_splitting_trace(phi, F(2), sel)
        fractional = [s for br in forest.branches for s in br.steps
                      if s.a is not None and s.a.denominator > 1]
        assert fractional, "expected a fractional-exponent level"

    def test_irrational_root_halts_branch(self):
        phi = P("(x2^2 - 2*x1^2)^2")
        sel = select_l_pr(phi, F(2))
        forest = fine_splitting_trace(phi, F(2), sel)
        assert "algebraic_root_halt" in forest.terminals()
        halted = [b for b in forest.branches
                  if b.terminal == "algebraic_root_halt"]
        assert len(halted) == 2  # one branch per sign of sqrt(2)
        assert halted[0].halt["multiplicity"] == 2


class TestConditionR:
    def test_example_12_2(self):
        phi = P(EX122)
        jet = RootJet(((F(1), F(2)), (F(1), F(4))))
        cof = condition_r_check(phi, jet, 3)
        assert cof == P("x2 - x1^3 + x1^4")

    def test_square_cofactor_one(self):
        cof = condition_r_check(P("(x2 - x1^2)^2"),
                                RootJet(((F(1), F(2)),)), 2)
        assert cof == PuiseuxPoly.constant(1)

    def test_vacuous_at_level_zero(self):
        cof = condition_r_check(P("(x2 - x1^2)^2 + x1^5"),
                                RootJet(((F(1), F(2)),)), 0)
        assert cof == P("x2^2 + x1^5")

    def test_rejects_non_maximal_level(self):
        with pytest.raises(ValueError):
            condition_r_check(P("(x2 - x1^2)^2"), RootJet(((F(1), F(2)),)), 1)


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
            except ValueError:
                continue
            if doc.forest is None:
                continue
            for br in doc.forest.branches:
                if br.terminal != "stop_12_9":
                    continue
                full = doc.exponent.coords.psi.to_poly() + \
                    br.factorization.jet.to_poly()
                cof = br.factorization.cofactor.shear_substitute(-full)
                lhs = (x2() - full) ** br.factorization.power * cof
                assert lhs == doc.exponent.linear.transformed
                verified += 1
        assert verified >= 15
