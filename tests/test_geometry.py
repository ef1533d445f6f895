import random
from fractions import Fraction as F

import pytest

from nrestrict.geometry import (NewtonPolyhedron, Weight, h_l_of_edge,
                                kappa_principal_part, r_height)
from nrestrict.parser import parse_expression
from nrestrict.poly import PuiseuxPoly

from oracles import brute_hull_vertices, expand_example_12_2_adapted


def P(text):
    return parse_expression(text).poly


def pts(*pairs):
    return [(F(a), F(b)) for a, b in pairs]


def taylor_support(phi):
    return frozenset(NewtonPolyhedron.of(phi).support)


class TestTaylorSupport:
    def test_expanded_square(self):
        assert taylor_support(P("(x2 - x1^2)^2")) == frozenset(pts(
            (0, 2), (2, 1), (4, 0)))

    def test_example_12_2_adapted_expansion_oracle(self):
        oracle = expand_example_12_2_adapted()
        phi = P("(x2 - x1^3)*(x2 - x1^4)^3")
        assert taylor_support(phi) == frozenset(
            (e1, F(e2)) for (e1, e2) in oracle)
        assert taylor_support(phi) == frozenset(pts(
            (0, 4), (3, 3), (4, 3), (7, 2), (8, 2), (11, 1), (12, 1), (15, 0)))

    def test_single_term(self):
        assert taylor_support(P("x2^2")) == frozenset(pts((0, 2)))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            taylor_support(PuiseuxPoly.zero())


class TestPolyhedron:
    def test_example_12_2_vertices_and_weights(self):
        # The published worked example lists this third vertex as (0, 15);
        # the expansion (and the stated second weight, whose line passes
        # through (15, 0)) give (15, 0), which is what the tool computes.
        n = NewtonPolyhedron.of(P("(x2 - x1^3)*(x2 - x1^4)^3"))
        assert n.vertices == pts((0, 4), (3, 3), (15, 0))
        assert [(e.weight.k1, e.weight.k2) for e in n.edges] == [
            (F(1, 12), F(1, 4)), (F(1, 15), F(4, 15))]
        assert [e.a for e in n.edges] == [F(3), F(4)]

    def test_single_vertex_two_rays(self):
        n = NewtonPolyhedron.of(P("x2^2"))
        assert n.vertices == pts((0, 2))
        assert n.edges == []
        assert n.horizontal_level == 2 and not n.vertical_ray_present

    def test_power_family_weights(self):
        for m, nn in [(2, 2), (3, 5), (4, 3)]:
            n = NewtonPolyhedron.of(P(f"(x2 - x1^{m})^{nn}"))
            assert n.vertices == pts((0, nn), (m * nn, 0))
            w = n.edges[0].weight
            assert (w.k1, w.k2) == (F(1, m * nn), F(1, nn))

    @pytest.mark.parametrize("text, ratio, message", [
        ("x2^2 + x1^4", F(0), "ratio must be positive"),
        ("1 + x1^2", F(2), "support touches the origin"),
    ])
    def test_supporting_weight_rejects(self, text, ratio, message):
        n = NewtonPolyhedron.of(P(text))
        with pytest.raises(ValueError, match=message):
            n.supporting_weight_for_ratio(ratio)

    def test_vertex_monotonicity(self):
        n = NewtonPolyhedron.of(P("(x2 - x1^3)*(x2 - x1^4)^3"))
        for u, v in zip(n.vertices, n.vertices[1:]):
            assert u[0] < v[0] and u[1] > v[1]


class TestHullOracle:
    def test_random_supports_match_brute_force(self):
        rng = random.Random(20240811)
        for _ in range(60):
            support = {(F(rng.randint(0, 30)), F(rng.randint(0, 30)))
                       for _ in range(rng.randint(1, 10))}
            phi = PuiseuxPoly({(e1, int(e2)): F(1) for (e1, e2) in support})
            got = NewtonPolyhedron.of(phi).vertices
            assert got == brute_hull_vertices(sorted(support))


class TestDistance:
    def test_examples(self):
        assert NewtonPolyhedron.of(P("(x2 - x1^2)^2")).distance() == F(4, 3)
        assert NewtonPolyhedron.of(
            P("(x2 - x1^2 - x1^3)*(x2 - x1^2 - x1^4)^3")).distance() == F(8, 3)
        assert NewtonPolyhedron.of(P("x1^2 + x2^2")).distance() == 1

    def test_distance_from_edge_weight(self):
        # d = 1/(k1 + k2) whenever the bisectrix crosses a compact edge
        n = NewtonPolyhedron.of(P("(x2 - x1^2)^2"))
        face = n.principal_face()
        assert face.kind == "compact_edge"
        w = face.edge.weight
        assert n.distance() == 1 / (w.k1 + w.k2)


class TestPrincipalPart:
    def test_full_edge(self):
        phi = P("(x2 - x1^2)^2")
        w = Weight(F(1, 4), F(1, 2))
        assert kappa_principal_part(phi, w) == phi

    def test_example_12_2_second_edge(self):
        phi = P("(x2 - x1^3)*(x2 - x1^4)^3")
        got = kappa_principal_part(phi, Weight(F(1, 15), F(4, 15)))
        assert got == P("-x1^3*(x2 - x1^4)^3")

    def test_unbounded_principal_face(self):
        n = NewtonPolyhedron.of(P("x2^2"))
        face = n.principal_face()
        assert face.kind == "unbounded_edge" and face.orientation == "horizontal"


class TestEdgeHeights:
    def test_example_12_2_values(self):
        assert h_l_of_edge(Weight(F(1, 12), F(1, 4)), F(2)) == F(11, 4)
        assert h_l_of_edge(Weight(F(1, 15), F(4, 15)), F(2)) == F(13, 5)

    def test_principal_line_gives_distance(self):
        # with m = k2/k1 the formula collapses to 1/(k1 + k2)
        w = Weight(F(1, 12), F(1, 4))
        assert h_l_of_edge(w, w.a) == 1 / (w.k1 + w.k2)

    def test_horizontal_limit(self):
        # a horizontal line (k1 = 0) supports no polyhedron, so it is no
        # weight; as the edges flatten, h_l rises to its value there, 4
        with pytest.raises(ValueError):
            Weight(F(0), F(1, 5))
        heights = [h_l_of_edge(Weight(F(1, 10 ** e), F(1, 5)), F(2))
                   for e in range(1, 7)]
        assert heights == sorted(heights) and heights[-1] < 4
        assert 4 - heights[-1] < F(1, 10 ** 4)

    def test_steeper_edges_stay_below_their_distance(self):
        # h_l < 1/(k1+k2) whenever a_l > m
        for k1, k2, m in [(F(1, 12), F(1, 4), F(2)), (F(1, 15), F(4, 15), F(3))]:
            w = Weight(k1, k2)
            if w.a > m:
                assert h_l_of_edge(w, m) < 1 / (k1 + k2)


class TestRHeight:
    def test_example_12_2(self):
        rh = r_height(NewtonPolyhedron.of(P("(x2 - x1^3)*(x2 - x1^4)^3")),
                      F(2))
        assert rh.value == F(11, 4)
        assert rh.anchor == (F(0), F(4))
        assert rh.crossing == (F(3, 4), F(15, 4))

    def test_horizontal_crossing(self):
        rh = r_height(NewtonPolyhedron.of(P("x2^5")), F(2))
        assert rh.value == 4
        assert rh.crossing == (F(2), F(5))

    def test_augmented_halfline_crossing(self):
        rh = r_height(NewtonPolyhedron.of(P("x2^2")), F(2))
        assert rh.value == F(4, 3)
        assert rh.crossing == (F(-2, 3), F(7, 3))

    def test_dual_routes_on_random_supports(self):
        rng = random.Random(7)
        for _ in range(40)      :
            support = {(F(rng.randint(0, 12)), F(rng.randint(0, 8)))
                       for _ in range(rng.randint(1, 6))}
            phi = PuiseuxPoly({(e1, int(e2)): F(rng.choice([1, -1, 2]))
                               for (e1, e2) in support})
            m = F(rng.randint(2, 4))
            # internal assertion compares both routes
            rh = r_height(NewtonPolyhedron.of(phi), m)
            assert rh.crossing[1] - 1 == rh.value


from hypothesis import example, given, settings
from hypothesis import strategies as st

support_strategy = st.sets(
    st.tuples(st.integers(0, 16), st.integers(0, 10)),
    min_size=1, max_size=7).map(
        lambda pts: sorted((F(a), F(b)) for a, b in pts))


class TestRHeightProperty:
    @given(support_strategy, st.integers(2, 5))
    @settings(max_examples=150, deadline=None)
    def test_formula_equals_geometry(self, support, m):
        pts = [p for p in support if p[0] + p[1] > 0]
        if not pts:
            return
        phi = PuiseuxPoly({(e1, int(e2)): F(1) for (e1, e2) in pts})
        rh = r_height(NewtonPolyhedron.of(phi), F(m))  # internal dual assertion
        formula = max([rh.distance_term, rh.horizontal_term]
                      + [h for (_a, h) in rh.edge_terms])
        assert rh.value == formula == rh.crossing[1] - 1


ramified_polys = st.builds(
    lambda terms: PuiseuxPoly({(F(num, den), e2): F(c, d)
                               for (c, d, num, den, e2) in terms}),
    st.lists(st.tuples(st.integers(-5, 5).filter(bool), st.integers(1, 3),
                       st.integers(0, 12), st.sampled_from([1, 2, 3, 5]),
                       st.integers(0, 6)),
             min_size=1, max_size=8))


class TestPolyhedronAgainstBruteForce:
    """``NewtonPolyhedron.of`` on the integer lattice against the definition:
    a vertex is a support point outside the hull of the other points plus
    the quadrant, and an edge's weight puts both ends at level one and every
    support point at level one or above."""

    @given(ramified_polys)
    @settings(max_examples=150, deadline=None)
    @example(P("x1^4 + x1^2*x2 + x2^2"))  # collinear: (2, 1) is no vertex
    @example(P("x2^2 + x1^(3/2)*x2 + x1^3 + x1^(1/2)*x2^3"))
    def test_vertices_and_edge_weights(self, phi):
        n = NewtonPolyhedron.of(phi)
        support = sorted((e1, F(e2)) for (e1, e2) in phi.support())
        assert n.support == support
        assert n.vertices == brute_hull_vertices(support)
        for e, (u, v) in zip(n.edges, zip(n.vertices, n.vertices[1:])):
            # Cramer's rule for k1*t1 + k2*t2 = 1 through u and v
            det = u[0] * v[1] - v[0] * u[1]
            k1, k2 = (v[1] - u[1]) / det, (u[0] - v[0]) / det
            assert (e.weight.k1, e.weight.k2) == (k1, k2)
            assert min(k1 * t1 + k2 * t2 for t1, t2 in support) == 1
