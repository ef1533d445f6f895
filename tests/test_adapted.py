import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nrestrict import adapted, exponents, splitting
from nrestrict.adapted import classify_linear, is_adapted, linear_height
from nrestrict.errors import InternalInvariantError
from nrestrict.exponents import critical_exponent
from nrestrict.geometry import NewtonPolyhedron, Weight, kappa_principal_part
from nrestrict.parser import parse_expression
from nrestrict.poly import PuiseuxPoly
from nrestrict.report import analyze
from nrestrict.roots import RootRecord, squarefree_real_roots

from make_golden import ACCEPTANCE, INPUTS, LADDER
from inputs import EX122, HIGH_CONTACT, NORMAL_FORMS, high_contact
from oracles import series_classification

#: (k, label) of ((x2 - x1)^2 - 5*x1)^2 + x1^k, whose critical branch is an
#: infinite series
K_FAMILY = [(7, "A13"), (11, "A21"), (15, "A29")]


def k_family(k):
    return f"((x2 - x1)^2 - 5*x1)^2 + x1^{k}"


def P(text):
    return parse_expression(text).poly


def classify(phi):
    rep = critical_exponent(phi)
    return classify_linear(rep.linear, rep.h)


def height_of_class(family, n):
    """h = 2n/(n+2) for A_(n-1), 2n/(n+1) for D_(n+1), 2 for n infinite."""
    if n is None:
        return F(2)
    return F(2 * n, n + 2) if family == "A" else F(2 * n, n + 1)


class TestCircleVanishingOrder:
    def test_double_root_on_circle(self):
        assert adapted._circle_roots(P("(x2 - x1^2)^2"), F(2))[0] == 2

    def test_positive_on_circle(self):
        assert adapted._circle_roots(P("x1^2 + x2^2"), F(1))[0] == 0

    def test_axis_zeros(self):
        assert adapted._circle_roots(P("x1*x2"), F(1))[0] == 1

    def test_integer_ratio_reads_the_positive_side(self):
        # p(-1, t) = -p(1, -t): the triple root -1 of p(1, t) suffices
        assert adapted._circle_roots(P("(x2 + x1)^3"), F(1))[0] == 3

    def test_negative_halfplane_root(self):
        # ratio 1/2: p(1, t) = (1 + t^2)^2 has no real root, the order 2
        # comes from p(-1, t) = (t^2 - 1)^2 alone
        order, best, plus = adapted._circle_roots(P("(x1 + x2^2)^2"), F(1, 2))
        assert order == 2 and plus == () and best.value == -1

    def test_homogeneous_height_formula(self):
        # height of a kappa-homogeneous part is max(circle order, 1/|kappa|)
        for text, k, expect_h in [
            ("(x2 - x1^2)^2", Weight(F(1, 4), F(1, 2)), 2),
            ("x1^2 + x2^2", Weight(F(1, 2), F(1, 2)), 1),
        ]:
            p = P(text)
            m = adapted._circle_roots(p, k.a)[0]
            d_h = 1 / (k.k1 + k.k2)
            assert critical_exponent(p).h == max(m, d_h) == expect_h


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
        assert v.adapted and v.criterion == "a"
        a = v.weight.a
        assert a.denominator != 1 and (1 / a).denominator != 1
        assert v.m_pr < v.d

    def test_vertex_criterion_b(self):
        v = is_adapted(P("x1*x2"))
        assert v.adapted and v.criterion == "b"

    def test_negative_side_decides(self):
        # the double roots +-1 of p(-1, t) = (t^2 - 1)^2 exceed d = 4/3
        v = is_adapted(P("(x1 + x2^2)^2"))
        assert not v.adapted and v.m_pr == 2 and v.weight.a == F(1, 2)
        assert v.d == F(4, 3) and v.witness.value == -1 and v.roots == ()

    def test_integer_ratio_sides_mirror(self, monkeypatch):
        """On every edge of integer ratio of every polynomial the pipeline
        judges, p(-1, t) has the root multiplicities of p(1, t), which is
        why ``_circle_roots`` isolates only p(1, t) there."""
        judged, _linear = _record_judgements(monkeypatch)
        for text in INPUTS:
            analyze(parse_expression(text)).to_json()
        edges = 0
        for phi, verdict in judged:
            if phi.ramification != 1:
                continue
            for edge in verdict.polyhedron.edges:
                if edge.a.denominator != 1:
                    continue
                pr = kappa_principal_part(phi, edge.weight)
                plus, minus = (sorted(r.multiplicity for r in
                                      squarefree_real_roots(pr.restrict_x1(s)))
                               for s in (1, -1))
                assert plus == minus, (phi, edge)
                edges += 1
        assert edges > len(INPUTS)


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
            analyze(parse_expression(text)).to_json()
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
            for rec in squarefree_real_roots(pr.restrict_x1(1)):
                if rec.multiplicity > verdict.d and (
                        best is None or rec.multiplicity > best.multiplicity):
                    best = rec
            assert verdict.witness == best
            shear_steps += 1
        assert shear_steps > len(ACCEPTANCE) // 2

    def test_irrational_witness_is_an_internal_error(self):
        # no rational input yields this verdict: the root of multiplicity
        # > d is unique, so it is rational
        phi = P("(x2^2 - 2*x1^2)^2")
        verdict = adapted.AdaptednessVerdict(
            False, None, 2, F(3, 2), Weight(F(1, 4), F(1, 4)),
            RootRecord(2, interval=(F(1), F(2)), factor=(F(-2), F(0), F(1))),
            NewtonPolyhedron.of(phi))
        with pytest.raises(InternalInvariantError, match="irrational"):
            adapted._shear_root(verdict)

    def test_analyze_judges_each_polynomial_once(self, monkeypatch):
        judged, linear = _record_judgements(monkeypatch)
        for text in ACCEPTANCE:
            del judged[:], linear[:]
            analyze(parse_expression(text)).to_json()
            polys = [phi for phi, _verdict in judged]
            assert len(polys) == len(set(polys)), text
            assert len(linear) == 1, text


def _record_rebuilds(monkeypatch):
    """Wrap ``NewtonPolyhedron.of``; returns the log of the functions that
    built a polyhedron of a polynomial already built since the log was
    last cleared."""
    real_of = NewtonPolyhedron.of
    built, rebuilds = set(), []

    def spy_of(phi):
        key = frozenset(phi.terms.items())
        if key in built:
            rebuilds.append(sys._getframe(1).f_code.co_name)
        built.add(key)
        return real_of(phi)

    def clear():
        built.clear()
        rebuilds.clear()

    monkeypatch.setattr(NewtonPolyhedron, "of", staticmethod(spy_of))
    return rebuilds, clear


class TestPolyhedronBuilds:
    """Each stage of ``analyze`` reads the polyhedron the verdict carries."""

    def test_no_rebuilds_on_example_and_ladder(self, monkeypatch):
        rebuilds, clear = _record_rebuilds(monkeypatch)
        for text in [EX122] + LADDER:
            clear()
            analyze(parse_expression(text)).to_json()
            assert rebuilds == [], text

    def test_normal_forms_rebuild_only_for_the_distance_check(
            self, monkeypatch):
        rebuilds, clear = _record_rebuilds(monkeypatch)
        for text, *_ in NORMAL_FORMS:
            clear()
            analyze(parse_expression(text)).to_json()
            assert rebuilds == ["classify_linear"], text


class TestHeight:
    def test_power_family(self):
        for m, n in [(2, 2), (2, 5), (3, 4)]:
            assert critical_exponent(P(f"(x2 - x1^{m})^{n}")).h == n

    def test_sum_of_squares(self):
        assert critical_exponent(P("x1^2 + x2^2")).h == 1

    def test_example_12_2(self):
        assert critical_exponent(
            P("(x2 - x1^2 - x1^3)*(x2 - x1^2 - x1^4)^3")).h == 3


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

    def test_one_change_reaches_a_ratio_of_two(self):
        # a swap at ratio 1/2, and a shear at ratio 1, each end non-adapted
        # at ratio 2 after the second judgement
        for text, t in [("(x1 - x2^2)^2 + x2^5", adapted.SWAP),
                        ("(x2 - x1 - x1^2)^2 + x1^5",
                         adapted._shear_matrix(F(1)))]:
            lh = linear_height(P(text))
            assert lh.transform == t, text
            assert lh.transformed == P("(x2 - x1^2)^2 + x1^5"), text
            assert not lh.adapted_linear_exists and lh.m == 2, text
            assert lh.h_lin == F(4, 3), text

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
        c = classify(P("(x2 - x1^2)^2 + x1^5"))
        assert (c.family, c.index, c.m, c.n) == ("A", 4, 2, 5)
        assert c.label == "A4"

    def test_a_infinity_exactly_zero(self):
        c = classify(P("(x2 - x1^2)^2"))
        assert c.family == "A" and c.index is None and c.n is None

    def test_d8(self):
        c = classify(P("x1*(x2 - x1^2)^2 + x1^7"))
        assert (c.family, c.index, c.m, c.n) == ("D", 8, 2, 7)

    def test_d_infinity(self):
        c = classify(P("x1*(x2 - x1^2)^2"))
        assert c.family == "D" and c.index is None and c.n is None

    def test_nontrivial_jet_and_unit(self):
        c = classify(P("(x2 - x1^2 - x1^3)^2 + x1^9"))
        assert (c.family, c.m, c.n) == ("A", 2, 9)
        assert c.psi_truncation == P("x1^2 + x1^3")

    def test_linear_normalization(self):
        # same input after x2 -> x2 + 3 x1 must classify identically
        phi = P("(x2 - x1^2)^2 + x1^5")
        moved = phi.linear_substitute(((F(1), F(0)), (F(3), F(1))))
        c = classify(moved)
        assert (c.family, c.index) == ("A", 4)

    def test_rejects_high_linear_height(self):
        with pytest.raises(ValueError):
            classify(P("(x2 - x1^2)^4"))

    def test_rejects_adapted(self):
        with pytest.raises(ValueError):
            classify(P("x1^3 + x2^2"))

    def test_distance_formula_consistency(self):
        for text, fam, m in [("(x2 - x1^3)^2 + x1^8", "A", 3),
                             ("x1*(x2 - x1^3)^2 + x1^10", "D", 3)]:
            c = classify(P(text))
            assert c.family == fam and c.m == m
            d = NewtonPolyhedron.of(P(text)).distance()
            expect = F(2 * m, m + 1) if fam == "A" else F(2 * m + 1, m + 1)
            assert d == expect
            assert linear_height(P(text)).h_lin == d

    def test_non_polynomial_branch(self):
        for k, label in K_FAMILY:
            c = classify(P(k_family(k)))
            assert c.label == label and c.m == 2, k

    def test_index_agrees_with_height(self):
        # the high-contact family has n = 2a^2 (A) or 2a^2 + 1 (D), above
        # the series order from a = 5 on
        texts = ([t for t, *_ in NORMAL_FORMS]
                 + [k_family(k) for k, _ in K_FAMILY] + HIGH_CONTACT)
        for text in texts:
            rep = critical_exponent(P(text))
            c = classify_linear(rep.linear, rep.h)
            assert rep.h == height_of_class(c.family, c.n), text
            index = None if c.n is None else (
                c.n - 1 if c.family == "A" else c.n + 1)
            assert c.index == index, text
        for a in range(2, 7):
            for x1 in (False, True):
                c = classify(P(high_contact(a, x1)))
                want = ("D" if x1 else "A", 2 * a * a + x1)
                assert (c.family, c.n) == want, a

    def test_b0_route_rejects_a_wrong_height(self):
        # A4 has n = 5; A (x2 - x1^2)^2 has n infinite; the series order is
        # 20 for both, so phi along the branch shows the true n
        lh = linear_height(P("(x2 - x1^2)^2 + x1^5"))
        for h in (height_of_class("A", 7), F(2)):
            with pytest.raises(InternalInvariantError, match="along the"):
                classify_linear(lh, h)
        with pytest.raises(InternalInvariantError, match="no type A index"):
            classify_linear(lh, F(7, 5))
        lh = linear_height(P("(x2 - x1^2)^2"))
        with pytest.raises(InternalInvariantError, match="along the critical"):
            classify_linear(lh, height_of_class("A", 9))


X1, X2 = PuiseuxPoly.x1(), PuiseuxPoly.x2()
small = st.sampled_from([F(1), F(-1), F(2), F(1, 2), F(-3), F(2, 3)])


@st.composite
def ad_inputs(draw):
    """A/D inputs with polynomial and with series critical branches:
    ``(x2 - q)^2*u + c*x1^k``, ``x1*(x2 - q)^2 + c*x1^k`` and
    ``((x2 - a*x1)^2 - b*x1)^2 + c*x1^k``, perhaps under a rational linear
    change of coordinates; ``c = 0`` gives an infinite index."""
    c = draw(st.sampled_from([F(0), F(1), F(-2), F(1, 2)]))
    shape = draw(st.sampled_from(["A", "D", "quartic"]))
    if shape == "quartic":
        a, b = draw(st.integers(-2, 2)), draw(small)
        phi = ((X2 - a * X1) ** 2 - b * X1) ** 2 + c * X1 ** draw(
            st.integers(3, 5))
    else:
        q = draw(small) * X1 ** 2 + draw(st.sampled_from([F(0), F(1), F(-2)])) \
            * X1 ** 3
        k = draw(st.integers(4, 6))
        if shape == "A":
            u = draw(st.sampled_from([1, 1 + X1, 1 - X2, 2 + X1]))
            phi = (X2 - q) ** 2 * u + c * X1 ** k
        else:
            phi = X1 * (X2 - q) ** 2 + c * X1 ** k
    if draw(st.booleans()):
        s, t = draw(small), draw(st.sampled_from([F(0), F(1, 2), F(-1)]))
        assume(s * t != 1)
        phi = phi.linear_substitute(((F(1), s), (t, F(1))))
    return phi


class TestClassificationOracle:
    """``classify_linear`` peels the critical branch on the shear kernel;
    the oracle solves it term by term with a Fraction Horner composition.
    The h that the oracle's n implies is passed in, so the peel's b0 route
    checks the oracle's n; h comes from the oracle, because the package
    cannot compute h for every generated input (an infinite psi runs
    ``adapted_coordinates`` out of shears)."""

    @given(ad_inputs())
    @example(P(k_family(5)))
    @example(P(high_contact(5)))
    @example(P(high_contact(5, x1_factor=True)))
    @example(P("(x2 - x1^2 - x1^3)^2 + x1^7"))
    @example(P("(x2 - x1^2)^2").linear_substitute(((F(1), F(1, 3)),
                                                    (F(1, 2), F(1)))))
    @settings(max_examples=30, deadline=None)
    def test_matches_the_series_solver(self, phi):
        lh = linear_height(phi)
        assume(lh.h_lin < 2 and not lh.adapted_linear_exists)
        # the shape classify_linear reads the normal form off: the 2-jet is
        # c02*x2^2 and, when c02 = 0, the 3-jet is x2^2*(c12*x1 + c03*x2)
        # with c12 != 0
        work = lh.transformed
        assert not work.coefficient(2, 0) and not work.coefficient(1, 1)
        if not work.coefficient(0, 2):
            assert not work.coefficient(3, 0) and not work.coefficient(2, 1)
            assert work.coefficient(1, 2)
        psi, n, label = series_classification(lh)
        c = classify_linear(lh, height_of_class(label[0], n))
        assert (c.psi_truncation, c.n, c.label) == (psi, n, label)

