from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nrestrict import roots
from nrestrict.parser import parse_expression
from nrestrict.roots import squarefree_real_roots

from oracles import (derivative_multiplicity, q_mul, q_pow, q_rational_roots,
                     q_real_roots, q_yun_squarefree, qpoly,
                     sign_change_root_count)


def P(text):
    return parse_expression(text).poly


def from_roots(*roots_mults):
    p = qpoly([1])
    for r, m in roots_mults:
        p = q_mul(p, q_pow(qpoly([-F(r), 1]), m))
    return p


def yun(p):
    """Yun's monic factors of ``p`` with multiplicities, from the kernel."""
    return [(roots._monic(f), m) for f, m in roots._yun(roots._primitive(p))]


def rational_roots(p):
    """Rational roots of ``p``, from the kernel on its square-free part."""
    f = roots._primitive(p)
    return roots._rational_roots(
        roots._exact_quotient(f, roots._gcd(f, roots._derivative(f))))


class TestSquarefreeRealRoots:
    def test_rational_with_multiplicities(self):
        p = from_roots((1, 3), (-2, 1))
        recs = squarefree_real_roots(p)
        assert [(r.value, r.multiplicity) for r in recs] == [(F(-2), 1), (F(1), 3)]
        # a restriction whose top x2-row cancels ends in a zero
        u = P("x2 + x2^2 + x1*x2^2").restrict_x1(-1)
        assert u == [0, 1, 0]
        assert squarefree_real_roots(u) == squarefree_real_roots([F(0), F(1)]) \
            == [roots.RootRecord(1, value=F(0))]

    def test_no_real_roots(self):
        assert squarefree_real_roots(qpoly([1, 0, 1])) == []

    def test_cube_root_of_two_isolated(self):
        p = qpoly([-2, 0, 0, 1])
        recs = squarefree_real_roots(p)
        assert len(recs) == 1
        rec = recs[0]
        assert rec.multiplicity == 1 and not rec.is_rational
        lo, hi = rec.interval
        assert F(1) <= lo < hi <= F(2)
        # independent oracle: exactly one sign change on a rational grid
        assert sign_change_root_count([F(-2), F(0), F(0), F(1)],
                                      F(1), F(2)) == 1

    def test_zero_polynomial_rejected(self):
        for zero in ([], P("x2^2 + x1*x2^2").restrict_x1(-1)):
            with pytest.raises(ValueError, match="zero polynomial"):
                squarefree_real_roots(zero)

    def test_multiplicity_against_derivative_oracle(self):
        p = from_roots((F(1, 2), 2), (-3, 4), (5, 1))
        for rec in squarefree_real_roots(p):
            assert rec.is_rational
            assert rec.multiplicity == derivative_multiplicity(
                list(p), rec.value)

    def test_total_multiplicity_bounded_by_degree(self):
        p = q_mul(from_roots((0, 2), (1, 3)), qpoly([1, 0, 1]))
        recs = squarefree_real_roots(p)
        assert sum(r.multiplicity for r in recs) <= len(p) - 1

    def test_mixed_rational_irrational_disjoint(self):
        # (t - sqrt(2))(t + sqrt(2)) * (t - 3/2)^2
        p = q_mul(qpoly([-2, 0, 1]), q_pow(qpoly([F(-3, 2), 1]), 2))
        recs = squarefree_real_roots(p)
        assert len(recs) == 3
        intervals = [r.interval for r in recs if not r.is_rational]
        values = [r.value for r in recs if r.is_rational]
        assert len(intervals) == 2 and values == [F(3, 2)]
        # open isolating intervals avoid each other and every exact root
        for i, (lo1, hi1) in enumerate(intervals):
            for lo2, hi2 in intervals[i + 1:]:
                assert hi1 <= lo2 or hi2 <= lo1
            for v in values:
                assert not lo1 < v < hi1
        # each irrational root carries the monic factor t^2 - 2, as a tuple
        for u in ([F(-2), F(0), F(1)], [F(-4), F(0), F(2)]):
            assert [r.factor for r in squarefree_real_roots(u)] \
                == [(F(-2), F(0), F(1))] * 2


class TestYun:
    def test_decomposition(self):
        p = q_mul(from_roots((1, 2), (-1, 1)), qpoly([1, 0, 1]))
        factors = yun(p)
        mults = sorted(m for _f, m in factors)
        assert mults == [1, 2]
        rebuilt = (p[-1],)
        for f, m in factors:
            rebuilt = q_mul(rebuilt, q_pow(f, m))
        assert rebuilt == p


class TestRationalRoots:
    def test_basic(self):
        p = from_roots((F(2, 3), 1), (-5, 1))
        assert rational_roots(p) == [F(-5), F(2, 3)]

    def test_zero_root(self):
        p = qpoly([0, 0, 1, 1])
        assert F(0) in rational_roots(p)


def _factor(coeffs):
    return qpoly(F(n, d) for n, d in coeffs)


# (n, d) pairs for rational coefficients n/d; leading ones nonzero
_rat = st.tuples(st.integers(-6, 6), st.integers(1, 4))
_lead = st.tuples(st.integers(-4, 4).filter(bool), st.integers(1, 3))
linear_factors = st.tuples(_rat, _lead).map(list)
quadratic_factors = st.tuples(_rat, _rat, _lead).map(list)

#: products of linear and quadratic factors with multiplicities 1-3: rational
#: and irrational roots, repeated roots, and shared roots across factors
products = st.lists(
    st.tuples(st.one_of(linear_factors, quadratic_factors),
              st.integers(1, 3)),
    min_size=1, max_size=4).map(
        lambda parts: _product([(_factor(c), m) for c, m in parts]))


def _product(parts):
    p = qpoly([1])
    for f, m in parts:
        p = q_mul(p, q_pow(f, m))
    return p


class TestAgainstRationalRoute:
    """The integer kernels return exactly the intervals, values and monic
    factors of the Sturm bisection over Q (``oracles.q_real_roots``)."""

    def _check(self, p):
        got = [(r.multiplicity, r.value, r.interval, r.factor)
               for r in squarefree_real_roots(p)]
        assert got == q_real_roots(p)
        assert yun(p) == q_yun_squarefree(p)
        assert rational_roots(p) == q_rational_roots(p)

    @given(products)
    @settings(max_examples=150, deadline=None)
    def test_products_of_linear_and_quadratic_factors(self, p):
        self._check(p)

    def test_close_irrational_roots_need_refinement(self):
        # sqrt(2) and 10/7 lie 0.014 apart; 7/5 sits between them
        p = _product([(qpoly([-2, 0, 1]), 1), (qpoly([-10, 7]), 2),
                      (qpoly([-7, 5]), 1)])
        self._check(p)
        self._check(q_mul(qpoly([-2, 0, 1]), qpoly([F(-201, 100), 0, 1])))


class TestAgainstSympy:
    """Rational values, multiplicities and isolation against sympy's own
    square-free decomposition, ground roots and Sturm counts."""

    @given(products)
    @settings(max_examples=80, deadline=None)
    @example(qpoly([0, F(1, 3), 2, 1]))  # an interval ends at the root 0
    def test_values_multiplicities_and_intervals(self, p):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        sp = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                         for c in reversed(p)], x, domain="QQ")
        recs = squarefree_real_roots(p)
        rational = {r.value: r.multiplicity for r in recs if r.is_rational}
        assert rational == {F(int(v.p), int(v.q)): m
                            for v, m in sp.ground_roots().items()}
        factors = {m: f for f, m in sp.sqf_list()[1]}
        irrational = [r for r in recs if not r.is_rational]
        # every real root of sympy's that is not rational lies in one interval
        assert len(irrational) == sp.count_roots() - len(rational)
        for r in irrational:
            lo, hi = (sympy.Rational(v.numerator, v.denominator)
                      for v in r.interval)
            # sympy counts on [lo, hi]; an isolating interval is open, and
            # an endpoint may be a rational root
            assert _open_count(sp, lo, hi) == 1
            assert _open_count(factors[r.multiplicity], lo, hi) == 1
            assert not any(r.interval[0] < v < r.interval[1]
                           for v in rational)
        for i, a in enumerate(irrational):
            for b in irrational[i + 1:]:
                assert a.interval[1] <= b.interval[0] \
                    or b.interval[1] <= a.interval[0]


def _open_count(poly, lo, hi):
    """Distinct real roots of a sympy Poly in the open interval (lo, hi)."""
    return poly.count_roots(lo, hi) - (poly.eval(lo) == 0) - (poly.eval(hi) == 0)
