from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrestrict.parser import parse_expression
from nrestrict.poly import PuiseuxPoly


def P(text):
    return parse_expression(text).poly


x1 = PuiseuxPoly.x1
x2 = PuiseuxPoly.x2


class TestShear:
    def test_cancels_matching_jet(self):
        phi = P("(x2 - x1^2)^2")
        assert phi.shear_substitute(PuiseuxPoly.monomial(1, 2)) == P("x2^2")

    def test_identity_shear(self):
        assert P("x2^2").shear_substitute(PuiseuxPoly.zero()) == P("x2^2")

    def test_example_12_2(self):
        phi = P("(x2 - x1^2 - x1^3)*(x2 - x1^2 - x1^4)^3")
        expect = P("(x2 - x1^3)*(x2 - x1^4)^3")
        assert phi.shear_substitute(PuiseuxPoly.monomial(1, 2)) == expect

    def test_fractional_shear_ramifies(self):
        sheared = P("x2^2").shear_substitute(PuiseuxPoly.monomial(1, F(3, 2), 0))
        assert sheared.ramification == 2
        assert sheared.coefficient(F(3), 0) == 1  # (x1^(3/2))^2

    def test_rejects_constant_term(self):
        with pytest.raises(ValueError):
            P("x2").shear_substitute(PuiseuxPoly.constant(1) + x1())

    def test_rejects_x2_dependence(self):
        with pytest.raises(ValueError):
            P("x2").shear_substitute(x2())


class TestLinearSubstitute:
    def test_identity(self):
        phi = P("x1*x2")
        assert phi.linear_substitute(((1, 0), (0, 1))) == phi

    def test_difference_of_squares(self):
        got = P("x1^2 - x2^2").linear_substitute(((1, 1), (1, -1)))
        assert got == P("4*x1*x2")

    def test_varchenko_first_step(self):
        got = P("(x2 - x1)^2").linear_substitute(((1, 0), (1, 1)))
        assert got == P("x2^2")

    def test_composition(self):
        phi = P("x1^3 + 2*x1*x2 - x2^2")
        t1 = ((F(1), F(2)), (F(0), F(1)))
        t2 = ((F(1), F(0)), (F(-3), F(2)))
        prod = (
            (t1[0][0] * t2[0][0] + t1[0][1] * t2[1][0],
             t1[0][0] * t2[0][1] + t1[0][1] * t2[1][1]),
            (t1[1][0] * t2[0][0] + t1[1][1] * t2[1][0],
             t1[1][0] * t2[0][1] + t1[1][1] * t2[1][1]),
        )
        assert phi.linear_substitute(prod) == \
            phi.linear_substitute(t1).linear_substitute(t2)

    def test_rejects_singular(self):
        with pytest.raises(ValueError):
            P("x1*x2").linear_substitute(((1, 1), (1, 1)))

    def test_rejects_fractional(self):
        frac = PuiseuxPoly.monomial(1, F(1, 2), 0)
        with pytest.raises(ValueError):
            frac.linear_substitute(((1, 0), (0, 1)))


class TestCalculus:
    def test_derivative_x2(self):
        assert P("x2^2").partial_derivative(2) == P("2*x2")

    def test_fractional_derivative_x1(self):
        p = PuiseuxPoly.monomial(1, F(3, 2), 0)
        d = p.partial_derivative(1)
        assert d == PuiseuxPoly.monomial(F(3, 2), F(1, 2), 0)



def jets(draw):
    terms = draw(st.lists(
        st.tuples(st.integers(-3, 3).filter(bool),
                  st.integers(1, 5), st.sampled_from([1, 2])),
        min_size=1, max_size=2))
    acc = PuiseuxPoly.zero()
    for c, num, den in terms:
        acc = acc + PuiseuxPoly.monomial(c, F(num, den), 0)
    return acc


small_polys = st.builds(
    lambda terms: PuiseuxPoly({(F(e1num, 1), e2): F(c)
                               for (c, e1num, e2) in terms}),
    st.lists(st.tuples(st.integers(-4, 4).filter(bool),
                       st.integers(0, 5), st.integers(0, 4)),
             min_size=1, max_size=5))
small_jets = st.composite(jets)()


class TestProperties:
    @given(small_polys, small_jets)
    @settings(max_examples=120, deadline=None)
    def test_shear_round_trip(self, phi, f):
        sheared = phi.shear_substitute(f)
        assert sheared.shear_substitute(-f) == phi

    @given(small_polys)
    @settings(max_examples=80, deadline=None)
    def test_no_zero_coefficients_stored(self, phi):
        prod = phi * phi - phi * phi
        assert prod.is_zero() and len(prod.terms) == 0
        for c in (phi + phi).terms.values():
            assert c != 0

    @given(small_polys)
    @settings(max_examples=60, deadline=None)
    def test_swap_involution(self, phi):
        assert phi.swap_variables().swap_variables() == phi


def _sympy_expr(p, x1, x2):
    import sympy
    return sympy.Add(*[sympy.Rational(c.numerator, c.denominator)
                       * x1 ** sympy.Rational(e1.numerator, e1.denominator)
                       * x2 ** e2 for (e1, e2), c in p.items()])


fractional_polys = st.builds(
    lambda terms: PuiseuxPoly({(F(num, den), e2): F(c)
                               for (c, num, den, e2) in terms}),
    st.lists(st.tuples(st.integers(-4, 4).filter(bool), st.integers(0, 6),
                       st.sampled_from([1, 2, 3]), st.integers(0, 4)),
             min_size=1, max_size=5))

fractional_jets = st.builds(
    lambda terms: PuiseuxPoly({(F(num, den), 0): F(c, d)
                               for (c, d, num, den) in terms}),
    st.lists(st.tuples(st.integers(-3, 3).filter(bool), st.integers(1, 3),
                       st.integers(1, 7), st.sampled_from([1, 2, 3])),
             min_size=1, max_size=3))


class TestShearAgainstSympy:
    """The Horner shear agrees with sympy's expansion of phi(x1, x2 + f)."""

    def _check(self, phi, f):
        sympy = pytest.importorskip("sympy")
        x1, x2 = sympy.symbols("x1 x2", positive=True)
        want = sympy.expand(_sympy_expr(phi, x1, x2).subs(
            x2, x2 + _sympy_expr(f, x1, x2)))
        got = _sympy_expr(phi.shear_substitute(f), x1, x2)
        assert sympy.expand(got - want) == 0

    @given(small_polys, small_jets)
    @settings(max_examples=60, deadline=None)
    def test_integer_exponents(self, phi, f):
        self._check(phi, f)

    @given(fractional_polys, fractional_jets)
    @settings(max_examples=60, deadline=None)
    def test_fractional_exponents(self, phi, f):
        self._check(phi, f)

    def test_ladder_rung(self):
        self._check(P("(x2 - x1^2 - x1^3)^4*(x2 - x1^2 - x1^4) + x1^23"),
                    P("x1^2 + x1^3"))


rational_fractional_polys = st.builds(
    lambda terms: PuiseuxPoly({(F(num, den), e2): F(c, d)
                               for (c, d, num, den, e2) in terms}),
    st.lists(st.tuples(st.integers(-5, 5).filter(bool), st.integers(1, 4),
                       st.integers(0, 7), st.sampled_from([1, 2, 3, 4]),
                       st.integers(0, 3)),
             min_size=1, max_size=5))


class TestProductAgainstSympy:
    """The integer product kernel agrees with sympy's expansion of a * b on
    ramified inputs ``x1^(p/q)`` with rational coefficients."""

    def _check(self, a, b):
        sympy = pytest.importorskip("sympy")
        x1, x2 = sympy.symbols("x1 x2", positive=True)
        want = sympy.expand(_sympy_expr(a, x1, x2) * _sympy_expr(b, x1, x2))
        got = _sympy_expr(a * b, x1, x2)
        assert sympy.expand(got - want) == 0

    @given(rational_fractional_polys, rational_fractional_polys)
    @settings(max_examples=80, deadline=None)
    def test_ramified_rational_products(self, a, b):
        self._check(a, b)

    @given(rational_fractional_polys)
    @settings(max_examples=30, deadline=None)
    def test_powers(self, a):
        sympy = pytest.importorskip("sympy")
        x1, x2 = sympy.symbols("x1 x2", positive=True)
        want = sympy.expand(_sympy_expr(a, x1, x2) ** 3)
        assert sympy.expand(_sympy_expr(a ** 3, x1, x2) - want) == 0

    def test_cancellation_leaves_no_zero_terms(self):
        a = P("x2 - x1^(1/2)") + PuiseuxPoly.monomial(F(1, 3), F(3, 2), 0)
        b = P("x2 + x1^(1/2)") - PuiseuxPoly.monomial(F(1, 3), F(3, 2), 0)
        prod = a * b
        assert all(c != 0 for c in prod.terms.values())
        self._check(a, b)
