import math
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

    def test_derivative_drops_terms_free_of_the_variable(self):
        assert P("x1^3 + x2^2").partial_derivative(1) == P("3*x1^2")

    def test_fractional_derivative_x1(self):
        p = PuiseuxPoly.monomial(1, F(3, 2), 0)
        d = p.partial_derivative(1)
        assert d == PuiseuxPoly.monomial(F(3, 2), F(1, 2), 0)



class TestPublicApiErrors:
    @pytest.mark.parametrize("call, error, message", [
        (lambda: PuiseuxPoly({(-1, 0): 1}), ValueError, "negative exponent"),
        (lambda: PuiseuxPoly.monomial(1, F(-1, 2)), ValueError,
         "negative exponent"),
        (lambda: PuiseuxPoly({(1, 0): 0.5}), TypeError,
         "expected an exact rational, got float"),
        (lambda: x1() ** -1, ValueError, "negative power"),
        (lambda: x1().partial_derivative(3), ValueError, "axis must be 1 or 2"),
        (lambda: P("x1^(1/2)").partial_derivative(1), ValueError,
         "negative exponent"),
        (lambda: x1().restrict_x1(2), ValueError, "sign must be"),
        (lambda: P("x1^(1/2)").restrict_x1(-1), ValueError,
         "negative half-plane needs integer exponents"),
        (lambda: P("x1*x2").shift_e2(-2), ValueError, "not divisible"),
        (lambda: P("x1^(1/2)").swap_variables(), ValueError,
         "cannot swap variables with fractional powers"),
        (lambda: x1() + 0.5, TypeError, "unsupported operand"),
        (lambda: x1() * 0.5, TypeError, "unsupported operand"),
    ], ids=["negative-exponent", "monomial-negative-exponent",
            "float-coefficient", "negative-power", "axis",
            "derivative-negative-exponent", "sign",
            "ramified-negative-half-plane", "shift_e2", "swap-ramified",
            "add-float", "mul-float"])
    def test_rejects(self, call, error, message):
        with pytest.raises(error, match=message):
            call()

    def test_coefficient_off_the_lattice_is_zero(self):
        assert P("x1^2 + x1^(1/3)").coefficient(F(1, 2), 0) == 0
        assert P("x1^2 + x1^(1/3)").coefficient(F(1, 3), 0) == 1

    def test_equality_with_other_types_is_false(self):
        assert x1() != "x1" and not x1() == 1

    def test_repeated_terms_cancel_on_construction(self):
        terms = [((1, 0), 1), ((0, 2), 3), ((1, 0), -1)]
        assert PuiseuxPoly(terms) == P("3*x2^2")

    def test_zero(self):
        zero = PuiseuxPoly.zero()
        assert repr(zero) == "PuiseuxPoly(0)"
        assert zero.degree_x2() == -1 and zero.total_degree() == 0
        assert len(zero) == 0 and len(P("x1 + x2")) == 2
        assert zero.shear_substitute(x1() ** 2) == zero

    def test_subtraction(self):
        assert P("x1^2 + x2") - 1 == P("x1^2 + x2 - 1")
        assert P("x1^2 + x2") - P("x2") == P("x1^2")
        assert 1 - x1() == P("1 - x1")


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


def truncated(p, cap):
    """The terms of ``p`` of x1-order at most ``cap``."""
    return PuiseuxPoly({e: c for e, c in p.terms.items() if e[0] <= cap})


#: x1-only jets of up to four terms, fractional exponents in insertion
#: orders that are not sorted
several_term_jets = st.builds(
    lambda terms: PuiseuxPoly([((F(num, den), 0), F(c, d))
                               for (c, d, num, den) in terms]),
    st.lists(st.tuples(st.integers(-3, 3).filter(bool), st.integers(1, 3),
                       st.integers(1, 9), st.sampled_from([1, 2, 3])),
             min_size=2, max_size=4))


class TestCappedShear:
    """``shear_substitute(f, cap)`` is the full shear truncated at x1-order
    ``cap``: a shear never lowers an x1-order."""

    @given(rational_fractional_polys, several_term_jets,
           st.integers(0, 12), st.sampled_from([1, 2, 3]))
    @settings(max_examples=120, deadline=None)
    def test_equals_the_truncated_full_shear(self, phi, f, num, den):
        cap = F(num, den)
        assert phi.shear_substitute(f, cap=cap) == \
            truncated(phi.shear_substitute(f), cap)

    def test_cap_below_every_term_gives_zero(self):
        phi = P("x1^3*x2^2 + x1^4")
        assert phi.shear_substitute(P("x1 + x1^2"), cap=2).is_zero()


#: one-term polynomials, fractional x1-exponents included
monomials = st.builds(
    lambda c, d, num, den, e2: PuiseuxPoly.monomial(F(c, d), F(num, den), e2),
    st.integers(-5, 5).filter(bool), st.integers(1, 4), st.integers(0, 7),
    st.sampled_from([1, 2, 3, 4]), st.integers(0, 3))


class TestPowers:
    """``a ** n`` raises a monomial in one step and seeds binary powering
    with ``a``: each power equals, term order included, the binary powering
    that starts from 1 (float evaluators sum in that order)."""

    @staticmethod
    def _from_one(a, n):
        result, base = PuiseuxPoly.constant(1), a
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    @given(st.one_of(monomials, rational_fractional_polys), st.integers(0, 6))
    @settings(max_examples=80, deadline=None)
    def test_matches_binary_powering_from_one(self, a, n):
        got, want = a ** n, self._from_one(a, n)
        assert got == want
        assert list(got.lattice()[2].items()) == list(want.lattice()[2].items())

    def test_monomial_powers_reduce_their_ramification(self):
        assert PuiseuxPoly.monomial(F(-2, 3), F(1, 2), 1) ** 2 == \
            PuiseuxPoly.monomial(F(4, 9), 1, 2)
        assert P("x1 + x2") ** 0 == PuiseuxPoly.zero() ** 0 == \
            PuiseuxPoly.constant(1)


class TestCanonicalForm:
    """Every kernel's result is stored as the canonical form its own terms
    rebuild: a kernel that skipped the normalizer would fail ``==`` or
    ``hash`` against the rebuilt polynomial, or carry too large a
    ramification."""

    def _check(self, p):
        rebuilt = PuiseuxPoly(p.terms)
        assert p == rebuilt and hash(p) == hash(rebuilt)
        assert p.ramification == math.lcm(*(e1.denominator
                                            for e1, _e2 in p.terms))

    @given(rational_fractional_polys, rational_fractional_polys,
           fractional_jets)
    @settings(max_examples=100, deadline=None)
    def test_every_kernel_result_is_canonical(self, a, b, f):
        results = [a + b, a - b, a * b, a ** 2, -a, a * F(2, 3),
                   a.shear_substitute(f), a.shear_substitute(f, cap=3),
                   a.shift_e2(1), a.shift_e2(-a.min_e2()),
                   a.partial_derivative(2)]
        if all(e1 == 0 or e1 >= 1 for e1, _e2 in a.support()):
            results.append(a.partial_derivative(1))
        if a.ramification == 1:
            results.append(a.swap_variables())
        for p in results:
            self._check(p)

    def test_half_powers_multiply_to_an_integer_power(self):
        half = PuiseuxPoly.monomial(1, F(1, 2))
        p = half * half
        assert p == x1() and hash(p) == hash(x1()) and p.ramification == 1
        self._check(p)
        self._check(P("x1^(1/2) + x2") - P("x1^(1/2)"))
