"""Exact arithmetic substrate: bivariate Puiseux polynomials over Q.

A :class:`PuiseuxPoly` is a finite sum of terms ``c * x1^e1 * x2^e2`` with
rational coefficients, ``e1`` a nonnegative rational whose denominator divides
the ramification index ``q``, and ``e2`` a nonnegative integer.  Ordinary
polynomials are the special case ``q == 1``.  All values are immutable and
all operations are pure functions, so instances can be shared freely.

Storage is one canonical integer form: ``_q``, the least ``q`` with every
``e1`` in (1/q)Z; ``_den``, the least common denominator of the coefficients
(> 0); and ``_terms``, the map ``(e1 * q, e2) -> c * den`` of nonzero integer
numerators.  :meth:`PuiseuxPoly.from_lattice` is the one normalizer: it
divides out gcd(den, numerators) and gcd(q, e1-keys), so equal polynomials
store equal triples, and ``==`` and ``hash`` compare those.  Every kernel (sum,
product, power, shear, derivative, swap, x2-shift, restriction) runs on the
ints and keeps the term insertion order, which float evaluators sum in.
The monomial constructors build their one term straight on the lattice.

``Fraction`` values are built only at the API edge: ``terms``, ``items()``,
``support()``, ``coefficient()``, ``min_e1()``, ``total_degree()`` and
``restrict_x1()``.  Hot consumers read :meth:`PuiseuxPoly.lattice`.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

#: exponent pair (e1, e2); e1 is a Fraction, e2 an int
Exponent = tuple[Fraction, int]

#: lattice key (e1 * q, e2) of an exponent pair
Key = tuple[int, int]


def _as_fraction(x) -> int | Fraction:
    """``x`` itself if it is an exact rational.  An ``int`` passes through
    as one: it has the ``numerator`` and ``denominator`` the callers read."""
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


class PuiseuxPoly:
    """Bivariate Puiseux polynomial with exact rational coefficients, in
    the canonical integer form of the module docstring.  ``items()`` lists
    the terms in the canonical order, lexicographic in ``(e1, e2)``."""

    __slots__ = ("_q", "_den", "_terms")

    def __init__(self, terms: Mapping[Exponent, Fraction] | Iterable = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Exponent, Fraction] = {}
        for (e1, e2), c in items:
            e1, e2, c = _as_fraction(e1), int(e2), _as_fraction(c)
            if e1 < 0 or e2 < 0:
                raise ValueError(f"negative exponent ({e1}, {e2})")
            if c:
                key = (e1, e2)
                c += acc.get(key, 0)
                if c:
                    acc[key] = c
                else:  # c cancelled the stored coefficient
                    del acc[key]
        q = math.lcm(*(e1.denominator for e1, _e2 in acc))
        den = math.lcm(*(c.denominator for c in acc.values()))
        self._q, self._den = q, den
        self._terms = {(e1.numerator * (q // e1.denominator), e2):
                       c.numerator * (den // c.denominator)
                       for (e1, e2), c in acc.items()}

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_lattice(q: int, den: int, terms: dict[Key, int]) -> "PuiseuxPoly":
        """The normalizer, and the inverse of :meth:`lattice`: the polynomial
        ``sum n/den * x1^(e/q) * x2^e2`` over ``terms`` (nonzero numerators,
        kept in their order) for any positive ``q`` and ``den``."""
        g = math.gcd(den, *terms.values())
        if g != 1:
            den //= g
            terms = {k: n // g for k, n in terms.items()}
        g = q if q == 1 else math.gcd(q, *(e for e, _e2 in terms))
        if g != 1:
            q //= g
            terms = {(e // g, e2): n for (e, e2), n in terms.items()}
        poly = PuiseuxPoly.__new__(PuiseuxPoly)
        poly._q, poly._den, poly._terms = q, den, terms
        return poly

    @staticmethod
    def zero() -> "PuiseuxPoly":
        return PuiseuxPoly.from_lattice(1, 1, {})

    @staticmethod
    def constant(c) -> "PuiseuxPoly":
        return PuiseuxPoly.monomial(c, 0, 0)

    @staticmethod
    def monomial(c, e1, e2: int = 0) -> "PuiseuxPoly":
        e1, e2, c = _as_fraction(e1), int(e2), _as_fraction(c)
        if e1 < 0 or e2 < 0:
            raise ValueError(f"negative exponent ({e1}, {e2})")
        return PuiseuxPoly.from_lattice(
            e1.denominator, c.denominator,
            {(e1.numerator, e2): c.numerator} if c else {})

    @staticmethod
    def x1() -> "PuiseuxPoly":
        return PuiseuxPoly.monomial(1, 1, 0)

    @staticmethod
    def x2() -> "PuiseuxPoly":
        return PuiseuxPoly.monomial(1, 0, 1)

    # -- structure ----------------------------------------------------

    def lattice(self) -> tuple[int, int, dict[Key, int]]:
        """``(q, den, terms)``: the stored canonical form.  ``terms`` is the
        instance's own map; callers read it and never change it."""
        return self._q, self._den, self._terms

    @property
    def terms(self) -> dict[Exponent, Fraction]:
        """Copy of the term map (nonzero coefficients only)."""
        q, den = self._q, self._den
        return {(Fraction(e, q), e2): Fraction(n, den)
                for (e, e2), n in self._terms.items()}

    def items(self) -> Iterator[tuple[Exponent, Fraction]]:
        q, den = self._q, self._den
        return iter([((Fraction(e, q), e2), Fraction(n, den))
                     for (e, e2), n in sorted(self._terms.items())])

    def support(self) -> frozenset[Exponent]:
        return frozenset((Fraction(e, self._q), e2) for e, e2 in self._terms)

    def coefficient(self, e1, e2: int) -> Fraction:
        e1 = _as_fraction(e1)
        s, off = divmod(self._q, e1.denominator)  # off the lattice: zero
        n = 0 if off else self._terms.get((e1.numerator * s, int(e2)), 0)
        return Fraction(n, self._den)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    @property
    def ramification(self) -> int:
        """Least q with all e1 in (1/q)Z (1 for ordinary polynomials)."""
        return self._q

    def degree_x2(self) -> int:
        return max((e2 for (_e, e2) in self._terms), default=-1)

    def min_e1(self) -> Fraction:
        return Fraction(min(e for (e, _e2) in self._terms), self._q)

    def min_e2(self) -> int:
        return min(e2 for (_e, e2) in self._terms)

    def vanishes_to_second_order(self) -> bool:
        """True iff the value and gradient at the origin are zero."""
        return not self._terms.keys() & {(0, 0), (self._q, 0), (0, 1)}

    def depends_on_x1(self) -> bool:
        return any(e for (e, _e2) in self._terms)

    def depends_on_x2(self) -> bool:
        return any(e2 for (_e, e2) in self._terms)

    def total_degree(self) -> Fraction:
        q = self._q
        return Fraction(max((e + e2 * q for (e, e2) in self._terms),
                            default=0), q)

    def _on(self, q: int, den: int) -> dict[Key, int]:
        """A new term map over multiples ``q`` and ``den`` of this one's."""
        s, t = q // self._q, den // self._den
        return {(e * s, e2): n * t for (e, e2), n in self._terms.items()}

    # -- ring operations ----------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, PuiseuxPoly):
            return NotImplemented
        return self.lattice() == other.lattice()

    def __hash__(self):
        return hash((self._q, self._den, frozenset(self._terms.items())))

    def __neg__(self) -> "PuiseuxPoly":
        return PuiseuxPoly.from_lattice(
            self._q, self._den, {e: -n for e, n in self._terms.items()})

    def __add__(self, other) -> "PuiseuxPoly":
        if isinstance(other, (int, Fraction)):
            other = PuiseuxPoly.constant(other)
        if not isinstance(other, PuiseuxPoly):
            return NotImplemented
        q = math.lcm(self._q, other._q)
        den = math.lcm(self._den, other._den)
        acc = self._on(q, den)
        for e, n in other._on(q, den).items():
            s = acc.get(e, 0) + n
            if s:
                acc[e] = s
            elif e in acc:
                del acc[e]
        return PuiseuxPoly.from_lattice(q, den, acc)

    __radd__ = __add__

    def __sub__(self, other) -> "PuiseuxPoly":
        return self + (-other)

    def __rsub__(self, other) -> "PuiseuxPoly":
        return (-self) + other

    def __mul__(self, other) -> "PuiseuxPoly":
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            return PuiseuxPoly.from_lattice(
                self._q, self._den * c.denominator,
                {e: n * c.numerator for e, n in self._terms.items()}
                if c else {})
        if not isinstance(other, PuiseuxPoly):
            return NotImplemented
        if not self._terms or not other._terms:
            return PuiseuxPoly.zero()
        q = math.lcm(self._q, other._q)
        terms_a = self._on(q, self._den)
        terms_b = other._on(q, other._den)
        # pack (e1 * q, e2) into one int; e2 sums stay below the stride
        stride = 1 + max(e2 for _e, e2 in terms_a) \
            + max(e2 for _e, e2 in terms_b)
        packed_b = [(e * stride + e2, n) for (e, e2), n in terms_b.items()]
        acc: dict[int, int] = {}
        for (ea, a2), na in terms_a.items():
            ka = ea * stride + a2
            for kb, nb in packed_b:
                key = ka + kb
                s = acc.get(key, 0) + na * nb
                if s:
                    acc[key] = s
                elif key in acc:
                    del acc[key]
        return PuiseuxPoly.from_lattice(
            q, self._den * other._den,
            {divmod(key, stride): n for key, n in acc.items()})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "PuiseuxPoly":
        if n < 0:
            raise ValueError("negative power")
        if len(self._terms) == 1:  # a monomial: c^n * x1^(n*e1) * x2^(n*e2)
            ((e, e2), c), = self._terms.items()
            return PuiseuxPoly.from_lattice(self._q, self._den ** n,
                                            {(e * n, e2 * n): c ** n})
        if not n:
            return PuiseuxPoly.constant(1)
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __repr__(self) -> str:
        bits = [f"{c}*x1^{e1}*x2^{e2}" for (e1, e2), c in self.items()]
        return "PuiseuxPoly(" + (" + ".join(bits) or "0") + ")"

    # -- substitutions ------------------------------------------------

    def shear_substitute(self, f: "PuiseuxPoly", cap=None) -> "PuiseuxPoly":
        """Return ``phi(y1, y2 + f(y1))`` for a shear ``f`` in x1 only, less
        its terms of x1-order above ``cap`` when one is given.

        ``f`` must not depend on x2, must have no constant term and no
        negative exponents.  The arithmetic is exact, and so is the cap: a
        shear by c*x1^e with e > 0 never lowers an x1-order, since x1^a *
        (x2 + c*x1^e)^k expands into orders a + j*e.  So each row's terms
        above the cap are dropped on entry, and the products of a term with
        the shift terms, sorted by exponent, stop at the first above it.

        This is the classical Taylor shift by Horner's rule over the x2-rows
        ``phi = sum_k row_k(y1) * y2^k``: ``acc = acc * (y2 + f) + row_k``
        from the top row down, on the lattice ints of a common ramification:
        with ``phi = R / dp`` and ``f = F / df``, the loop keeps
        ``A_k = df^(K-k) * acc_k``, so ``A_k = A_(k+1) * (df*y2 + F)
        + df^(K-k) * R_k`` has integer rows and the result is
        ``A_0 / (dp * df^K)`` for the top x2-degree ``K``.
        """
        if f.depends_on_x2():
            raise ValueError("shear function must depend on x1 only")
        if (0, 0) in f._terms:
            raise ValueError("shear function must vanish at 0")
        q = math.lcm(self._q, f._q)
        df = f._den
        shift = [(g, n) for (g, _e2), n in f._on(q, df).items()]
        limit = sys.maxsize if cap is None else math.floor(cap * q)
        if cap is not None:
            shift.sort()
        rows: dict[int, dict[int, int]] = {}
        for (e, e2), n in self._on(q, self._den).items():
            row = rows.setdefault(e2, {})
            if e <= limit:
                row[e] = n
        top = max(rows, default=0)
        # acc[j] is the x1-row of y2^j.  Multiplying by df*y2 moves row j to
        # j + 1, scaled by df: row j is read in full, and scaled, before it
        # becomes the target of row j + 1's product with F.
        acc: list[dict[int, int]] = []
        for k in range(top, -1, -1):
            scale = df ** (top - k)
            nxt = [{e: n * scale for e, n in rows.get(k, {}).items()}]
            for row in acc:
                target = nxt[-1]
                for e, c in row.items():
                    if c:
                        for g, gc in shift:
                            key = e + g
                            if key > limit:
                                break
                            target[key] = target.get(key, 0) + c * gc
                nxt.append({e: c * df for e, c in row.items()}
                           if df != 1 else row)
            acc = nxt
        return PuiseuxPoly.from_lattice(
            q, self._den * df ** top,
            {(e, e2): c for e2, row in enumerate(acc)
             for e, c in row.items() if c})

    def linear_substitute(self, t: tuple) -> "PuiseuxPoly":
        """Return ``phi(a*y1 + b*y2, c*y1 + d*y2)`` for T = ((a, b), (c, d)).

        Requires integer exponents (linear changes are undefined on
        fractional powers) and an invertible T.
        """
        (a, b), (c, d) = t
        a, b, c, d = map(_as_fraction, (a, b, c, d))
        if a * d - b * c == 0:
            raise ValueError("singular linear substitution")
        if self._q != 1:
            raise ValueError("linear substitution needs integer exponents")
        row1 = PuiseuxPoly({(1, 0): a, (0, 1): b})
        row2 = PuiseuxPoly({(1, 0): c, (0, 1): d})
        # cache powers of the two linear forms
        p1, p2 = [PuiseuxPoly.constant(1)], [PuiseuxPoly.constant(1)]
        acc = PuiseuxPoly.zero()
        for (e1, e2), n in self._terms.items():
            while len(p1) <= e1:
                p1.append(p1[-1] * row1)
            while len(p2) <= e2:
                p2.append(p2[-1] * row2)
            acc = acc + Fraction(n, self._den) * (p1[e1] * p2[e2])
        return acc

    def swap_variables(self) -> "PuiseuxPoly":
        """Exchange x1 and x2 (integer exponents only)."""
        if self._q != 1:
            raise ValueError("cannot swap variables with fractional powers")
        return PuiseuxPoly.from_lattice(1, self._den, {
            (e2, e1): n for (e1, e2), n in self._terms.items()})

    # -- calculus -----------------------------------------------------

    def partial_derivative(self, axis: int, order: int = 1) -> "PuiseuxPoly":
        """Exact partial derivative in x1 (axis=1) or x2 (axis=2)."""
        if axis not in (1, 2):
            raise ValueError("axis must be 1 or 2")
        cur = self
        for _ in range(order):
            q, den = cur._q, cur._den
            if axis == 1:
                if any(0 < e < q for e, _e2 in cur._terms):
                    raise ValueError("negative exponent in the derivative")
                # d/dx1 of n/den * x1^(e/q) is n*e/(den*q) * x1^((e - q)/q)
                terms = {(e - q, e2): n * e
                         for (e, e2), n in cur._terms.items() if e}
                den *= q
            else:
                terms = {(e, e2 - 1): n * e2
                         for (e, e2), n in cur._terms.items() if e2}
            cur = PuiseuxPoly.from_lattice(q, den, terms)
        return cur

    # -- restriction --------------------------------------------------

    def restrict_x1(self, sign: int = 1) -> list[Fraction]:
        """Coefficient list (by x2-degree) of ``phi(sign*1, t)``: the list
        ``roots.squarefree_real_roots`` takes.  The last entry is zero when
        the top x2-row cancels.

        ``sign=-1`` requires integer exponents; fractional powers live on
        x1 > 0 only.
        """
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if sign == -1 and self._q != 1:
            raise ValueError("negative half-plane needs integer exponents")
        coeffs = [0] * (self.degree_x2() + 1)
        for (e, e2), n in self._terms.items():
            coeffs[e2] += n if (sign == 1 or e % 2 == 0) else -n
        return [Fraction(n, self._den) for n in coeffs]

    # -- views --------------------------------------------------------

    def shift_e2(self, delta: int) -> "PuiseuxPoly":
        """Multiply (delta > 0) or exactly divide (delta < 0) by x2^|delta|."""
        if delta < 0 and self.min_e2() < -delta:
            raise ValueError("not divisible by that power of x2")
        return PuiseuxPoly.from_lattice(self._q, self._den, {
            (e, e2 + delta): n for (e, e2), n in self._terms.items()})
