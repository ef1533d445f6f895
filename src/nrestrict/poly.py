"""Exact arithmetic substrate: bivariate Puiseux polynomials over Q.

A :class:`PuiseuxPoly` is a finite sum of terms ``c * x1^e1 * x2^e2`` with
rational coefficients, ``e1`` a nonnegative rational whose denominator divides
the ramification index ``q``, and ``e2`` a nonnegative integer.  Ordinary
polynomials are the special case ``q == 1``.  All values are immutable and
all operations are pure functions, so instances can be shared freely.

The ramification index is not stored; it is the lcm of the ``e1`` denominators
and is computed on demand (shears by ``x1^(p/q)`` therefore cost nothing
extra).

Terms are stored as ``(Fraction, int) -> Fraction``, but the two hot kernels,
the product and the shear, run on Python ints: :meth:`PuiseuxPoly._scaled`
puts every ``e1`` on the integer lattice ``e1 * q`` of a common ramification
``q`` and every coefficient over one common denominator, the kernel adds and
multiplies integer numerators only, and the result is turned back into
``Fraction`` terms once, at the end.  Keys and values come out equal to the
``Fraction`` arithmetic's, in the same insertion order.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

#: exponent pair (e1, e2); e1 is a Fraction, e2 an int
Exponent = tuple[Fraction, int]


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


class PuiseuxPoly:
    """Bivariate Puiseux polynomial with exact rational coefficients.

    Internally a map ``(e1, e2) -> coefficient`` holding nonzero
    coefficients only; the canonical term order is lexicographic in
    ``(e1, e2)``.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Exponent, Fraction] | Iterable = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Exponent, Fraction] = {}
        for (e1, e2), c in items:
            e1 = _as_fraction(e1)
            e2 = int(e2)
            c = _as_fraction(c)
            if e1 < 0 or e2 < 0:
                raise ValueError(f"negative exponent ({e1}, {e2})")
            if c:
                key = (e1, e2)
                c0 = acc.get(key)
                c = c if c0 is None else c0 + c
                if c:
                    acc[key] = c
                elif key in acc:
                    del acc[key]
        self._terms = acc

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "PuiseuxPoly":
        return PuiseuxPoly()

    @staticmethod
    def constant(c) -> "PuiseuxPoly":
        return PuiseuxPoly({(Fraction(0), 0): _as_fraction(c)})

    @staticmethod
    def monomial(c, e1, e2: int = 0) -> "PuiseuxPoly":
        return PuiseuxPoly({(_as_fraction(e1), int(e2)): _as_fraction(c)})

    @staticmethod
    def x1() -> "PuiseuxPoly":
        return PuiseuxPoly.monomial(1, 1, 0)

    @staticmethod
    def x2() -> "PuiseuxPoly":
        return PuiseuxPoly.monomial(1, 0, 1)

    # -- structure ----------------------------------------------------

    @property
    def terms(self) -> dict[Exponent, Fraction]:
        """Copy of the term map (nonzero coefficients only)."""
        return dict(self._terms)

    def items(self) -> Iterator[tuple[Exponent, Fraction]]:
        return iter(sorted(self._terms.items()))

    def support(self) -> frozenset[Exponent]:
        return frozenset(self._terms)

    def coefficient(self, e1, e2: int) -> Fraction:
        return self._terms.get((_as_fraction(e1), int(e2)), Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    @property
    def ramification(self) -> int:
        """Least q with all e1 in (1/q)Z (1 for ordinary polynomials)."""
        q = 1
        for (e1, _e2) in self._terms:
            q = q * e1.denominator // math.gcd(q, e1.denominator)
        return q

    def degree_x2(self) -> int:
        if not self._terms:
            return -1
        return max(e2 for (_e1, e2) in self._terms)

    def min_e1(self) -> Fraction:
        return min(e1 for (e1, _e2) in self._terms)

    def min_e2(self) -> int:
        return min(e2 for (_e1, e2) in self._terms)

    def vanishes_to_second_order(self) -> bool:
        """True iff the value and gradient at the origin are zero."""
        return not (self.coefficient(0, 0) or self.coefficient(1, 0)
                    or self.coefficient(0, 1))

    def depends_on_x1(self) -> bool:
        return any(e1 for (e1, _e2) in self._terms)

    def depends_on_x2(self) -> bool:
        return any(e2 for (_e1, e2) in self._terms)

    def total_degree(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        return max(e1 + e2 for (e1, e2) in self._terms)

    # -- integer kernels ----------------------------------------------

    def _scaled(self, q: int) -> tuple[int, list[tuple[int, int, int]]]:
        """``(den, [(e1 * q, e2, c * den)])``: each ``e1`` on the integer
        lattice of ramification ``q`` (a multiple of this one's), each
        coefficient as an integer numerator over ``den``, the lcm of the
        coefficient denominators.  The list keeps the term order."""
        den = 1
        for c in self._terms.values():
            den = math.lcm(den, c.denominator)
        return den, [(e1.numerator * (q // e1.denominator), e2,
                      c.numerator * (den // c.denominator))
                     for (e1, e2), c in self._terms.items()]

    @staticmethod
    def _from_scaled(terms: Iterable[tuple[tuple[int, int], int]], q: int,
                     den: int) -> "PuiseuxPoly":
        """Inverse of :meth:`_scaled`: ``((e, e2), n)`` becomes the term
        ``(e/q, e2) -> n/den``; zero numerators are dropped."""
        exps: dict[int, Fraction] = {}
        out: dict[Exponent, Fraction] = {}
        for (e, e2), n in terms:
            if n:
                e1 = exps.get(e)
                if e1 is None:
                    e1 = exps[e] = Fraction(e, q)
                out[(e1, e2)] = Fraction(n, den)
        poly = PuiseuxPoly.__new__(PuiseuxPoly)
        poly._terms = out
        return poly

    # -- ring operations ----------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, PuiseuxPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __neg__(self) -> "PuiseuxPoly":
        return PuiseuxPoly({e: -c for e, c in self._terms.items()})

    def __add__(self, other) -> "PuiseuxPoly":
        if isinstance(other, (int, Fraction)):
            other = PuiseuxPoly.constant(other)
        if not isinstance(other, PuiseuxPoly):
            return NotImplemented
        acc = dict(self._terms)
        for e, c in other._terms.items():
            s = acc.get(e, Fraction(0)) + c
            if s:
                acc[e] = s
            elif e in acc:
                del acc[e]
        out = PuiseuxPoly.__new__(PuiseuxPoly)
        out._terms = acc
        return out

    __radd__ = __add__

    def __sub__(self, other) -> "PuiseuxPoly":
        return self + (-other)

    def __rsub__(self, other) -> "PuiseuxPoly":
        return (-self) + other

    def __mul__(self, other) -> "PuiseuxPoly":
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if not c:
                return PuiseuxPoly.zero()
            out = PuiseuxPoly.__new__(PuiseuxPoly)
            out._terms = {e: c * v for e, v in self._terms.items()}
            return out
        if not isinstance(other, PuiseuxPoly):
            return NotImplemented
        if not self._terms or not other._terms:
            return PuiseuxPoly.zero()
        q = math.lcm(self.ramification, other.ramification)
        den_a, terms_a = self._scaled(q)
        den_b, terms_b = other._scaled(q)
        # pack (e1 * q, e2) into one int; e2 sums stay below the stride
        stride = 1 + max(e2 for _e, e2, _n in terms_a) \
            + max(e2 for _e, e2, _n in terms_b)
        packed_b = [(e * stride + e2, n) for e, e2, n in terms_b]
        acc: dict[int, int] = {}
        for ea, a2, na in terms_a:
            ka = ea * stride + a2
            for kb, nb in packed_b:
                key = ka + kb
                s = acc.get(key, 0) + na * nb
                if s:
                    acc[key] = s
                elif key in acc:
                    del acc[key]
        return PuiseuxPoly._from_scaled(
            ((divmod(key, stride), n) for key, n in acc.items()),
            q, den_a * den_b)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "PuiseuxPoly":
        if n < 0:
            raise ValueError("negative power")
        result = PuiseuxPoly.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __repr__(self) -> str:
        if not self._terms:
            return "PuiseuxPoly(0)"
        bits = []
        for (e1, e2), c in self.items():
            bits.append(f"{c}*x1^{e1}*x2^{e2}")
        return "PuiseuxPoly(" + " + ".join(bits) + ")"

    # -- substitutions ------------------------------------------------

    def shear_substitute(self, f: "PuiseuxPoly") -> "PuiseuxPoly":
        """Return ``phi(y1, y2 + f(y1))`` for a shear ``f`` in x1 only.

        ``f`` must not depend on x2, must have no constant term and no
        negative exponents.  The result's ramification is the lcm of the
        inputs'; the arithmetic is exact with no truncation.

        This is the classical Taylor shift by Horner's rule over the x2-rows
        ``phi = sum_k row_k(y1) * y2^k``: ``acc = acc * (y2 + f) + row_k``
        from the top row down.  It runs on the integers of :meth:`_scaled`:
        with ``phi = R / dp`` and ``f = F / df``, the loop keeps
        ``A_k = df^(K-k) * acc_k``, so ``A_k = A_(k+1) * (df*y2 + F)
        + df^(K-k) * R_k`` has integer rows and the result is
        ``A_0 / (dp * df^K)`` for the top x2-degree ``K``.
        """
        if f.depends_on_x2():
            raise ValueError("shear function must depend on x1 only")
        if f.coefficient(0, 0):
            raise ValueError("shear function must vanish at 0")
        if not self._terms:
            return PuiseuxPoly.zero()
        q = math.lcm(self.ramification, f.ramification)
        den, terms = self._scaled(q)
        rows: dict[int, dict[int, int]] = {}
        for e, e2, n in terms:
            rows.setdefault(e2, {})[e] = n
        df, f_terms = f._scaled(q)
        shift = [(g, n) for g, _e2, n in f_terms]
        top = max(rows)
        # acc[j] is the x1-row of y2^j.  Multiplying by df*y2 moves row j to
        # j + 1, scaled by df: row j is read in full, and scaled, before it
        # becomes the target of row j + 1's product with F.
        acc: list[dict[int, int]] = []
        for k in range(top, -1, -1):
            row_k = rows.get(k, {})
            if df != 1 and k < top:
                scale = df ** (top - k)
                for e in row_k:
                    row_k[e] *= scale
            nxt = [row_k]
            for row in acc:
                target = nxt[-1]
                for e, c in row.items():
                    if c:
                        for g, gc in shift:
                            key = e + g
                            target[key] = target.get(key, 0) + c * gc
                if df != 1:
                    for e in row:
                        row[e] *= df
                nxt.append(row)
            acc = nxt
        return PuiseuxPoly._from_scaled(
            (((e, e2), c) for e2, row in enumerate(acc) for e, c in row.items()),
            q, den * df ** top)

    def linear_substitute(self, t: tuple) -> "PuiseuxPoly":
        """Return ``phi(a*y1 + b*y2, c*y1 + d*y2)`` for T = ((a, b), (c, d)).

        Requires integer exponents (linear changes are undefined on
        fractional powers) and an invertible T.
        """
        (a, b), (c, d) = t
        a, b, c, d = map(_as_fraction, (a, b, c, d))
        if a * d - b * c == 0:
            raise ValueError("singular linear substitution")
        if self.ramification != 1:
            raise ValueError("linear substitution needs integer exponents")
        row1 = PuiseuxPoly({(Fraction(1), 0): a, (Fraction(0), 1): b})
        row2 = PuiseuxPoly({(Fraction(1), 0): c, (Fraction(0), 1): d})
        # cache powers of the two linear forms
        p1: list[PuiseuxPoly] = [PuiseuxPoly.constant(1)]
        p2: list[PuiseuxPoly] = [PuiseuxPoly.constant(1)]
        acc = PuiseuxPoly.zero()
        for (e1, e2), coef in self._terms.items():
            e1 = int(e1)
            while len(p1) <= e1:
                p1.append(p1[-1] * row1)
            while len(p2) <= e2:
                p2.append(p2[-1] * row2)
            acc = acc + coef * (p1[e1] * p2[e2])
        return acc

    def swap_variables(self) -> "PuiseuxPoly":
        """Exchange x1 and x2 (integer exponents only)."""
        if self.ramification != 1:
            raise ValueError("cannot swap variables with fractional powers")
        return PuiseuxPoly({(Fraction(e2), int(e1)): c
                            for (e1, e2), c in self._terms.items()})

    # -- calculus -----------------------------------------------------

    def partial_derivative(self, axis: int, order: int = 1) -> "PuiseuxPoly":
        """Exact partial derivative in x1 (axis=1) or x2 (axis=2)."""
        if axis not in (1, 2):
            raise ValueError("axis must be 1 or 2")
        cur = self
        for _ in range(order):
            acc: dict[Exponent, Fraction] = {}
            for (e1, e2), c in cur._terms.items():
                if axis == 1:
                    if e1 == 0:
                        continue
                    acc[(e1 - 1, e2)] = acc.get((e1 - 1, e2), Fraction(0)) + c * e1
                else:
                    if e2 == 0:
                        continue
                    acc[(e1, e2 - 1)] = acc.get((e1, e2 - 1), Fraction(0)) + c * e2
            cur = PuiseuxPoly({e: c for e, c in acc.items() if c})
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
        if sign == -1 and self.ramification != 1:
            raise ValueError("negative half-plane needs integer exponents")
        deg = self.degree_x2()
        coeffs = [Fraction(0)] * (deg + 1)
        for (e1, e2), c in self._terms.items():
            coeffs[e2] += c if (sign == 1 or int(e1) % 2 == 0) else -c
        return coeffs

    # -- views --------------------------------------------------------

    def shift_e2(self, delta: int) -> "PuiseuxPoly":
        """Multiply (delta > 0) or exactly divide (delta < 0) by x2^|delta|."""
        if delta < 0 and self.min_e2() < -delta:
            raise ValueError("not divisible by that power of x2")
        return PuiseuxPoly({(e1, e2 + delta): c
                            for (e1, e2), c in self._terms.items()})
