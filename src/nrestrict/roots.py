"""Univariate exact polynomials and real-root isolation.

Real roots are reported with exact multiplicities obtained from Yun's
square-free decomposition; rational roots are returned exactly and the
remaining ones as isolating intervals with rational endpoints, refined until
pairwise disjoint.  No floating point enters the symbolic path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional


class UniPoly:
    """Dense univariate polynomial over Q, coefficients indexed by degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def zero() -> "UniPoly":
        return UniPoly()

    @staticmethod
    def from_root(r) -> "UniPoly":
        return UniPoly([-Fraction(r), Fraction(1)])

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"UniPoly({list(self.coeffs)})"

    def __neg__(self) -> "UniPoly":
        return UniPoly([-c for c in self.coeffs])

    def __add__(self, other) -> "UniPoly":
        if isinstance(other, (int, Fraction)):
            other = UniPoly([other])
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        b = list(other.coeffs) + [Fraction(0)] * (n - len(other.coeffs))
        return UniPoly([x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __sub__(self, other) -> "UniPoly":
        return self + (-other if isinstance(other, UniPoly) else UniPoly([-Fraction(other)]))

    def __mul__(self, other) -> "UniPoly":
        if isinstance(other, (int, Fraction)):
            return UniPoly([c * other for c in self.coeffs])
        if not self.coeffs or not other.coeffs:
            return UniPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "UniPoly":
        result = UniPoly([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return UniPoly(), self
        quot = [Fraction(0)] * (dq + 1)
        lead = other.leading()
        for k in range(dq, -1, -1):
            c = rem[k + other.degree()] / lead
            quot[k] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= c * b
        return UniPoly(quot), UniPoly(rem)

    def __floordiv__(self, other: "UniPoly") -> "UniPoly":
        return self.divmod(other)[0]

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return self.divmod(other)[1]

    def derivative(self) -> "UniPoly":
        return UniPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        lead = self.leading()
        return UniPoly([c / lead for c in self.coeffs])

    def evaluate(self, x) -> Fraction:
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def evaluate_float(self, x: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + float(c)
        return acc

    def truncate(self, order: int) -> "UniPoly":
        """Drop terms of degree > order."""
        return UniPoly(self.coeffs[:order + 1])

    def valuation(self) -> int:
        """Order of vanishing at 0 (degree+1 convention not used; zero poly -> -1)."""
        if self.is_zero():
            return -1
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return -1


def gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    while b:
        a, b = b, a % b
    return a.monic() if a else a


def yun_squarefree(p: UniPoly) -> list[tuple[UniPoly, int]]:
    """Square-free decomposition ``p = lc * prod f_i^i`` (Yun's algorithm).

    Returns the nonconstant factors with their multiplicities.
    """
    if p.degree() < 1:
        return []
    d = p.derivative()
    a = gcd(p, d)
    b = p.divmod(a)[0]
    c = d.divmod(a)[0]
    z = c - b.derivative()
    out: list[tuple[UniPoly, int]] = []
    i = 1
    while b.degree() > 0:
        g = gcd(b, z)  # monic; constant 1 when multiplicity i is absent
        if g.degree() > 0:
            out.append((g, i))
        b = b.divmod(g)[0]
        c = z.divmod(g)[0]
        z = c - b.derivative()
        i += 1
    return out


def _integerized(p: UniPoly) -> list[int]:
    den = 1
    for c in p.coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    ints = [int(c * den) for c in p.coeffs]
    g = 0
    for v in ints:
        g = math.gcd(g, abs(v))
    return [v // g for v in ints] if g else ints


def _integer_roots_monic(p: UniPoly) -> list[int]:
    """Integer roots of a monic integer polynomial, by Sturm bisection.

    Rational roots of a monic integer polynomial are integers, so bisecting
    on half-integer endpoints (never roots) isolates each candidate to an
    interval of width < 1 and a single exact evaluation decides it.  No
    divisor enumeration, so huge coefficients stay cheap.
    """
    from math import ceil, floor

    chain = sturm_chain(p)
    bound = root_bound(p)
    lo0 = Fraction(2 * (floor(-bound) - 1) + 1, 2)
    hi0 = Fraction(2 * (ceil(bound) + 1) + 1, 2)
    stack = [(lo0, hi0)]
    out: list[int] = []
    while stack:
        lo, hi = stack.pop()  # endpoints stay half-integers: never roots
        if count_roots_in(chain, lo, hi) == 0:
            continue
        if hi - lo <= 1:
            k = floor(hi)  # the unique integer inside (lo, hi)
            if p.evaluate(k) == 0:
                out.append(int(k))
            continue
        mid = Fraction(2 * floor((lo + hi) / 2) + 1, 2)
        stack.append((lo, mid))
        stack.append((mid, hi))
    return sorted(out)


def rational_roots(p: UniPoly) -> list[Fraction]:
    """All rational roots (without multiplicity).

    Works on the square-free part scaled monic: a root p/q of the input
    corresponds to the integer root p*lead/q of the monic transform."""
    if p.degree() < 1:
        return []
    roots: list[Fraction] = []
    v = p.valuation()
    work = UniPoly(p.coeffs[v:])
    if v > 0:
        roots.append(Fraction(0))
    if work.degree() >= 1:
        g = gcd(work, work.derivative())
        sf = work.divmod(g)[0] if g.degree() > 0 else work
        ints = _integerized(sf)
        n = len(ints) - 1
        if n >= 1:
            an = ints[-1]
            coeffs = [Fraction(c * an ** (n - 1 - i)) for i, c in
                      enumerate(ints[:-1])] + [Fraction(1)]
            for u in _integer_roots_monic(UniPoly(coeffs)):
                roots.append(Fraction(u, an))
    return sorted(roots)


def sturm_chain(p: UniPoly) -> list[UniPoly]:
    chain = [p, p.derivative()]
    while chain[-1]:
        chain.append(-(chain[-2] % chain[-1]))
    chain.pop()
    return chain


def _sign_variations(chain: list[UniPoly], x: Fraction) -> int:
    signs = []
    for q in chain:
        v = q.evaluate(x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def root_bound(p: UniPoly) -> Fraction:
    """Cauchy bound: all real roots lie in (-B, B)."""
    lead = abs(p.leading())
    m = max((abs(c) for c in p.coeffs[:-1]), default=Fraction(0))
    return 1 + m / lead


def count_roots_in(chain: list[UniPoly], lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots in (lo, hi]."""
    return _sign_variations(chain, lo) - _sign_variations(chain, hi)


def isolate_real_roots(p: UniPoly) -> list[tuple[Fraction, Fraction]]:
    """Isolating intervals for the real roots of a square-free ``p``.

    ``p`` must have no rational roots (divide them out first); rational
    interval endpoints are then never roots and plain bisection on Sturm
    counts terminates.
    """
    if p.degree() < 1:
        return []
    chain = sturm_chain(p)
    bound = root_bound(p)
    stack = [(-bound - 1, bound + 1)]
    found: list[tuple[Fraction, Fraction]] = []
    while stack:
        lo, hi = stack.pop()
        n = count_roots_in(chain, lo, hi)
        if n == 0:
            continue
        if n == 1:
            found.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        stack.append((lo, mid))
        stack.append((mid, hi))
    return sorted(found)


def refine_interval(p: UniPoly, lo: Fraction, hi: Fraction,
                    steps: int = 1) -> tuple[Fraction, Fraction]:
    """Bisection refinement of an isolating interval of a square-free ``p``."""
    slo = p.evaluate(lo)
    for _ in range(steps):
        mid = (lo + hi) / 2
        vmid = p.evaluate(mid)
        if vmid == 0:  # cannot happen when rational roots were removed
            eps = (hi - lo) / 4
            lo, hi = mid - eps, mid + eps
            continue
        if (slo > 0) == (vmid > 0):
            lo = mid
            slo = vmid
        else:
            hi = mid
    return lo, hi


@dataclass(frozen=True)
class RootRecord:
    """One real root: exact value or isolating interval, with multiplicity.

    An irrational root also carries ``factor``, the square-free factor of its
    multiplicity with the rational roots divided out; it vanishes on the
    interval and takes no part in record equality.
    """

    multiplicity: int
    value: Optional[Fraction] = None
    interval: Optional[tuple[Fraction, Fraction]] = None
    sign_of_variable: str = "+"
    factor: Optional[UniPoly] = field(default=None, compare=False, repr=False)

    @property
    def is_rational(self) -> bool:
        return self.value is not None

    def approx(self) -> float:
        if self.value is not None:
            return float(self.value)
        lo, hi = self.interval
        return float((lo + hi) / 2)

    def contains(self, x: Fraction) -> bool:
        if self.value is not None:
            return self.value == x
        lo, hi = self.interval
        return lo < x < hi


def squarefree_real_roots(p: UniPoly, sign_of_variable: str = "+") -> list[RootRecord]:
    """Every real root of ``p`` once, with exact multiplicity.

    Rational roots carry exact values; irrational roots carry isolating
    intervals, refined until all intervals are pairwise disjoint and contain
    no reported rational root.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    records: list[RootRecord] = []
    pending: list[tuple[UniPoly, Fraction, Fraction, int]] = []
    rational_values: list[Fraction] = []
    for factor, mult in yun_squarefree(p):
        work = factor
        for r in rational_roots(factor):
            records.append(RootRecord(multiplicity=mult, value=r,
                                      sign_of_variable=sign_of_variable))
            rational_values.append(r)
            work = work.divmod(UniPoly.from_root(r))[0]
        for lo, hi in isolate_real_roots(work):
            while hi - lo > Fraction(1, 4):
                lo, hi = refine_interval(work, lo, hi)
            pending.append((work, lo, hi, mult))
    # refine intervals away from rational roots and from each other
    changed = True
    while changed:
        changed = False
        for i, (f, lo, hi, mult) in enumerate(pending):
            for r in rational_values:
                if lo < r < hi:
                    lo, hi = refine_interval(f, lo, hi, steps=2)
                    pending[i] = (f, lo, hi, mult)
                    changed = True
            for j in range(len(pending)):
                if j == i:
                    continue
                g, lo2, hi2, m2 = pending[j]
                if lo < hi2 and lo2 < hi:  # overlap
                    pending[i] = (f, *refine_interval(f, lo, hi, 2), mult)
                    pending[j] = (g, *refine_interval(g, lo2, hi2, 2), m2)
                    changed = True
    for f, lo, hi, mult in pending:
        records.append(RootRecord(multiplicity=mult, interval=(lo, hi),
                                  sign_of_variable=sign_of_variable, factor=f))
    records.sort(key=lambda r: r.value if r.value is not None
                 else (r.interval[0] + r.interval[1]) / 2)
    return records
