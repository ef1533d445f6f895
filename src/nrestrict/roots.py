"""Exact real-root isolation for univariate polynomials over Q.

A polynomial is the list of its ``Fraction`` coefficients indexed by degree,
as ``PuiseuxPoly.restrict_x1`` returns it; trailing zeros are allowed.  Real
roots are reported with exact multiplicities obtained from Yun's square-free
decomposition; rational roots are returned exactly and the remaining ones as
isolating intervals with rational endpoints, refined until pairwise
disjoint.  No floating point enters the symbolic path.

The rational roots of a square-free factor are read off its coefficients up
to degree 2, and found by Sturm bisection on its monic transform above it.

Yun, the rational roots, the Sturm chain, the isolation and the refinement
run on primitive integer coefficient lists (primitive pseudo-remainder
sequences).  The rule that keeps them exact is that every integer polynomial
is a *positive* multiple of the rational one it stands for:

- a pseudo-remainder scales by ``|lc|``, never by ``lc``, so it keeps the
  sign of the true remainder at every point;
- contents are divided out as positive numbers, and a division by a
  primitive divisor is exact (Gauss's lemma);
- the sign of ``p(a/b)`` is that of ``sum p_i a^i b^(n-i)`` for ``b > 0``, a
  homogeneous Horner loop with no ``Fraction`` in it.

So every Sturm count and every refinement step sees the same signs as over
Q: the bisection from ``(-B-1, B+1)`` returns the same intervals, and the
monic witness factors are the same.  ``Fraction`` appears only at the
boundary: the coefficients taken, and the interval endpoints, rational roots
and monic factors returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import zip_longest
from typing import Optional, Sequence


# -- integer kernels -----------------------------------------------------
#
# An integer polynomial is a list of ints indexed by degree, with no trailing
# zeros.  Each one stands for a positive rational multiple of the coefficient
# list it came from, so it has the same roots and the same sign at every
# point.


def _primitive(p: Sequence[Fraction]) -> list[int]:
    """Integer coefficients of ``p`` over the lcm of its denominators,
    divided by their content, without trailing zeros: a positive multiple
    of ``p`` (``[]`` for the zero polynomial)."""
    den = 1
    for c in p:
        den = math.lcm(den, c.denominator)
    return _content_free(_strip([c.numerator * (den // c.denominator)
                                 for c in p]))


def _content_free(a: list[int]) -> list[int]:
    """``a`` divided by the gcd of its coefficients (a positive number)."""
    g = math.gcd(*a)
    return [c // g for c in a] if g > 1 else a


def _derivative(a: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(a)][1:]


def _strip(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def _subtract(a: list[int], b: list[int]) -> list[int]:
    return _strip([x - y for x, y in zip_longest(a, b, fillvalue=0)])


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """``|lc(b)|^k * (a mod b)`` for the number ``k`` of division steps.

    Each step scales the running remainder by ``|lc(b)|`` before it cancels
    the top term, so the result is a positive multiple of the true remainder
    and keeps its sign everywhere.
    """
    r = list(a)
    n = len(b) - 1
    scale = abs(b[-1])
    sign = 1 if b[-1] > 0 else -1
    for k in range(len(r) - 1 - n, -1, -1):
        t = r.pop() * sign
        if scale != 1:
            r = [scale * c for c in r]
        if t:
            for j in range(n):
                r[k + j] -= t * b[j]
    return _strip(r)


def _exact_quotient(a: list[int], b: list[int]) -> list[int]:
    """``a / b`` for a divisor ``b`` of ``a``.  By Gauss's lemma the quotient
    has integer coefficients when ``b`` is primitive, so every step divides
    exactly."""
    r = list(a)
    n = len(b) - 1
    quot = [0] * max(len(r) - n, 0)
    for k in range(len(quot) - 1, -1, -1):
        c = r[k + n] // b[-1]
        quot[k] = c
        if c:
            for j in range(n + 1):
                r[k + j] -= c * b[j]
    return quot


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd with a positive leading coefficient (the primitive
    pseudo-remainder sequence); ``[]`` when both inputs are zero."""
    a, b = _content_free(a), _content_free(b)
    while b:
        a, b = b, _content_free(_pseudo_remainder(a, b))
    return [-c for c in a] if a and a[-1] < 0 else a


def _yun(p: list[int]) -> list[tuple[list[int], int]]:
    """Yun's square-free decomposition of a nonconstant integer polynomial.

    Every gcd is primitive, so every division below is exact, and ``b`` and
    ``c`` carry the same scalar factor, which keeps ``c - b'`` right.
    """
    d = _derivative(p)
    a = _gcd(p, d)
    b = _exact_quotient(p, a)
    c = _exact_quotient(d, a)
    z = _subtract(c, _derivative(b))
    out: list[tuple[list[int], int]] = []
    i = 1
    while len(b) > 1:
        g = _gcd(b, z)  # [1] when multiplicity i is absent
        if len(g) > 1:
            out.append((g, i))
        b = _exact_quotient(b, g)
        c = _exact_quotient(z, g)
        z = _subtract(c, _derivative(b))
        i += 1
    return out


def _sturm(p: list[int]) -> list[list[int]]:
    """Sturm chain ``p, p', -rem, ...`` with every member made primitive:
    each is a positive multiple of the rational chain's, so sign variations
    agree at every point."""
    chain = [p, _derivative(p)]
    while chain[-1]:
        r = _content_free(_pseudo_remainder(chain[-2], chain[-1]))
        chain.append([-c for c in r])
    chain.pop()
    return chain


def _value(a: list[int], x: Fraction) -> int:
    """``den(x)^deg(a) * a(x)``, which has the sign of ``a(x)``, by a
    homogeneous Horner loop on the numerator and denominator of ``x``."""
    num, den = x.numerator, x.denominator
    acc = a[-1]
    if den == 1:
        for c in reversed(a[:-1]):
            acc = acc * num + c
        return acc
    power = 1
    for c in reversed(a[:-1]):
        power *= den
        acc = acc * num + c * power
    return acc


def _variations(chain: list[list[int]], x: Fraction) -> int:
    count = 0
    last = 0
    for q in chain:
        v = _value(q, x)
        if v:
            s = 1 if v > 0 else -1
            if last and s != last:
                count += 1
            last = s
    return count


def _root_bound(a: list[int]) -> Fraction:
    """Cauchy bound: all real roots lie in (-B, B)."""
    return 1 + Fraction(max((abs(c) for c in a[:-1]), default=0), abs(a[-1]))


def _integer_roots_monic(p: list[int]) -> list[int]:
    """Integer roots of a monic integer polynomial, by Sturm bisection.

    Rational roots of a monic integer polynomial are integers, so bisecting
    on half-integer endpoints (never roots) isolates each candidate to an
    interval of width < 1 and a single exact evaluation decides it.  No
    divisor enumeration, so huge coefficients stay cheap.
    """
    chain = _sturm(p)
    bound = _root_bound(p)
    # an endpoint is the half-integer h/2 for an odd h
    stack = [(2 * (math.floor(-bound) - 1) + 1, 2 * (math.ceil(bound) + 1) + 1)]
    out: list[int] = []
    while stack:
        lo, hi = stack.pop()
        if (_variations(chain, Fraction(lo, 2))
                == _variations(chain, Fraction(hi, 2))):
            continue
        if hi - lo <= 2:
            k = hi // 2  # the unique integer inside (lo/2, hi/2)
            if _value(p, Fraction(k)) == 0:
                out.append(k)
            continue
        mid = 2 * ((lo + hi) // 4) + 1
        stack.append((lo, mid))
        stack.append((mid, hi))
    return sorted(out)


def _rational_roots(f: list[int]) -> list[Fraction]:
    """Rational roots of a square-free integer polynomial: in closed form up
    to degree 2 (``D != 0``, as ``f`` is square-free); above it, u/an for
    each integer root ``u`` of the monic transform ``an^(n-1) * f(y / an)``,
    where ``an`` is the leading coefficient."""
    roots: list[Fraction] = []
    if len(f) > 1 and not f[0]:
        roots.append(Fraction(0))
        f = f[1:]
    n = len(f) - 1
    if n == 1:
        roots.append(Fraction(-f[0], f[1]))
    elif n == 2:
        c, b, a = f
        d = b * b - 4 * a * c
        s = math.isqrt(d) if d > 0 else 0
        if s * s == d:
            roots += [Fraction(-b - s, 2 * a), Fraction(-b + s, 2 * a)]
    elif n >= 3:
        an = f[-1]
        monic = [c * an ** (n - 1 - i) for i, c in enumerate(f[:-1])] + [1]
        roots.extend(Fraction(u, an) for u in _integer_roots_monic(monic))
    return sorted(roots)


def _isolate(p: list[int]) -> list[tuple[Fraction, Fraction]]:
    """Isolating intervals for the real roots of a square-free ``p`` with no
    rational roots, by Sturm bisection from ``(-B-1, B+1)``."""
    if len(p) < 2:
        return []
    chain = _sturm(p)
    bound = _root_bound(p)
    stack = [(-bound - 1, bound + 1)]
    found: list[tuple[Fraction, Fraction]] = []
    while stack:
        lo, hi = stack.pop()
        n = _variations(chain, lo) - _variations(chain, hi)
        if n == 0:
            continue
        if n == 1:
            found.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        stack.append((lo, mid))
        stack.append((mid, hi))
    return sorted(found)


def _refine(p: list[int], lo: Fraction, hi: Fraction,
            steps: int = 1) -> tuple[Fraction, Fraction]:
    # p has its rational roots divided out, so no midpoint is a root
    slo = _value(p, lo)
    for _ in range(steps):
        mid = (lo + hi) / 2
        vmid = _value(p, mid)
        if (slo > 0) == (vmid > 0):
            lo = mid
            slo = vmid
        else:
            hi = mid
    return lo, hi


# -- Fraction boundary ---------------------------------------------------


def _monic(a: list[int]) -> tuple[Fraction, ...]:
    return tuple(Fraction(c, a[-1]) for c in a)


@dataclass(frozen=True)
class RootRecord:
    """One real root: exact value or isolating interval, with multiplicity.

    An irrational root also carries ``factor``, the monic coefficients of
    the square-free factor of its multiplicity with the rational roots
    divided out; it vanishes on the interval and takes no part in record
    equality.  A record does not say which polynomial it is a root of.
    """

    multiplicity: int
    value: Optional[Fraction] = None
    interval: Optional[tuple[Fraction, Fraction]] = None
    factor: Optional[tuple[Fraction, ...]] = field(default=None, compare=False,
                                                   repr=False)

    @property
    def is_rational(self) -> bool:
        return self.value is not None


def squarefree_real_roots(p: Sequence[Fraction]) -> list[RootRecord]:
    """Every real root of the coefficient list ``p`` once, with exact
    multiplicity.

    Rational roots carry exact values; irrational roots carry isolating
    intervals, refined until all intervals are pairwise disjoint and contain
    no reported rational root.
    """
    a = _primitive(p)
    if not a:
        raise ValueError("zero polynomial")
    records: list[RootRecord] = []
    pending: list[tuple[list[int], Fraction, Fraction, int]] = []
    rational_values: list[Fraction] = []
    factors = _yun(a) if len(a) > 1 else []
    for factor, mult in factors:
        work = factor
        for r in _rational_roots(factor):
            records.append(RootRecord(multiplicity=mult, value=r))
            rational_values.append(r)
            work = _exact_quotient(work, [-r.numerator, r.denominator])
        for lo, hi in _isolate(work):
            while hi - lo > Fraction(1, 4):
                lo, hi = _refine(work, lo, hi)
            pending.append((work, lo, hi, mult))
    # refine intervals away from rational roots and from each other
    changed = True
    while changed:
        changed = False
        for i, (f, lo, hi, mult) in enumerate(pending):
            for r in rational_values:
                if lo < r < hi:
                    lo, hi = _refine(f, lo, hi, steps=2)
                    pending[i] = (f, lo, hi, mult)
                    changed = True
            for j in range(len(pending)):
                if j == i:
                    continue
                g, lo2, hi2, m2 = pending[j]
                if lo < hi2 and lo2 < hi:  # overlap
                    pending[i] = (f, *_refine(f, lo, hi, 2), mult)
                    pending[j] = (g, *_refine(g, lo2, hi2, 2), m2)
                    changed = True
    for f, lo, hi, mult in pending:
        records.append(RootRecord(multiplicity=mult, interval=(lo, hi),
                                  factor=_monic(f)))
    records.sort(key=lambda r: r.value if r.value is not None
                 else (r.interval[0] + r.interval[1]) / 2)
    return records
