"""Independent brute-force oracles used to freeze expected test values.

These deliberately avoid the library's own code paths: expansion works on
plain dicts, the hull oracle tests extremality pairwise, multiplicities
come from counting vanishing derivatives, and the real-root reference runs
Yun and Sturm over Q with ``UniPoly``'s Fraction arithmetic instead of the
library's integer kernels.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from nrestrict.roots import UniPoly

Term = tuple[Fraction, int]


def naive_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (a1, a2), ca in a.items():
        for (b1, b2), cb in b.items():
            k = (a1 + b1, a2 + b2)
            out[k] = out.get(k, Fraction(0)) + ca * cb
    return {k: v for k, v in out.items() if v}


def naive_pow(a: dict, n: int) -> dict:
    out = {(Fraction(0), 0): Fraction(1)}
    for _ in range(n):
        out = naive_mul(out, a)
    return out


def naive_sub(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, Fraction(0)) - v
        if not out[k]:
            del out[k]
    return out


def mono(c, e1, e2) -> dict:
    return {(Fraction(e1), int(e2)): Fraction(c)}


def expand_example_12_2_adapted() -> dict:
    """(y2 - y1^3) * (y2 - y1^4)^3 by naive expansion."""
    f1 = naive_sub(mono(1, 0, 1), mono(1, 3, 0))
    f2 = naive_sub(mono(1, 0, 1), mono(1, 4, 0))
    return naive_mul(f1, naive_pow(f2, 3))


def brute_hull_vertices(points: list[tuple[Fraction, Fraction]]):
    """Extreme points of conv(union of p + R+^2), from first principles.

    A point is extreme iff it is not in q + R+^2 for another support point q
    and not above any segment [q, r] + R+^2 (two points suffice in the
    plane).
    """
    pts = sorted(set(points))

    def dominated(p) -> bool:
        return any(q != p and q[0] <= p[0] and q[1] <= p[1] for q in pts)

    def covered_by_pair(p) -> bool:
        for i, q in enumerate(pts):
            if q == p:
                continue
            for r in pts[i + 1:]:
                if r == p:
                    continue
                # exists lam in [0,1] with lam*q + (1-lam)*r <= p (both coords)
                lo, hi = Fraction(0), Fraction(1)
                for c in (0, 1):
                    a = q[c] - r[c]
                    b = p[c] - r[c]
                    if a == 0:
                        if b < 0:
                            lo, hi = Fraction(1), Fraction(0)
                        continue
                    bound = Fraction(b, 1) / a
                    if a > 0:
                        hi = min(hi, bound)
                    else:
                        lo = max(lo, bound)
                if lo <= hi:
                    return True
        return False

    return [p for p in pts if not dominated(p) and not covered_by_pair(p)]


def derivative_multiplicity(coeffs: list[Fraction], root: Fraction) -> int:
    """Multiplicity of a rational root by counting vanishing derivatives."""

    def ev(cs, x):
        acc = Fraction(0)
        for c in reversed(cs):
            acc = acc * x + c
        return acc

    def deriv(cs):
        return [i * c for i, c in enumerate(cs)][1:]

    mult = 0
    cur = list(coeffs)
    while any(cur) and ev(cur, root) == 0:
        mult += 1
        cur = deriv(cur)
    return mult


def sign_change_root_count(coeffs: list[Fraction], lo: Fraction, hi: Fraction,
                           steps: int = 2000) -> int:
    """Sign changes of the polynomial on a rational grid over [lo, hi]."""

    def ev(x):
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    count = 0
    prev = ev(lo)
    for i in range(1, steps + 1):
        x = lo + (hi - lo) * Fraction(i, steps)
        cur = ev(x)
        if prev != 0 and cur != 0 and (prev > 0) != (cur > 0):
            count += 1
        if cur != 0:
            prev = cur
    return count


# -- rational Sturm route ------------------------------------------------
#
# The real-root isolation as it ran on Fractions before the library moved
# to integer pseudo-remainder sequences: Yun over Q with monic gcds, the
# rational roots by Sturm bisection of the monic transform, and Sturm
# bisection from (-B-1, B+1) with the same refinement steps.  Its intervals
# and monic factors are the reference the integer route must reproduce.


def _q_gcd(a, b):
    while b:
        a, b = b, a % b
    return a.monic() if a else a


def q_yun_squarefree(p):
    """Yun's square-free decomposition over Q: [(monic factor, multiplicity)]."""
    if p.degree() < 1:
        return []
    d = p.derivative()
    a = _q_gcd(p, d)
    b = p.divmod(a)[0]
    c = d.divmod(a)[0]
    z = c - b.derivative()
    out = []
    i = 1
    while b.degree() > 0:
        g = _q_gcd(b, z)
        if g.degree() > 0:
            out.append((g, i))
        b = b.divmod(g)[0]
        c = z.divmod(g)[0]
        z = c - b.derivative()
        i += 1
    return out


def _q_sturm_chain(p):
    chain = [p, p.derivative()]
    while chain[-1]:
        chain.append(-(chain[-2] % chain[-1]))
    chain.pop()
    return chain


def _q_variations(chain, x):
    signs = []
    for q in chain:
        v = q.evaluate(x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _q_count(chain, lo, hi):
    return _q_variations(chain, lo) - _q_variations(chain, hi)


def _q_root_bound(p):
    lead = abs(p.leading())
    m = max((abs(c) for c in p.coeffs[:-1]), default=Fraction(0))
    return 1 + m / lead


def _q_integer_roots_monic(p):
    from math import ceil, floor

    chain = _q_sturm_chain(p)
    bound = _q_root_bound(p)
    stack = [(Fraction(2 * (floor(-bound) - 1) + 1, 2),
              Fraction(2 * (ceil(bound) + 1) + 1, 2))]
    out = []
    while stack:
        lo, hi = stack.pop()
        if _q_count(chain, lo, hi) == 0:
            continue
        if hi - lo <= 1:
            k = floor(hi)
            if p.evaluate(k) == 0:
                out.append(int(k))
            continue
        mid = Fraction(2 * floor((lo + hi) / 2) + 1, 2)
        stack.append((lo, mid))
        stack.append((mid, hi))
    return sorted(out)


def q_rational_roots(p):
    """Rational roots over Q, through the monic integer transform."""
    if p.degree() < 1:
        return []
    roots = []
    v = p.valuation()
    work = UniPoly(p.coeffs[v:])
    if v > 0:
        roots.append(Fraction(0))
    if work.degree() >= 1:
        g = _q_gcd(work, work.derivative())
        sf = work.divmod(g)[0] if g.degree() > 0 else work
        den = 1
        for c in sf.coeffs:
            den = den * c.denominator // gcd(den, c.denominator)
        ints = [int(c * den) for c in sf.coeffs]
        content = 0
        for x in ints:
            content = gcd(content, abs(x))
        ints = [x // content for x in ints]
        n = len(ints) - 1
        an = ints[-1]
        coeffs = [Fraction(c * an ** (n - 1 - i))
                  for i, c in enumerate(ints[:-1])] + [Fraction(1)]
        for u in _q_integer_roots_monic(UniPoly(coeffs)):
            roots.append(Fraction(u, an))
    return sorted(roots)


def q_isolate_real_roots(p):
    if p.degree() < 1:
        return []
    chain = _q_sturm_chain(p)
    bound = _q_root_bound(p)
    stack = [(-bound - 1, bound + 1)]
    found = []
    while stack:
        lo, hi = stack.pop()
        n = _q_count(chain, lo, hi)
        if n == 0:
            continue
        if n == 1:
            found.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        stack.append((lo, mid))
        stack.append((mid, hi))
    return sorted(found)


def q_refine_interval(p, lo, hi, steps=1):
    slo = p.evaluate(lo)
    for _ in range(steps):
        mid = (lo + hi) / 2
        vmid = p.evaluate(mid)
        if vmid == 0:
            eps = (hi - lo) / 4
            lo, hi = mid - eps, mid + eps
            continue
        if (slo > 0) == (vmid > 0):
            lo = mid
            slo = vmid
        else:
            hi = mid
    return lo, hi


def q_real_roots(p):
    """Every real root of ``p`` over Q, in ``squarefree_real_roots`` order,
    as ``(multiplicity, value, interval, monic factor coefficients)``."""
    records = []
    pending = []
    rational_values = []
    for factor, mult in q_yun_squarefree(p):
        work = factor
        for r in q_rational_roots(factor):
            records.append((mult, r, None, None))
            rational_values.append(r)
            work = work.divmod(UniPoly([-r, 1]))[0]
        for lo, hi in q_isolate_real_roots(work):
            while hi - lo > Fraction(1, 4):
                lo, hi = q_refine_interval(work, lo, hi)
            pending.append((work, lo, hi, mult))
    changed = True
    while changed:
        changed = False
        for i, (f, lo, hi, mult) in enumerate(pending):
            for r in rational_values:
                if lo < r < hi:
                    lo, hi = q_refine_interval(f, lo, hi, steps=2)
                    pending[i] = (f, lo, hi, mult)
                    changed = True
            for j in range(len(pending)):
                if j == i:
                    continue
                g, lo2, hi2, m2 = pending[j]
                if lo < hi2 and lo2 < hi:
                    pending[i] = (f, *q_refine_interval(f, lo, hi, 2), mult)
                    pending[j] = (g, *q_refine_interval(g, lo2, hi2, 2), m2)
                    changed = True
    for f, lo, hi, mult in pending:
        records.append((mult, None, (lo, hi), f.coeffs))
    records.sort(key=lambda r: r[1] if r[1] is not None
                 else (r[2][0] + r[2][1]) / 2)
    return records
