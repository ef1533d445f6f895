"""Independent brute-force oracles used to freeze expected test values.

These deliberately avoid the library's own code paths: expansion works on
plain dicts, the hull oracle tests extremality pairwise, multiplicities
come from counting vanishing derivatives, and the real-root reference runs
Yun and Sturm over Q on Fraction coefficient tuples instead of the
library's integer kernels, the A/D classification solves its critical
branch term by term with a Fraction Horner composition instead of the
library's shear kernel, the report oracle re-derives an ``analyze``
report's numbers from the report and its input text alone, and the
oscillatory-sum oracle sums every cell of the index grid with its own
exponential, with no bucketing and no window.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
from fractions import Fraction
from itertools import zip_longest
from math import gcd, log2

import numpy as np
from nrestrict import cli
from nrestrict.errors import InternalInvariantError
from nrestrict.poly import PuiseuxPoly

Term = tuple[Fraction, int]


# -- univariate polynomials over Q -----------------------------------------
#
# A tuple of Fractions indexed by degree, with no trailing zeros; ``()`` is
# the zero polynomial.  The arithmetic is schoolbook, and shares no type
# with the library's integer kernels.


def qpoly(coeffs) -> tuple:
    cs = [Fraction(c) for c in coeffs]
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def q_add(a, b):
    return qpoly(x + y for x, y in zip_longest(a, b, fillvalue=0))


def q_sub(a, b):
    return qpoly(x - y for x, y in zip_longest(a, b, fillvalue=0))


def q_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return qpoly(out)


def q_pow(a, n: int):
    out = (Fraction(1),)
    for _ in range(n):
        out = q_mul(out, a)
    return out


def q_divmod(a, b):
    """Quotient and remainder of ``a`` by a nonzero ``b``."""
    rem = list(a)
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + len(b) - 1] / b[-1]
        quot[k] = c
        for j, y in enumerate(b):
            rem[k + j] -= c * y
    return qpoly(quot), qpoly(rem)


def q_derivative(a):
    return qpoly([i * c for i, c in enumerate(a)][1:])


def q_monic(a):
    return tuple(c / a[-1] for c in a)


def q_eval(a, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def valuation(u) -> int:
    """Order of vanishing of ``u`` at 0; -1 for the zero polynomial."""
    return next((i for i, c in enumerate(u) if c), -1)


def truncate(u, order: int):
    """``u`` without its terms of degree > order."""
    return qpoly(u[:order + 1])


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


def naive_add(a: dict, b: dict) -> dict:
    return naive_sub(a, naive_sub({}, b))


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


def newton_distance(points: list[tuple[Fraction, Fraction]]) -> Fraction:
    """The least t with (t, t) in conv(union of p + R+^2), from first
    principles: min(max(x, y)) over the hull is taken at a vertex or where
    a segment between two vertices crosses the diagonal."""
    pts = brute_hull_vertices(points)
    best = min(max(p) for p in pts)
    for q in pts:
        for r in pts:
            a, b = q[0] - q[1], r[0] - r[1]
            if a < 0 < b:
                lam = Fraction(b) / (b - a)
                best = min(best, lam * q[0] + (1 - lam) * r[0])
    return best


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
        a, b = b, q_divmod(a, b)[1]
    return q_monic(a) if a else a


def q_yun_squarefree(p):
    """Yun's square-free decomposition over Q: [(monic factor, multiplicity)]."""
    p = qpoly(p)
    if len(p) < 2:
        return []
    d = q_derivative(p)
    a = _q_gcd(p, d)
    b = q_divmod(p, a)[0]
    c = q_divmod(d, a)[0]
    z = q_sub(c, q_derivative(b))
    out = []
    i = 1
    while len(b) > 1:
        g = _q_gcd(b, z)
        if len(g) > 1:
            out.append((g, i))
        b = q_divmod(b, g)[0]
        c = q_divmod(z, g)[0]
        z = q_sub(c, q_derivative(b))
        i += 1
    return out


def _q_sturm_chain(p):
    chain = [p, q_derivative(p)]
    while chain[-1]:
        chain.append(q_sub((), q_divmod(chain[-2], chain[-1])[1]))
    chain.pop()
    return chain


def _q_variations(chain, x):
    signs = []
    for q in chain:
        v = q_eval(q, x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _q_count(chain, lo, hi):
    return _q_variations(chain, lo) - _q_variations(chain, hi)


def _q_root_bound(p):
    lead = abs(p[-1])
    m = max((abs(c) for c in p[:-1]), default=Fraction(0))
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
            if q_eval(p, k) == 0:
                out.append(int(k))
            continue
        mid = Fraction(2 * floor((lo + hi) / 2) + 1, 2)
        stack.append((lo, mid))
        stack.append((mid, hi))
    return sorted(out)


def q_rational_roots(p):
    """Rational roots over Q, through the monic integer transform."""
    p = qpoly(p)
    if len(p) < 2:
        return []
    roots = []
    v = valuation(p)
    work = p[v:]
    if v > 0:
        roots.append(Fraction(0))
    if len(work) > 1:
        g = _q_gcd(work, q_derivative(work))
        sf = q_divmod(work, g)[0] if len(g) > 1 else work
        den = 1
        for c in sf:
            den = den * c.denominator // gcd(den, c.denominator)
        ints = [int(c * den) for c in sf]
        content = 0
        for x in ints:
            content = gcd(content, abs(x))
        ints = [x // content for x in ints]
        n = len(ints) - 1
        an = ints[-1]
        coeffs = [Fraction(c * an ** (n - 1 - i))
                  for i, c in enumerate(ints[:-1])] + [Fraction(1)]
        for u in _q_integer_roots_monic(qpoly(coeffs)):
            roots.append(Fraction(u, an))
    return sorted(roots)


def q_isolate_real_roots(p):
    if len(p) < 2:
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
    slo = q_eval(p, lo)
    for _ in range(steps):
        mid = (lo + hi) / 2
        vmid = q_eval(p, mid)
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
            work = q_divmod(work, (-r, Fraction(1)))[0]
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
        records.append((mult, None, (lo, hi), f))
    records.sort(key=lambda r: r[1] if r[1] is not None
                 else (r[2][0] + r[2][1]) / 2)
    return records


# -- the A/D classification by a term-by-term series solver ---------------
#
# The critical branch x2 = psi(x1) is solved one series term at a time,
# each time composing d phi/d x2 with the jet from scratch by a truncated
# Horner loop on Fraction tuples.  Slow (quadratic in the order per term),
# but free of the library's shear kernel.


def compose_x2(phi, s, order: int):
    """phi(x1, s(x1)) truncated at x1^order (integer exponents)."""
    by_x2: dict[int, dict[int, Fraction]] = {}
    for (e1, e2), c in phi.terms.items():
        by_x2.setdefault(e2, {})[int(e1)] = c
    acc = ()
    for k in range(max(by_x2, default=0), -1, -1):
        acc = truncate(q_mul(acc, s), order)
        row = by_x2.get(k)
        if row:
            acc = q_add(acc, [row.get(i, 0) for i in range(max(row) + 1)])
    return truncate(acc, order)


def compose_x2_exact(phi, s):
    return compose_x2(phi, s, int(phi.total_degree()) * max(len(s) - 1, 1) + 1)


def solve_critical_branch(f, sigma: int, order: int):
    """Truncated series x2 = psi(x1) with f(x1, psi(x1)) = O(x1^(order+1)).

    ``sigma`` is the x1-order of d f/d x2 along the branch (0 for the A
    family, 1 for the D family); the update at residual order r contributes
    a jet term of exponent r - sigma.
    """
    unit = f.partial_derivative(2, 1).coefficient(sigma, 0)
    if not unit:
        raise InternalInvariantError("branch linearization is not a unit")
    psi = ()
    last_exp = 0
    for _ in range(order + 2):
        residual = compose_x2(f, psi, order + sigma)
        v = valuation(residual)
        if v < 0 or v > order + sigma - 1:
            break
        exp = v - sigma
        if exp <= last_exp:
            raise InternalInvariantError(
                f"critical branch is obstructed at order {v}")
        c = -residual[v] / unit
        psi = q_add(psi, [0] * exp + [c])
        last_exp = exp
    return psi


def series_classification(lh):
    """``(psi_truncation, n, label)`` of ``classify_linear`` on the same
    linear-height report, the jet as an x1-only ``PuiseuxPoly``, from the
    term-by-term solver: when d phi/d x2 vanishes along the jet, n is the
    valuation of phi along it, and otherwise the valuation of phi along the
    jet.  When that lies above the series order, n is read off a second
    solve at twice the order, or at (deg - 1)^2 + 1 if that is higher; the
    jet returned stays at the base order.  A finite n is at most mu + 1, mu
    the Milnor number of the critical point, and by Bezout on the two
    partials of degree deg - 1, mu <= (deg - 1)^2; so n is infinite when
    phi vanishes along the jet past the second order too."""
    work = lh.transformed
    deg = int(work.total_degree())
    order = 4 * deg + 4
    if work.coefficient(0, 2):
        family, sigma = "A", 0
    else:
        # the 3-jet is x2^2*(c12*x1 + c03*x2); make it c12*x1*x2^2
        family, sigma = "D", 1
        c12, c03 = work.coefficient(1, 2), work.coefficient(0, 3)
        work = work.linear_substitute(((Fraction(1), -c03 / c12),
                                       (Fraction(0), Fraction(1))))
    f = work.partial_derivative(2, 1)
    psi = solve_critical_branch(f, sigma, order)
    if not compose_x2_exact(f, psi):
        b0 = compose_x2_exact(work, psi)
        n = valuation(b0) if b0 else None
    else:
        n = valuation(compose_x2(work, psi, order))
        if n < 0:
            deep_order = max(2 * order, (deg - 1) ** 2 + 1)
            deep = solve_critical_branch(f, sigma, deep_order)
            n = valuation(compose_x2(work, deep, deep_order))
        n = n if n >= 0 else None
    index = None if n is None else (n - 1 if family == "A" else n + 1)
    label = f"{family}{'inf' if index is None else index}"
    return PuiseuxPoly({(i, 0): c for i, c in enumerate(psi)}), n, label


# -- a report-level oracle ------------------------------------------------
#
# One ``analyze`` report, checked against the definitions written out again
# here.  Only ``cli.main`` runs library code: the input text is expanded on
# plain dicts by walking its Python syntax tree.


def expand_input(text: str) -> dict:
    """``{(e1, e2): coefficient}`` of an input of integers, x1, x2, + - * /
    ^ and parentheses, expanded on plain dicts; x1 also takes a rational
    exponent ``x1^(p/q)``, as ``render`` prints one."""
    def exponent(node) -> Fraction:
        if isinstance(node, ast.Constant):
            return Fraction(node.value)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            return exponent(node.left) / exponent(node.right)
        raise ValueError(f"unsupported exponent: {ast.dump(node)}")

    def ev(node) -> dict:
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return {(0, 0): Fraction(node.value)} if node.value else {}
        if isinstance(node, ast.Name) and node.id in ("x1", "x2"):
            return {(1, 0) if node.id == "x1" else (0, 1): Fraction(1)}
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return naive_sub({}, ev(node.operand))
        if isinstance(node, ast.BinOp):
            a = ev(node.left)
            if isinstance(node.op, ast.Pow):
                e = exponent(node.right)
                if e.denominator == 1:
                    return naive_pow(a, int(e))
                if a == {(1, 0): 1}:
                    return {(e, 0): Fraction(1)}
            b = ev(node.right)
            if isinstance(node.op, ast.Add):
                return naive_add(a, b)
            if isinstance(node.op, ast.Sub):
                return naive_sub(a, b)
            if isinstance(node.op, ast.Mult):
                return naive_mul(a, b)
            if isinstance(node.op, ast.Div) and set(b) == {(0, 0)}:
                return naive_mul(a, {(0, 0): 1 / b[(0, 0)]})
        raise ValueError(f"unsupported input syntax: {ast.dump(node)}")
    return ev(ast.parse(text.replace("^", "**"), mode="eval").body)


def naive_substitute(p: dict, x1: dict, x2: dict) -> dict:
    """``p(x1, x2)`` for integer exponents, where ``x1`` and ``x2`` are
    dicts in the new variables."""
    out: dict = {}
    for (e1, e2), c in p.items():
        term = naive_mul(naive_pow(x1, int(e1)), naive_pow(x2, e2))
        out = naive_add(out, {k: c * v for k, v in term.items()})
    return out


def naive_shear(p: dict, jet: dict) -> dict:
    """``p(y1, y2 + jet(y1))`` for an x1-only ``jet``; x1 keeps its
    rational exponents."""
    powers = [{(0, 0): Fraction(1)}]
    for _ in range(max((e2 for _e1, e2 in p), default=0)):
        powers.append(naive_mul(powers[-1], naive_add({(0, 1): 1}, jet)))
    out: dict = {}
    for (e1, e2), c in p.items():
        out = naive_add(out, {(e1 + f1, f2): c * v
                              for (f1, f2), v in powers[e2].items()})
    return out


def jet_dict(terms: list[dict]) -> dict:
    """An x1-only jet as printed in a report: coefficient and exponent."""
    return {(Fraction(t["exponent"]), 0): Fraction(t["coefficient"])
            for t in terms}


def analyze_report_mismatches(text: str) -> list[str]:
    """The checks that one ``nrestrict analyze`` report of ``text`` fails:

    - the input polyhedron's vertices and ``d`` against the brute-force hull;
    - ``p_c_prime`` = 2*``h_r`` + 2 or 2*``h`` + 2, as ``source`` says, and
      ``theta``*``p_c_prime`` = 2;
    - the largest Knapp ``derived_exponent`` equals ``p_c_prime``;
    - the singularity's n, index and label follow from ``h``: h = 2n/(n+2)
      for A_(n-1), 2n/(n+1) for D_(n+1), and h = 2 for an infinite index;
    - ``canonical`` expands to ``input``;
    - phi_a, the input composed with ``linear_transform`` and sheared by
      ``psi``, has the ``adapted_polyhedron`` vertices and Newton distance
      ``h``;
    - on the ``r_height_2hr_plus_2`` route, ``h_r`` is the max of three
      terms read off the printed ``adapted_polyhedron`` and ``m`` alone:
      1/(k1 + k2) of the ratio-m supporting line through its vertices,
      (1 + m*k1 - k2)/(k1 + k2) of each edge steeper than m, whose printed
      ``kappa`` and ``a`` must be those of its endpoints, and
      ``horizontal_level`` - 1;
    - phi_a sheared by each splitting branch's ``factorization`` jet is
      x2^``power`` times its ``cofactor``;
    - each branch's ``halt`` witness polynomial changes sign between the
      ends of its ``interval``, so a root lies inside: the factor is
      square-free with its rational roots divided out, so no end is a root.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["analyze", text])
    if code:
        return [f"analyze exits {code}"]
    doc = json.loads(out.getvalue())
    q = lambda s: None if s is None else Fraction(s)
    bad = []

    def check_hull(poly: dict, key: str, name: str, distance: Fraction):
        # the hull's vertices span the same polyhedron as the support
        hull = brute_hull_vertices(list(poly))
        vertices = sorted((Fraction(a), Fraction(b))
                          for a, b in doc[key]["vertices"])
        if vertices != hull:
            bad.append(f"{key} vertices {vertices}")
        if newton_distance(hull) != distance:
            bad.append(f"{name} = {distance}, hull gives "
                       f"{newton_distance(hull)}")

    phi = expand_input(doc["input"])
    if expand_input(doc["canonical"]) != phi:
        bad.append(f"canonical {doc['canonical']} is not the input")
    check_hull(phi, "polyhedron", "d", q(doc["d"]))
    h, p = q(doc["h"]), q(doc["p_c_prime"])
    base = q(doc["h_r"]) if doc["source"] == "r_height_2hr_plus_2" else h
    if p != 2 * base + 2:
        bad.append(f"p_c_prime = {p} with source {doc['source']}")
    if q(doc["theta"]) * p != 2:
        bad.append(f"theta = {doc['theta']}")
    certs = doc["knapp_certificates"]
    if certs is not None and max(q(c["derived_exponent"]) for c in certs) != p:
        bad.append("the largest Knapp exponent is not p_c_prime")
    s = doc["singularity"]
    if s is not None:
        n = None if h == 2 else (2 * h if s["family"] == "A" else h) / (2 - h)
        index = None if n is None else n - 1 if s["family"] == "A" else n + 1
        label = s["family"] + ("inf" if index is None else str(index))
        if (s["n"], s["index"], s["label"]) != (n, index, label):
            bad.append(f"singularity {s['label']} (n = {s['n']}) but h = {h}"
                       f" gives {label} (n = {n})")
    if doc["psi"] is None:
        return bad
    (a, b), (c, d) = [[Fraction(x) for x in row]
                      for row in doc["linear_transform"]]
    phi_a = naive_shear(naive_substitute(
        phi, {k: v for k, v in {(1, 0): a, (0, 1): b}.items() if v},
        {k: v for k, v in {(1, 0): c, (0, 1): d}.items() if v}),
        jet_dict(doc["psi"]))
    check_hull(phi_a, "adapted_polyhedron", "h", h)
    if doc["source"] == "r_height_2hr_plus_2":
        bad.extend(h_r_mismatches(doc))
    for i, branch in enumerate((doc["splitting"] or {}).get("branches", [])):
        f = branch["factorization"]
        if f is not None and naive_shear(phi_a, jet_dict(f["jet"])) != \
                naive_mul(mono(1, 0, f["power"]), expand_input(f["cofactor"])):
            bad.append(f"branch {i}: x2^{f['power']}*({f['cofactor']}) is "
                       "not phi_a sheared by its jet")
        halt = branch.get("halt")
        if halt is not None:
            w = [Fraction(c) for c in halt["witness_poly"]]
            lo, hi = (sum(c * Fraction(t) ** k for k, c in enumerate(w))
                      for t in halt["interval"])
            if lo * hi >= 0:
                bad.append(f"branch {i}: witness {halt['witness_poly']} keeps "
                           f"its sign on {halt['interval']}")
    return bad


def h_r_mismatches(doc: dict) -> list[str]:
    """``h_r`` of an analyze report against its printed adapted polyhedron
    and ``m``: the r-height's formula route, re-derived from the vertices and
    edge endpoints (see :func:`analyze_report_mismatches`)."""
    m, poly = Fraction(doc["m"]), doc["adapted_polyhedron"]
    point = lambda p: (Fraction(p[0]), Fraction(p[1]))
    # the ratio-m line t1 + m*t2 = level has k1 = 1/level, k2 = m/level
    level = min(t1 + m * t2 for t1, t2 in map(point, poly["vertices"]))
    terms = [level / (1 + m), Fraction(poly["horizontal_level"]) - 1]
    bad = []
    for e in poly["edges"]:
        (x0, y0), (x1, y1) = point(e["from"]), point(e["to"])
        den = x1 * y0 - x0 * y1
        k1, k2 = (y0 - y1) / den, (x1 - x0) / den
        if [Fraction(k) for k in e["kappa"]] != [k1, k2] \
                or Fraction(e["a"]) != k2 / k1:
            bad.append(f"edge {e['from']}-{e['to']} prints kappa "
                       f"{e['kappa']}, a = {e['a']}")
        if k2 / k1 > m:
            terms.append((1 + m * k1 - k2) / (k1 + k2))
    if max(terms) != Fraction(doc["h_r"]):
        bad.append(f"h_r = {doc['h_r']}, the adapted polyhedron and m = {m} "
                   f"give {max(terms)}")
    return bad


# -- oscillatory sums ------------------------------------------------------


def direct_sweep(freqs, coeffs, ts, denom) -> float:
    """Mean of the top 8 of |sum_j coeffs_j 2^(i freqs_j t)| * denom over the
    t sample: one complex exponential per (t, term), 4096 terms at a time."""
    freqs = np.asarray(freqs, dtype=float)
    coeffs = np.asarray(coeffs, dtype=float)
    acc = np.zeros(len(ts), dtype=complex)
    for start in range(0, len(freqs), 4096):
        part = slice(start, start + 4096)
        phases = np.exp(1j * np.log(2.0) * np.outer(ts, freqs[part]))
        acc += phases @ coeffs[part]
    vals = np.abs(acc) * denom
    k = min(8, len(vals))
    return float(np.mean(np.sort(vals)[-k:])) if k else 0.0


def direct_level_sups(trial, levels, ts, denom) -> list[float]:
    """The sup proxy of each level's sum over the full index grid [0, m]^2
    ([0, m] for a single trial), evaluated cell by cell: the coefficient is
    prod_k chi(e_k <= log2 r_k) * cos^4(pi z_k / 2) with
    e_k = beta_k . (m1, m2) + log2|a_k| and z_k = (sign_k 2^e_k - c_k) / s_k
    (the cos^4 factor is 1 when the trial has no bump), and the frequency is
    alpha . (m1, m2)."""
    alphas = [float(a) for a in trial.alphas] + [0.0]
    betas = [[float(b) for b in beta] + [0.0] for beta in trial.betas]
    spec = trial.bump_spec
    sups = []
    for m in levels:
        width = m + 1.0 if trial.kind == "double" else 1.0
        m1, m2 = np.meshgrid(np.arange(m + 1.0), np.arange(width),
                             indexing="ij")
        coeff = np.ones(m1.shape)
        for k, (beta, la, r) in enumerate(zip(betas, trial.log2_a,
                                              trial.r_vals)):
            e = beta[0] * m1 + beta[1] * m2 + la
            coeff = np.where(e <= log2(r), coeff, 0.0)
            if spec is not None:
                with np.errstate(over="ignore", invalid="ignore"):
                    z = (trial.sign_a[k] * np.exp2(e) - spec.centers[k]) \
                        / spec.scales[k]
                    coeff = coeff * np.where(np.abs(z) < 1.0,
                                             np.cos(np.pi * z / 2) ** 4, 0.0)
        freqs = alphas[0] * m1 + alphas[1] * m2
        sups.append(direct_sweep(freqs.ravel(), coeff.ravel(), ts, denom))
    return sups


def direct_rho_double(trial, t) -> tuple[np.ndarray, np.ndarray]:
    """The double sum's resonance denominator prod |2^(i nu f t) - 1| over
    the harmonics nu = 1..6 of the frequencies f = alpha_1, alpha_2 and
    alpha_1 b2 - alpha_2 b1 of each direction, with its smallest factor:
    one complex exponential per (harmonic, frequency), multiplied in that
    order."""
    a1, a2 = (float(a) for a in trial.alphas)
    freqs = [a1, a2] + [a1 * float(b2) - a2 * float(b1)
                        for b1, b2 in trial.betas]
    prod = np.ones(len(t))
    low = np.full(len(t), np.inf)
    for nu in range(1, 7):
        for f in freqs:
            factor = np.abs(np.exp(1j * np.log(2.0) * f * nu * t) - 1.0)
            prod = prod * factor
            low = np.minimum(low, factor)
    return prod, low
