"""Adaptedness of coordinates, heights, and the low-height normal forms.

The adaptedness criterion needs the maximal vanishing order of the principal
part along the unit circle; off-axis circle zeros are read off the univariate
restrictions at x1 = 1 and, at a non-integer edge ratio, x1 = -1 (dilation
orbits are transversal to the circle, so circle multiplicity equals univariate
multiplicity), and the axis points add the extreme exponents of the support.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import InternalInvariantError
from .geometry import NewtonPolyhedron, Weight, kappa_principal_part
from .poly import PuiseuxPoly
from .roots import RootRecord, squarefree_real_roots

Matrix = tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]

IDENTITY: Matrix = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
SWAP: Matrix = ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))


def _shear_matrix(b: Fraction) -> Matrix:
    # x1 = y1, x2 = b*y1 + y2: kills the root x2 = b*x1
    return ((Fraction(1), Fraction(0)), (Fraction(b), Fraction(1)))


def _circle_roots(p: PuiseuxPoly, ratio: Fraction
                  ) -> tuple[int, Optional[RootRecord], tuple[RootRecord, ...]]:
    """Circle order of a kappa-homogeneous ``p`` of edge ratio ``ratio`` =
    k2/k1, its off-axis root of highest multiplicity (the ``+`` side wins
    ties), and the real roots of p(1, t).

    ``p`` is ``kappa_principal_part`` output, so neither restriction
    vanishes.  The axis points (+-1, 0) and (0, +-1) add the minimal e2 and
    e1 of the support; off-axis zeros are real roots of p(1, t) and, at a
    non-integer ratio and integer exponents, of p(-1, t).  On the edge, e1 =
    l1 + a*(l2 - e2), so for an integer a p(-1, t) = +-p(1, (-1)^a * t) has
    the same multiplicities.  Otherwise the x1 < 0 side can decide: at ratio
    1/2, ``(x1 + x2^2)^2`` gives p(1, t) = (1 + t^2)^2 with no real root and
    p(-1, t) = (t^2 - 1)^2 with two double ones.
    """
    found = [tuple(squarefree_real_roots(p.restrict_x1(1)))]
    if ratio.denominator != 1 and p.ramification == 1:
        found.append(tuple(squarefree_real_roots(p.restrict_x1(-1))))
    # max keeps the first of equal multiplicities: the + side wins ties
    best = max((rec for side in found for rec in side),
               key=lambda rec: rec.multiplicity, default=None)
    order = 0 if best is None else best.multiplicity
    # axis points: orders of vanishing along the coordinate restrictions
    order = max(order, p.min_e2())
    min_e1 = p.min_e1()
    if min_e1.denominator == 1:
        order = max(order, int(min_e1))
    return order, best, found[0]


@dataclass(frozen=True)
class AdaptednessVerdict:
    adapted: bool
    criterion: Optional[str]          # "a" | "b" | "c" when adapted
    m_pr: Optional[int]               # circle order of the principal part
    d: Fraction
    weight: Optional[Weight]          # principal weight when face is compact
    # when not adapted, the off-axis circle root of highest multiplicity: of
    # p(1, t), or at a non-integer ratio possibly of p(-1, t)
    witness: Optional[RootRecord]
    # the polyhedron judged and, on a compact principal edge, the real roots
    # of p(1, t) (None off such an edge); later stages read them
    polyhedron: NewtonPolyhedron = field(compare=False, repr=False)
    roots: Optional[tuple[RootRecord, ...]] = field(default=None, compare=False,
                                                    repr=False)


def is_adapted(phi: PuiseuxPoly) -> AdaptednessVerdict:
    """Adaptedness of the given coordinates.

    Vertex and unbounded principal faces are always adapted; a compact
    principal edge is adapted iff the circle order of the principal part is
    at most the Newton distance (automatic when neither k2/k1 nor k1/k2 is
    an integer); see :func:`_circle_roots` for the circle order.
    """
    n = NewtonPolyhedron.of(phi)
    d = n.distance()
    face = n.principal_face()
    if face.kind == "vertex":
        return AdaptednessVerdict(True, "b", None, d, None, None, n)
    if face.kind == "unbounded_edge":
        return AdaptednessVerdict(True, "c", None, d, None, None, n)
    w = face.edge.weight
    ratio = w.a
    m_pr, witness, roots = _circle_roots(kappa_principal_part(phi, w), ratio)
    if ratio.denominator != 1 and (1 / ratio).denominator != 1 and m_pr >= d:
        raise InternalInvariantError(
            "non-integer weight ratio must force circle order < distance")
    if m_pr <= d:
        return AdaptednessVerdict(True, "a", m_pr, d, w, None, n, roots)
    return AdaptednessVerdict(False, None, m_pr, d, w, witness, n, roots)


@dataclass(frozen=True)
class LinearHeightReport:
    h_lin: Fraction
    transform: Matrix                  # x = T y realizing h_lin
    transformed: PuiseuxPoly           # phi in the linearly adapted coordinates
    adapted_linear_exists: bool
    m: Optional[Fraction]              # k2/k1 in the final coordinates, if > 1
    verdict: AdaptednessVerdict        # adaptedness in the final coordinates
    input_verdict: AdaptednessVerdict  # adaptedness of the input itself


def linear_height(phi: PuiseuxPoly) -> LinearHeightReport:
    """Maximal Newton distance over linear coordinate changes.

    The given coordinates are judged once.  Unless they are adapted or the
    principal weight ratio a = k2/k1 is at least 2, one linear change is
    made and judged, and that ends the search:

    - at a < 1 the edge is non-adapted only if 1/a is an integer (see
      :func:`is_adapted`), so the swap x1 <-> x2 gives the ratio 1/a >= 2 and
      keeps the verdict;
    - at a = 1 the principal part is homogeneous of degree 2d, and the shear
      x2 -> x2 + b*x1 kills its unique circle root b of multiplicity mu > d
      (rational, see :func:`_shear_root`).  The new part of degree 2d is
      x2^mu times a form that does not vanish at (1, 0), so the polyhedron
      has the vertex (2d - mu, mu) above the bisectrix, and every edge of the
      principal face, right of it and below the bisectrix, has ratio > 1.

    A ratio above 1 is adapted unless it is an integer >= 2, so the second
    verdict is adapted or has ratio >= 2.  The transform is ``IDENTITY``,
    ``SWAP`` or ``_shear_matrix(b)``.
    """
    if phi.ramification != 1:
        raise ValueError("linear height needs an integer-exponent polynomial")
    first = verdict = is_adapted(phi)
    t, cur = IDENTITY, phi
    if not verdict.adapted and verdict.weight.a < 2:
        if verdict.weight.a < 1:
            t, cur = SWAP, phi.swap_variables()
        else:
            b = _shear_root(verdict)
            t = _shear_matrix(b)
            cur = phi.shear_substitute(PuiseuxPoly.monomial(b, 1, 0))
        verdict = is_adapted(cur)
    w = verdict.weight
    m = None if w is None else max(w.a, 1 / w.a)
    return LinearHeightReport(verdict.d, t, cur, verdict.adapted, m, verdict,
                              first)


def _shear_root(verdict: AdaptednessVerdict) -> Fraction:
    """The root coefficient the next shear of a non-adapted polynomial kills.

    It is the verdict's witness, a root of p(1, t) of multiplicity > d, where
    p is the principal part: the callers shear only at an integer weight
    ratio k2/k1 >= 1, where p(-1, t) is not isolated.  So p(1, t) in Q[t]
    has degree at most 1/k2 <= 2/(k1 + k2) = 2d.  Hence at most one root,
    real or complex, has multiplicity > d; every automorphism of the
    algebraic numbers permutes the roots of p(1, t) keeping multiplicities,
    so it fixes that root, and the root is rational.  An irrational witness
    is an internal error.
    """
    rec = verdict.witness
    if rec is None or rec.multiplicity <= verdict.d:
        raise InternalInvariantError(
            "non-adapted verdict has no circle root exceeding the distance")
    if not rec.is_rational:
        raise InternalInvariantError(
            f"irrational circle root of multiplicity {rec.multiplicity} "
            f"exceeds the distance {verdict.d}")
    return rec.value


@dataclass(frozen=True)
class SingularityClass:
    family: str                      # "A" | "D"
    index: Optional[int]             # None encodes the infinite index
    m: int
    n: Optional[int]                 # from h; None encodes the infinite n
    psi_truncation: PuiseuxPoly      # x1-only root jet of the normal form

    @property
    def label(self) -> str:
        idx = "inf" if self.index is None else str(self.index)
        return f"{self.family}{idx}"


def classify_linear(lh: LinearHeightReport, h: Fraction) -> SingularityClass:
    """Normal-form class (A or D family) of a polynomial of linear height
    < 2, from its linear-height report and its height ``h``.

    Requires a critical point at the origin and that no linear coordinate
    system is adapted.  The index is read off ``h``, an analytic invariant
    (Varchenko): the normal forms x2^2 +- x1^n of A_(n-1) and x1*x2^2 +-
    x1^n of D_(n+1) are adapted, with h = 2n/(n+2) and h = 2n/(n+1), and
    the infinite-index forms x2^2 and x1*x2^2 have h = 2.  So n = 2h/(2 - h)
    for A and h/(2 - h) for D, and n is infinite exactly when h = 2.

    The normal form is read off the coordinates ``linear_height`` returns:
    the 2-jet is c02*x2^2 and, if c02 = 0, the 3-jet is x2^2*(c12*x1 +
    c03*x2) with c12 != 0.  There the principal edge has weight (k1, k2),
    k2 >= 2*k1, and distance d = 1/(k1 + k2) in [1, 2) (no term has degree
    < 2), and every support point e has k1*e1 + k2*e2 >= 1.  So:

    - (2, 0) would give k1 >= 1/2, k2 >= 1, so d <= 2/3;
    - (1, 1) would give d = 1, so (1, 1) = (d, d) on the edge's line; a
      lattice point above it there needs e1 = 0 and e2 = 1/k2 <= 3/2, so
      the principal face would be the vertex (1, 1), which is adapted;
    - once c02 = 0, every term has degree >= 3, so d >= 3/2; but (3, 0)
      would give k1 + k2 >= 1, and (2, 1) k1 + k2 >= 3/4*(2*k1 + k2) >= 3/4;
    - if also c12 = 0, the edge's upper end e has e1 <= d < 2, so e2 >= 3
      and d, the k-weighted mean of e1 and e2, is >= 3*k2/(k1 + k2) >= 2.

    Family A (sigma = 0) keeps the coordinates; family D (sigma = 1) maps
    x1 -> x1 - (c03/c12)*x2, which makes the 3-jet c12*x1*x2^2.

    The printed root jet psi is the branch of critical points of x2 ->
    phi(x1, x2), solved to order ``4 * deg + 4`` for an input of total
    degree ``deg`` and peeled on the shear kernel, one monomial per pass.
    In ``phi(x1, x2 + psi)`` the x2^1 row is d phi/d x2 along psi and the
    x2^0 row, b0, is phi along psi.  A pass reads the lowest term c*x1^v of
    the x2^1 row and shears by ``-c/unit * x1^(v - sigma)``, where ``unit *
    x1^sigma`` leads d^2 phi/d x2^2 along the branch (``unit`` is 2*c02 or
    2*c12); it stops once that row vanishes below x1^(order + sigma).  Terms
    of x1-order above ``order + sigma`` are dropped once before the first
    pass and never formed by the capped shears, which is exact for the
    orders kept: a shear by c*x1^e with e >= 1 never lowers an x1-order.
    The terms of b0 up to x1^order are exact (the jet error enters above
    them), so b0 is a second route to n: when either its valuation or n is
    at most ``order``, the two must be equal.
    """
    if lh.h_lin >= 2:
        raise ValueError(f"linear height {lh.h_lin} is not < 2")
    if lh.adapted_linear_exists:
        raise ValueError("an adapted linear coordinate system exists")
    work = lh.transformed
    order = 4 * int(work.total_degree()) + 4

    c02 = work.coefficient(0, 2)
    if c02:
        family, sigma, unit = "A", 0, 2 * c02
    else:
        family, sigma = "D", 1
        c12 = work.coefficient(1, 2)
        if not c12:
            raise InternalInvariantError(
                "D-type linear coordinates have no x1*x2^2 term")
        c03 = work.coefficient(0, 3)
        if c03:
            work = work.linear_substitute(((Fraction(1), -c03 / c12),
                                           (Fraction(0), Fraction(1))))
        unit = 2 * c12
    cap = order + sigma
    psi: dict[int, Fraction] = {}
    last_exp = 0
    # work has integer exponents, so its lattice keys are its exponents
    _q, den, terms = work.lattice()
    sheared = PuiseuxPoly.from_lattice(1, den, {
        k: n for k, n in terms.items() if k[0] <= cap})
    while True:
        den, residual = _x2_row(sheared, 1)
        v = min(residual, default=cap)
        if v >= cap:
            break
        exp = v - sigma
        if exp <= last_exp:
            raise InternalInvariantError(
                "critical branch is obstructed at order "
                f"{v}; no normal form of the expected shape")
        psi[exp] = -Fraction(residual[v], den) / unit
        sheared = sheared.shear_substitute(
            PuiseuxPoly.monomial(psi[exp], exp), cap=cap)
        last_exp = exp
    m = min(psi, default=-1)
    if m < 2:
        raise InternalInvariantError("normal-form root jet must start at order >= 2")

    n = None
    if h != 2:
        lower = 2 * m + 1 if family == "A" else 2 * m + 2
        q = (2 * h if family == "A" else h) / (2 - h)
        if q.denominator != 1 or q < lower:
            raise InternalInvariantError(
                f"height {h} gives no type {family} index with n >= {lower}")
        n = int(q)
    v = min(_x2_row(sheared, 0)[1], default=order + 1)
    if min(v, order + 1) != (order + 1 if n is None else min(n, order + 1)):
        raise InternalInvariantError(
            f"phi vanishes to order {v} along the critical branch, "
            f"but the height {h} gives n = {n}")
    index = None if n is None else (n - 1 if family == "A" else n + 1)

    d_expected = (Fraction(2 * m, m + 1) if family == "A"
                  else Fraction(2 * m + 1, m + 1))
    if NewtonPolyhedron.of(work).distance() != d_expected:
        raise InternalInvariantError(
            "normal-form distance does not match the classified family")
    jet = PuiseuxPoly({(e1, 0): c for e1, c in psi.items()})
    return SingularityClass(family=family, index=index, m=m, n=n,
                            psi_truncation=jet)


def _x2_row(phi: PuiseuxPoly, e2: int) -> tuple[int, dict[int, int]]:
    """``(den, row)``: the x2^e2 row of an integer-exponent ``phi`` as
    x1-exponent -> numerator over the common denominator ``den``."""
    _q, den, terms = phi.lattice()
    return den, {e: n for (e, k), n in terms.items() if k == e2}
