"""Adaptedness of coordinates, heights, and the low-height normal forms.

The adaptedness criterion needs the maximal vanishing order of the principal
part along the unit circle; off-axis circle zeros are read off the univariate
restrictions at x1 = 1 and x1 = -1 (dilation orbits are transversal to the
circle, so circle multiplicity equals univariate multiplicity), and the axis
points contribute the extreme exponents of the support.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import AlgebraicRootHalt, InternalInvariantError
from .geometry import (Face, NewtonPolyhedron, Weight,
                       kappa_principal_part)
from .poly import PuiseuxPoly
from .roots import RootRecord, UniPoly, squarefree_real_roots

Matrix = tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]

IDENTITY: Matrix = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
SWAP: Matrix = ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))


def _matmul(s: Matrix, t: Matrix) -> Matrix:
    return (
        (s[0][0] * t[0][0] + s[0][1] * t[1][0], s[0][0] * t[0][1] + s[0][1] * t[1][1]),
        (s[1][0] * t[0][0] + s[1][1] * t[1][0], s[1][0] * t[0][1] + s[1][1] * t[1][1]),
    )


def _shear_matrix(b: Fraction) -> Matrix:
    # x1 = y1, x2 = b*y1 + y2: kills the root x2 = b*x1
    return ((Fraction(1), Fraction(0)), (Fraction(b), Fraction(1)))


def circle_vanishing_order(p: PuiseuxPoly, w: Weight) -> int:
    """Maximal vanishing order of a kappa-homogeneous ``p`` on the unit circle."""
    return _circle_roots(p, w)[0]


def _circle_roots(p: PuiseuxPoly, w: Weight) -> tuple[int, Optional[RootRecord]]:
    """Circle order of a kappa-homogeneous ``p`` and its off-axis root of
    highest multiplicity, from one isolation per restriction.

    Off-axis zeros come from real roots of p(1, t) and (for integer
    exponents) p(-1, t); the axis points (+-1, 0) and (0, +-1) contribute the
    minimal e2 respectively minimal e1 of the support.  The ``+`` side wins
    ties: with an integer weight ratio the ``-`` side roots mirror the ``+``
    side roots with the same multiplicities.
    """
    values = {w.k1 * e1 + w.k2 * e2 for (e1, e2) in p.support()}
    if len(values) > 1:
        raise ValueError("principal part is not kappa-homogeneous")
    best: Optional[RootRecord] = None
    sides = [("+", 1)]
    if p.ramification == 1:
        sides.append(("-", -1))
    for label, sign in sides:
        u = UniPoly(p.restrict_x1(sign))
        if u.is_zero():
            raise InternalInvariantError("homogeneous part restricts to zero")
        for rec in squarefree_real_roots(u, sign_of_variable=label):
            if best is None or rec.multiplicity > best.multiplicity:
                best = rec
    order = 0 if best is None else best.multiplicity
    # axis points: orders of vanishing along the coordinate restrictions
    order = max(order, p.min_e2())
    min_e1 = min(e1 for (e1, _e2) in p.support())
    if min_e1.denominator == 1:
        order = max(order, int(min_e1))
    return order, best


@dataclass(frozen=True)
class AdaptednessVerdict:
    adapted: bool
    criterion: Optional[str]          # "a" | "b" | "c" when adapted
    m_pr: Optional[int]               # circle order of the principal part
    d: Fraction
    face: Face
    weight: Optional[Weight]          # principal weight when face is compact
    witness: Optional[RootRecord]     # a circle root with multiplicity > d
    ratio_shortcut: bool = False      # k2/k1 (or inverse) not an integer


def is_adapted(phi: PuiseuxPoly) -> AdaptednessVerdict:
    """Adaptedness of the given coordinates.

    Vertex and unbounded principal faces are always adapted; a compact
    principal edge is adapted iff the circle order of the principal part is
    at most the Newton distance (automatic when neither k2/k1 nor k1/k2 is
    an integer).
    """
    n = NewtonPolyhedron.of(phi)
    d = n.distance()
    face = n.principal_face()
    if face.kind == "vertex":
        return AdaptednessVerdict(True, "b", None, d, face, None, None)
    if face.kind == "unbounded_edge":
        return AdaptednessVerdict(True, "c", None, d, face, None, None)
    w = face.edge.weight
    m_pr, witness = _circle_roots(kappa_principal_part(phi, w), w)
    ratio = w.a
    shortcut = ratio.denominator != 1 and (1 / ratio).denominator != 1
    if shortcut and m_pr >= d:
        raise InternalInvariantError(
            "non-integer weight ratio must force circle order < distance")
    if m_pr <= d:
        return AdaptednessVerdict(True, "a", m_pr, d, face, w, None, shortcut)
    return AdaptednessVerdict(False, None, m_pr, d, face, w, witness, shortcut)


@dataclass(frozen=True)
class LinearHeightReport:
    h_lin: Fraction
    transform: Matrix                  # x = T y realizing h_lin
    transformed: PuiseuxPoly           # phi in the linearly adapted coordinates
    adapted_linear_exists: bool
    m: Optional[Fraction]              # k2/k1 in the final coordinates, if > 1
    verdict: AdaptednessVerdict        # adaptedness in the final coordinates
    input_verdict: AdaptednessVerdict  # adaptedness of the input itself


def linear_height(phi: PuiseuxPoly, max_steps: int = 32) -> LinearHeightReport:
    """Maximal Newton distance over linear coordinate changes.

    Follows the constructive characterization of linearly adapted
    coordinates: while the principal face is a compact edge with weight ratio
    one, shear off the unique circle root of multiplicity exceeding the
    distance (rational required, else an algebraic-root halt); a coordinate
    swap keeps k1 <= k2.  Stops as soon as the coordinates are adapted or the
    weight ratio reaches 2.
    """
    if phi.ramification != 1:
        raise ValueError("linear height needs an integer-exponent polynomial")
    t: Matrix = IDENTITY
    cur = phi
    first = None
    for _ in range(max_steps):
        verdict = is_adapted(cur)
        if first is None:
            first = verdict
        if verdict.adapted:
            return LinearHeightReport(verdict.d, t, cur, True,
                                      _final_ratio(verdict), verdict, first)
        w = verdict.weight
        if w.a < 1:
            cur = cur.swap_variables()
            t = _matmul(t, SWAP)
            continue
        if w.a >= 2:
            return LinearHeightReport(verdict.d, t, cur, False, w.a, verdict,
                                      first)
        if w.a != 1:
            # non-integer ratio in (1, 2) would have been adapted already
            raise InternalInvariantError(f"unexpected principal ratio {w.a}")
        cur, t = _equal_weight_shear(cur, t, verdict)
    raise InternalInvariantError("linear height search did not stabilize")


def _final_ratio(verdict: AdaptednessVerdict) -> Optional[Fraction]:
    if verdict.weight is None:
        return None
    a = verdict.weight.a
    return a if a > 1 else (1 / a if a < 1 else a)


def _equal_weight_shear(cur: PuiseuxPoly, t: Matrix,
                        verdict: AdaptednessVerdict) -> tuple[PuiseuxPoly, Matrix]:
    """One Varchenko step at weight ratio one.

    The principal part is homogeneous of degree 2d; the verdict's witness is
    its unique circle root of multiplicity > d.
    """
    b = _shear_root(verdict, "linear height shear")
    sheared = cur.shear_substitute(PuiseuxPoly.monomial(b, 1, 0))
    return sheared, _matmul(t, _shear_matrix(b))


def _shear_root(verdict: AdaptednessVerdict, context: str) -> Fraction:
    """The root coefficient the next shear of a non-adapted polynomial kills.

    It is the verdict's witness: the circle root of multiplicity > d, unique
    because the principal edge crosses the bisectrix, and found on the ``+``
    side.  An irrational witness halts with its square-free factor of
    p(1, t), which the record carries.
    """
    rec = verdict.witness
    if rec is None or rec.multiplicity <= verdict.d or rec.sign_of_variable != "+":
        raise InternalInvariantError(
            "non-adapted verdict has no + side circle root exceeding the distance")
    if not rec.is_rational:
        raise AlgebraicRootHalt(rec.interval, rec.factor, rec.multiplicity,
                                context=context)
    return rec.value


def height(phi: PuiseuxPoly, max_steps: int = 64) -> tuple[Fraction, "object"]:
    """Varchenko height: the supremum of Newton distances over local
    coordinate changes.  Returns (h, adapted-coordinates record); the record
    is None when the input is already adapted after the linear stage.
    """
    from .splitting import adapted_coordinates

    lh = linear_height(phi)
    if lh.verdict.adapted:
        return lh.h_lin, None
    ac = adapted_coordinates(lh.transformed, max_steps=max_steps,
                             verdict=lh.verdict)
    return ac.h, ac


@dataclass(frozen=True)
class SingularityClass:
    family: str                      # "A" | "D"
    index: Optional[int]             # None encodes the infinite index
    m: int
    n: Optional[int]                 # vanishing order of b0; None = infinite
    psi_truncation: UniPoly          # root jet of the normal form, in x1
    b0: Optional[UniPoly]            # exact b0 when psi is exactly polynomial
    exact: bool                      # n (incl. infinity) certified exactly
    truncation_order: int

    @property
    def label(self) -> str:
        idx = "inf" if self.index is None else str(self.index)
        return f"{self.family}{idx}"


def classify_singularity(phi: PuiseuxPoly, series_order: int | None = None,
                         _expected_d: bool = True) -> SingularityClass:
    """Normal-form class (A or D family) for polynomials of linear height < 2.

    Requires that no linear coordinate system is adapted.  The root jet of
    the normal form is the branch of critical points of x2 -> phi(x1, x2),
    solved term by term with rational coefficients; ``b0`` is phi evaluated
    along the jet, and its vanishing order fixes the index.
    """
    if phi.ramification != 1:
        raise ValueError("classification needs an integer-exponent polynomial")
    return classify_linear(linear_height(phi), series_order, _expected_d)


def classify_linear(lh: LinearHeightReport, series_order: int | None = None,
                    _expected_d: bool = True) -> SingularityClass:
    """:func:`classify_singularity` from the linear-height report the caller
    already holds."""
    if lh.h_lin >= 2:
        raise ValueError(f"linear height {lh.h_lin} is not < 2")
    if lh.adapted_linear_exists:
        raise ValueError("an adapted linear coordinate system exists")
    work = lh.transformed
    if series_order is None:
        series_order = 4 * int(work.total_degree()) + 4

    p2 = _homogeneous_part(work, 2)
    if p2:
        family = "A"
        work = _normalize_rank_one(work, p2)
        sigma = 0
    else:
        family = "D"
        work = _normalize_cubic(work)
        sigma = 1

    f = work.partial_derivative(2, 1)
    psi = _solve_critical_branch(f, sigma, series_order)
    b0_series = _compose_x2(work, psi, series_order)
    m = psi.valuation()
    if m < 2:
        raise InternalInvariantError("normal-form root jet must start at order >= 2")

    # exactness: if psi satisfies the branch equation exactly, b0 is exact;
    # otherwise any nonzero coefficient of b0 below the truncation order is
    # still exact (the jet error enters above it)
    branch_exact = _exact_branch(f, psi)
    if branch_exact:
        b0 = _compose_exact(work, psi)
        n = None if b0.is_zero() else b0.valuation()
        exact_flag = True
    else:
        b0 = None
        v = b0_series.valuation()
        n = v if v >= 0 else None
        exact_flag = v >= 0

    if n is not None:
        lower = 2 * m + 1 if family == "A" else 2 * m + 2
        if n < lower:
            raise InternalInvariantError(
                f"type {family} index out of range: n = {n} < {lower}")
        index = n - 1 if family == "A" else n + 1
    else:
        index = None

    if _expected_d:
        d_expected = (Fraction(2 * m, m + 1) if family == "A"
                      else Fraction(2 * m + 1, m + 1))
        if NewtonPolyhedron.of(work).distance() != d_expected:
            raise InternalInvariantError(
                "normal-form distance does not match the classified family")
    return SingularityClass(family=family, index=index, m=m, n=n,
                            psi_truncation=psi, b0=b0, exact=exact_flag,
                            truncation_order=series_order)


def _homogeneous_part(phi: PuiseuxPoly, total: int) -> PuiseuxPoly:
    return PuiseuxPoly({(e1, e2): c for (e1, e2), c in phi.terms.items()
                        if e1 + e2 == total})


def _normalize_rank_one(phi: PuiseuxPoly, p2: PuiseuxPoly) -> PuiseuxPoly:
    """Linear change making the quadratic part a multiple of x2^2."""
    c20 = p2.coefficient(2, 0)
    c11 = p2.coefficient(1, 1)
    c02 = p2.coefficient(0, 2)
    if c11 * c11 - 4 * c20 * c02 != 0:
        raise ValueError("quadratic part has full rank; coordinates are adapted")
    if c02:
        b = -c11 / (2 * c02)
        return phi.shear_substitute(PuiseuxPoly.monomial(b, 1, 0)) if b else phi
    if c20:
        return phi.swap_variables()
    raise InternalInvariantError("rank-one quadratic part with no square term")


def _normalize_cubic(phi: PuiseuxPoly) -> PuiseuxPoly:
    """Linear change making the cubic part a multiple of x1*x2^2."""
    p3 = _homogeneous_part(phi, 3)
    if p3.is_zero():
        raise ValueError("vanishing 2- and 3-jets put the linear height at >= 2")
    r = UniPoly(p3.restrict_x1(1))
    x1_mult = 3 - r.degree()
    from .roots import gcd as _gcd
    if x1_mult >= 2:
        if x1_mult == 3:
            raise ValueError("cubic part is a perfect cube; linear height >= 2")
        phi = phi.swap_variables()
        p3 = _homogeneous_part(phi, 3)
        r = UniPoly(p3.restrict_x1(1))
    g = _gcd(r, r.derivative())
    if g.degree() >= 2:
        raise ValueError("cubic part is a perfect cube; linear height >= 2")
    if g.degree() == 1:
        beta = -g.coeffs[0] / g.coeffs[1]
        if beta:
            phi = phi.shear_substitute(PuiseuxPoly.monomial(beta, 1, 0))
            p3 = _homogeneous_part(phi, 3)
    elif x1_mult != 2:
        raise ValueError("cubic part has no double real factor (circle order != 2)")
    # now p3 = x2^2 * (a*x1 + b*x2); move the simple factor onto x1
    a = p3.coefficient(1, 2)
    b = p3.coefficient(0, 3)
    if not a:
        raise ValueError("cubic part is a perfect cube after normalization")
    if b:
        t = ((Fraction(1), -b / a), (Fraction(0), Fraction(1)))
        phi = phi.linear_substitute(t)
    return phi


def _solve_critical_branch(f: PuiseuxPoly, sigma: int, order: int) -> UniPoly:
    """Truncated series x2 = psi(x1) with f(x1, psi(x1)) = O(x1^{order+1}).

    ``sigma`` is the x1-order of the linearization d f/d x2 along the branch
    (0 for the A family, 1 for the D family); the update at residual order r
    contributes a jet term of exponent r - sigma.
    """
    d2 = f.partial_derivative(2, 1)
    unit = _coeff_x1(d2, sigma, 0)
    if not unit:
        raise InternalInvariantError("branch linearization is not a unit")
    psi = UniPoly()
    last_exp = 0
    for _ in range(order + 2):
        residual = _compose_x2(f, psi, order + sigma)
        v = residual.valuation()
        if v < 0 or v > order + sigma - 1:
            break
        exp = v - sigma
        if exp <= last_exp:
            raise InternalInvariantError(
                "critical branch is obstructed at order "
                f"{v}; no normal form of the expected shape")
        c = -residual.coeffs[v] / unit
        psi = psi + UniPoly([Fraction(0)] * exp + [c])
        last_exp = exp
    return psi


def _coeff_x1(phi: PuiseuxPoly, e1: int, e2: int) -> Fraction:
    return phi.coefficient(Fraction(e1), e2)


def _compose_x2(phi: PuiseuxPoly, s: UniPoly, order: int) -> UniPoly:
    """phi(x1, s(x1)) truncated at x1^order (integer exponents required)."""
    if phi.ramification != 1:
        raise ValueError("composition needs integer exponents")
    by_x2 = phi.as_x2_coefficients()
    top = max(by_x2) if by_x2 else 0
    acc = UniPoly()
    for k in range(top, -1, -1):
        acc = (acc * s).truncate(order)
        row = by_x2.get(k)
        if row:
            acc = acc + UniPoly([row.get(Fraction(i), Fraction(0))
                                 for i in range(int(max(row)) + 1)])
    return acc.truncate(order)


def _compose_exact(phi: PuiseuxPoly, s: UniPoly) -> UniPoly:
    deg = int(phi.total_degree()) * max(s.degree(), 1) + 1
    return _compose_x2(phi, s, deg)


def _exact_branch(f: PuiseuxPoly, psi: UniPoly) -> bool:
    """True iff psi satisfies the branch equation as an exact polynomial."""
    return _compose_exact(f, psi).is_zero()
