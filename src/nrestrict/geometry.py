"""Newton polyhedra and their line-intersection invariants.

Everything here is exact, and the two r-height computations (edge formula
vs. the augmented polyhedron met by the shifted bisectrix) are asserted equal
on every call.  The hull runs on Python ints: support points are scaled onto
an integer lattice (by the polynomial's ramification along t1), which keeps
every dominance test and every orientation sign, and only the vertices found
are mapped back to their rational points.

Conventions: points live in the exponent plane with coordinates (t1, t2);
vertices are listed with t1 strictly increasing and t2 strictly decreasing;
a supporting line with weight ``kappa`` is ``k1*t1 + k2*t2 = 1`` and
``a = k2/k1`` is the reciprocal of its (modulus of) slope.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import InternalInvariantError
from .poly import PuiseuxPoly

Point = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class Weight:
    """Weight (k1, k2) of a supporting line k1*t1 + k2*t2 = 1."""

    k1: Fraction
    k2: Fraction

    def __post_init__(self):
        if self.k1 <= 0 or self.k2 < 0:
            raise ValueError("weight needs k1 > 0 and k2 >= 0")

    @property
    def a(self) -> Fraction:
        """k2/k1, the reciprocal slope."""
        return self.k2 / self.k1

    def dot(self, p: Point) -> Fraction:
        return self.k1 * p[0] + self.k2 * p[1]

    def homogeneous_distance(self) -> Fraction:
        return 1 / (self.k1 + self.k2)


@dataclass(frozen=True)
class EdgeData:
    """A compact edge of the polyhedron with its weight."""

    left: Point
    right: Point
    weight: Weight

    @property
    def a(self) -> Fraction:
        return self.weight.a


@dataclass(frozen=True)
class Face:
    """Face of minimal dimension containing a boundary point."""

    kind: str  # "vertex" | "compact_edge" | "unbounded_edge"
    vertex: Optional[Point] = None
    edge: Optional[EdgeData] = None
    orientation: Optional[str] = None  # for unbounded edges: "horizontal" | "vertical"


def _staircase_hull(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Extreme points of conv(union of quadrants p + R+^2) for sorted,
    distinct integer points.

    One pass keeps the Pareto-minimal staircase (t2 strictly dropping as t1
    grows) and feeds it to a monotone-chain scan that keeps only strictly
    convex corners (collinear interior points are dropped).
    """
    chain: list[tuple[int, int]] = []
    best_t2 = None
    for p in points:  # t1 ascending, then t2 ascending
        if best_t2 is not None and p[1] >= best_t2:
            continue
        best_t2 = p[1]
        while len(chain) >= 2:
            (o1, o2), (a1, a2) = chain[-2], chain[-1]
            if (a1 - o1) * (p[1] - o2) - (a2 - o2) * (p[0] - o1) > 0:
                break
            chain.pop()
        chain.append(p)
    return chain


def edge_weight(left: Point, right: Point) -> Weight:
    """Weight of the line through two consecutive staircase vertices: t1
    rises, t2 falls and stays >= 0, so ``denom`` is positive."""
    denom = right[0] * left[1] - left[0] * right[1]
    return Weight((left[1] - right[1]) / denom, (right[0] - left[0]) / denom)


class NewtonPolyhedron:
    """Vertices, compact edges and rays of a Newton(-Puiseux) polyhedron."""

    support: list[Point]
    vertices: list[Point]
    edges: list[EdgeData]
    vertical_ray_present: bool
    horizontal_level: Fraction

    @staticmethod
    def of(phi: PuiseuxPoly) -> "NewtonPolyhedron":
        """The Newton(-Puiseux) polyhedron of ``phi``'s Taylor support.

        The support goes to the hull on the lattice ``(e1 * q, e2)`` of
        ``phi``'s ramification ``q``, straight from the term keys.
        """
        if phi.is_zero():
            raise ValueError("zero polynomial is not of finite type")
        q = phi.ramification
        t2s: dict[int, Fraction] = {}
        scaled: dict[tuple[int, int], Point] = {}
        for e1, e2 in phi.terms:
            t2 = t2s.get(e2)
            if t2 is None:
                t2 = t2s[e2] = Fraction(e2)
            scaled[(e1.numerator * (q // e1.denominator), e2)] = (e1, t2)
        # scaling the t1 axis by q leaves the hull's points the same
        lattice = sorted(scaled)
        n = NewtonPolyhedron()
        n.support = [scaled[p] for p in lattice]
        n.vertices = [scaled[v] for v in _staircase_hull(lattice)]
        n.edges = [EdgeData(u, v, edge_weight(u, v))
                   for u, v in zip(n.vertices, n.vertices[1:])]
        # rays: vertical above the first vertex, horizontal right of the last
        n.vertical_ray_present = n.vertices[0][0] > 0
        n.horizontal_level = n.vertices[-1][1]
        return n

    # -- supporting lines ----------------------------------------------

    def supporting_weight_for_ratio(self, a: Fraction) -> Weight:
        """The supporting line with reciprocal slope ``a`` (exact contact)."""
        if a <= 0:
            raise ValueError("ratio must be positive")
        level = min(p[0] + a * p[1] for p in self.support)
        if level == 0:
            raise ValueError("support touches the origin; no supporting "
                             "line at level one")
        k1 = 1 / level
        return Weight(k1, a * k1)

    def contact_vertices(self, w: Weight) -> list[Point]:
        return [v for v in self.vertices if w.dot(v) == 1]

    # -- invariants ----------------------------------------------------

    def distance(self) -> Fraction:
        """Newton distance: the bisectrix meets the boundary at (d, d)."""
        d = max(self.vertices[0][0], self.horizontal_level)
        for e in self.edges:
            d = max(d, e.weight.homogeneous_distance())
        return d

    def principal_face(self) -> Face:
        """Minimal-dimension face containing (d, d)."""
        d = self.distance()
        p = (d, d)
        if p in self.vertices:
            return Face(kind="vertex", vertex=p)
        for e in self.edges:
            if e.weight.dot(p) == 1 and e.left[0] < d < e.right[0]:
                return Face(kind="compact_edge", edge=e)
        if d == self.horizontal_level and d > self.vertices[-1][0]:
            return Face(kind="unbounded_edge", orientation="horizontal",
                        vertex=self.vertices[-1])
        if d == self.vertices[0][0] and d > self.vertices[0][1]:
            return Face(kind="unbounded_edge", orientation="vertical",
                        vertex=self.vertices[0])
        raise InternalInvariantError(f"(d, d) = {p} not located on the boundary")


def kappa_principal_part(phi: PuiseuxPoly, w: Weight) -> PuiseuxPoly:
    """Terms of ``phi`` on the supporting line of ``w`` (kappa-homogeneous
    of degree 1); rejects weights whose line does not support the polyhedron."""
    values = [w.k1 * e1 + w.k2 * e2 for (e1, e2) in phi.support()]
    if min(values) != 1:
        raise ValueError("line of given weight is not supporting at level 1")
    return phi.terms_on_line(lambda e1, e2: w.k1 * e1 + w.k2 * e2, Fraction(1))


def h_l_of_edge(w: Weight, m: Fraction) -> Fraction:
    """Height contribution of an edge line: the second coordinate, minus one,
    of its intersection with the line {(t, t + m + 1)}.
    """
    return (1 + m * w.k1 - w.k2) / (w.k1 + w.k2)


@dataclass(frozen=True)
class RHeightResult:
    """r-height with the data needed for reports and diagrams."""

    value: Fraction
    m: Fraction
    line_weight: Weight          # supporting line L with ratio m
    anchor: Point                # right endpoint of the augmented half-line
    distance_term: Fraction      # from L itself
    edge_terms: tuple[tuple[Fraction, Fraction], ...]  # (a_l, h_l) for a_l > m
    horizontal_term: Fraction    # B_n - 1
    crossing: Point              # where {(t, t+m+1)} meets the augmented boundary


def r_height(n: NewtonPolyhedron, m: Fraction) -> RHeightResult:
    """r-height of the polyhedron ``n`` of adapted (or fractionally sheared)
    coordinates.

    Computed twice: (i) as ``max(d, max over edges steeper than the ratio-m
    line of h_l, B_n - 1)`` and (ii) geometrically, by walking the boundary of
    the polyhedron augmented with the half-line of the ratio-m supporting line
    and intersecting it with ``{(t, t + m + 1)}``.  Disagreement raises
    :class:`InternalInvariantError`.
    """
    m = Fraction(m)
    line = n.supporting_weight_for_ratio(m)
    contact = n.contact_vertices(line)
    if not contact:
        raise InternalInvariantError("supporting line misses all vertices")
    anchor = min(contact, key=lambda p: p[1])  # smallest second coordinate

    # (i) formula route
    dist_term = line.homogeneous_distance()
    edge_terms = []
    best = dist_term
    for e in n.edges:
        if e.a > m:
            h_l = h_l_of_edge(e.weight, m)
            edge_terms.append((e.a, h_l))
            best = max(best, h_l)
    horiz = n.horizontal_level - 1
    best = max(best, horiz)

    # (ii) geometric route: boundary walk of the augmented polyhedron
    crossing = _augmented_crossing(n, line, anchor, m)
    geometric = crossing[1] - 1
    if geometric != best:
        raise InternalInvariantError(
            f"r-height mismatch: formula {best} vs geometric {geometric}")
    return RHeightResult(value=best, m=m, line_weight=line, anchor=anchor,
                         distance_term=dist_term, edge_terms=tuple(edge_terms),
                         horizontal_term=horiz, crossing=crossing)


def _augmented_crossing(n: NewtonPolyhedron, line: Weight, anchor: Point,
                        m: Fraction) -> Point:
    """Intersection of {(t, t+m+1)} with the augmented boundary.

    The boundary consists of the half-line of ``line`` going up-left from
    ``anchor``, then the surviving compact edges below the anchor, then the
    horizontal ray.  The shifted bisectrix has slope +1 and the boundary is
    monotone decreasing, so the crossing is unique (possibly at a shared
    vertex).
    """
    shift = m + 1
    hits: list[Point] = []

    def line_param_hit(base: Point, direction: Point, s_max: Fraction | None):
        # solve base + s*direction on t2 = t1 + shift; the denominator is
        # k1 + k2 > 0 on the half-line, negative on an edge and on the ray
        s = (base[0] + shift - base[1]) / (direction[1] - direction[0])
        if s < 0 or (s_max is not None and s > s_max):
            return
        hits.append((base[0] + s * direction[0], base[1] + s * direction[1]))

    # augmented half-line: direction up-left along `line`
    line_param_hit(anchor, (-line.k2, line.k1), None)
    # surviving edges: those entirely at/below the anchor
    idx = n.vertices.index(anchor)
    for e in n.edges[idx:]:
        d = (e.right[0] - e.left[0], e.right[1] - e.left[1])
        line_param_hit(e.left, d, Fraction(1))
    # horizontal ray
    line_param_hit(n.vertices[-1], (Fraction(1), Fraction(0)), None)

    if not hits:
        raise InternalInvariantError("shifted bisectrix missed the boundary")
    first = hits[0]
    for h in hits[1:]:
        if h != first:
            raise InternalInvariantError(
                f"ambiguous boundary crossing: {first} vs {h}")
    return first
