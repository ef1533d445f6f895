"""Adapted coordinates and the fine splitting of root clusters.

``adapted_coordinates`` iterates the classical shear construction: on a
non-adapted compact principal face the unique circle root of multiplicity
exceeding the Newton distance is rational or we halt, and shearing it off
strictly increases the distance until the coordinates are adapted.

``fine_splitting_trace`` continues past adaptedness inside the domain that
contains the root jet: at each level the principal part on the active edge is
factored, every real root of multiplicity >= 2 spawns a (generally
fractional) shear and a branch, and a branch terminates when the whole
support sits on or above the horizontal line through the new vertex, at which
point the recorded jet exactly divides the input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .adapted import AdaptednessVerdict, _shear_root, is_adapted
from .errors import AlgebraicRootHalt, InternalInvariantError
from .geometry import (EdgeData, NewtonPolyhedron, Weight,
                       kappa_principal_part)
from .poly import PuiseuxPoly
from .roots import RootRecord, UniPoly, squarefree_real_roots


@dataclass(frozen=True)
class RootJet:
    """A finite fractional jet ``sum c_j * x1^(e_j)`` with increasing exponents."""

    terms: tuple[tuple[Fraction, Fraction], ...]  # (coefficient, exponent)
    half_plane: str = "+"

    def __post_init__(self):
        exps = [e for (_c, e) in self.terms]
        if any(c == 0 for (c, _e) in self.terms):
            raise ValueError("zero coefficient in jet")
        if exps != sorted(set(exps)):
            raise ValueError("jet exponents must be strictly increasing")

    @staticmethod
    def zero() -> "RootJet":
        return RootJet(())

    @staticmethod
    def from_poly(p: PuiseuxPoly, half_plane: str = "+") -> "RootJet":
        if p.depends_on_x2():
            raise ValueError("a root jet depends on x1 only")
        terms = tuple(sorted(((c, e1) for (e1, _e2), c in p.terms.items()),
                             key=lambda t: t[1]))
        return RootJet(terms, half_plane)

    def to_poly(self) -> PuiseuxPoly:
        return PuiseuxPoly({(e, 0): c for (c, e) in self.terms})

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def leading_exponent(self) -> Fraction:
        if not self.terms:
            raise ValueError("zero jet has no leading exponent")
        return self.terms[0][1]

    @property
    def degree(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        return self.terms[-1][1]

    def truncations(self) -> list["RootJet"]:
        return [RootJet(self.terms[:k], self.half_plane)
                for k in range(len(self.terms) + 1)]

    def plus_term(self, c, e) -> "RootJet":
        return RootJet.from_poly(self.to_poly() + PuiseuxPoly.monomial(c, e, 0),
                                 self.half_plane)


@dataclass(frozen=True)
class AdaptedCoordinates:
    psi: RootJet
    phi_a: PuiseuxPoly
    h: Fraction
    verdict: AdaptednessVerdict            # adaptedness of phi_a
    shear_exponents: tuple[Fraction, ...]  # exponent added at each step


def adapted_coordinates(phi: PuiseuxPoly, max_steps: int = 64,
                        verdict: Optional[AdaptednessVerdict] = None
                        ) -> AdaptedCoordinates:
    """Shear to adapted coordinates; returns the principal root jet psi,
    the adapted expression phi_a = phi(x1, x2 + psi(x1)) and the height.

    Expects linearly adapted input (so every shear exponent is an integer and
    the jet is a polynomial); already-adapted input returns psi = 0
    immediately.  ``verdict`` is ``is_adapted(phi)`` when the caller already
    holds it; each shear kills the witness of the current verdict.
    Irrational root coefficients raise :class:`AlgebraicRootHalt`; polynomial
    inputs terminate well within the step budget, so exceeding it is an
    internal error.
    """
    if not phi.vanishes_to_second_order():
        raise ValueError("adapted coordinates need a critical point at the "
                         "origin (no constant or linear terms)")
    cur = phi
    if verdict is None:
        verdict = is_adapted(cur)
    jet = PuiseuxPoly.zero()
    exponents: list[Fraction] = []
    last_a: Fraction | None = None
    for _ in range(max_steps):
        if verdict.adapted:
            return AdaptedCoordinates(RootJet.from_poly(jet), cur, verdict.d,
                                      verdict, tuple(exponents))
        a = verdict.weight.a
        if a.denominator != 1:
            raise InternalInvariantError(
                f"non-adapted face with non-integer ratio {a}")
        if last_a is not None and a <= last_a:
            raise InternalInvariantError("shear exponents failed to increase")
        b = _shear_root(verdict, "adapted-coordinate shear")
        term = PuiseuxPoly.monomial(b, a, 0)
        jet = jet + term
        cur = cur.shear_substitute(term)
        verdict = is_adapted(cur)
        exponents.append(a)
        last_a = a
    raise InternalInvariantError("adapted-coordinate construction exceeded budget")


# ---------------------------------------------------------------------------
# edge selection at and below the bisectrix


@dataclass(frozen=True)
class LprSelection:
    case: str                  # "a" | "b" | "c1" | "c2"
    l_pr: int                  # 1-based edge index per the vertex ordering
    a: Fraction                # exponent entering the root-jet degree bound
    face_kind: str
    anchor_vertex: Optional[tuple[Fraction, Fraction]] = None


def select_l_pr(phi_a: PuiseuxPoly, m: Fraction) -> LprSelection:
    """Classify the principal face of adapted coordinates and pick the edge
    that carries the root jet's continuation."""
    n = NewtonPolyhedron.of(phi_a)
    face = n.principal_face()
    if face.kind == "compact_edge":
        l_pr = n.edges.index(face.edge) + 1
        return LprSelection("a", l_pr, face.edge.a, face.kind)
    if face.kind == "vertex":
        j = n.vertices.index(face.vertex)
        if j == 0:
            raise ValueError(
                "bisectrix vertex with no edge above it; no root-jet edge")
        return LprSelection("b", j + 1, n.edges[j - 1].a, face.kind,
                            anchor_vertex=face.vertex)
    if face.orientation != "horizontal":
        raise ValueError("vertical unbounded principal face has no root jet")
    v = n.vertices[-1]
    j = len(n.vertices) - 1
    if j >= 1:
        return LprSelection("c1", j + 1, n.edges[j - 1].a, face.kind,
                            anchor_vertex=v)
    return LprSelection("c2", 1, Fraction(m), face.kind, anchor_vertex=v)


# ---------------------------------------------------------------------------
# fine splitting


@dataclass(frozen=True)
class SplitStep:
    level: int
    weight: Optional[Weight]
    a: Optional[Fraction]
    root: Optional[Fraction]           # rational root coefficient (None: no root)
    multiplicity: Optional[int]
    case: str                          # Case1_no_root | Case3_shear |
    #                                    CaseA_stop | CaseB_continue
    post_vertex: Optional[tuple[Fraction, int]] = None  # (A'_l, B'_l = M_l)


@dataclass(frozen=True)
class Factorization:
    jet: RootJet                       # shear terms accumulated past psi
    power: int                         # B: multiplicity of the divided factor
    cofactor: PuiseuxPoly              # phi / y2^B in the final sheared frame


@dataclass(frozen=True)
class SplittingTrace:
    steps: tuple[SplitStep, ...]
    terminal: str                      # adapted_reached | stop_12_9 |
    #                                    algebraic_root_halt | budget_exceeded
    factorization: Optional[Factorization] = None
    halt: Optional[dict] = None


@dataclass(frozen=True)
class SplittingForest:
    branches: tuple[SplittingTrace, ...]

    def terminals(self) -> list[str]:
        return [b.terminal for b in self.branches]


def fine_splitting_trace(phi_a: PuiseuxPoly, m: Fraction, sel: LprSelection,
                         max_levels: int = 64) -> SplittingForest:
    """Explore all multiplicity->=2 real-root branches below the bisectrix.

    Works in the adapted frame: the returned jets extend the principal root
    jet.  Only the positive half-plane is traced (fractional exponents are
    confined to it).
    """
    if sel.case not in ("a", "b"):
        raise ValueError("fine splitting applies to the compact-edge and "
                         "bisectrix-vertex cases only")
    n = NewtonPolyhedron.of(phi_a)
    if sel.case == "a":
        edge = n.edges[sel.l_pr - 1]
    else:
        j = sel.l_pr - 1  # vertex index carrying the bisectrix
        edge = n.edges[j] if j < len(n.edges) else None
    branches: list[SplittingTrace] = []
    _explore(phi_a, edge, 1, m, (), PuiseuxPoly.zero(), branches,
             max_levels, prev_mult=None)
    return SplittingForest(tuple(branches))


def _explore(phi_cur: PuiseuxPoly, edge: Optional[EdgeData], level: int,
             m: Fraction, steps: tuple[SplitStep, ...], jet: PuiseuxPoly,
             out: list[SplittingTrace], max_levels: int,
             prev_mult: Optional[int]) -> None:
    if level > max_levels:
        out.append(SplittingTrace(steps, "budget_exceeded"))
        return
    if edge is None:
        # support already confined above the last vertex's horizontal line
        b = phi_cur.min_e2()
        fact = Factorization(RootJet.from_poly(jet), b, phi_cur.shift_e2(-b))
        out.append(SplittingTrace(steps, "stop_12_9", fact))
        return

    w = edge.weight
    a = edge.a
    pr = kappa_principal_part(phi_cur, w)
    u = UniPoly(pr.restrict_x1(1))
    roots = squarefree_real_roots(u)
    shear_roots: list[RootRecord] = []
    level_steps: list[SplitStep] = []
    for rec in roots:
        if prev_mult is not None and rec.multiplicity > prev_mult:
            raise InternalInvariantError("multiplicities must be nonincreasing")
        if rec.multiplicity >= 2:
            shear_roots.append(rec)
        else:
            case = _classify_simple(pr, rec)
            level_steps.append(SplitStep(level, w, a, rec.value
                                         if rec.is_rational else None,
                                         rec.multiplicity, case))
    if not shear_roots:
        if not roots:
            level_steps.append(SplitStep(level, w, a, None, None,
                                         "Case1_no_root"))
        out.append(SplittingTrace(steps + tuple(level_steps), "adapted_reached"))
        return

    for rec in shear_roots:
        prefix = steps + tuple(level_steps)
        if not rec.is_rational:
            halt = AlgebraicRootHalt(rec.interval, rec.factor,
                                     rec.multiplicity, context="fine splitting")
            out.append(SplittingTrace(prefix + (SplitStep(
                level, w, a, None, rec.multiplicity, "Case3_shear"),),
                "algebraic_root_halt", halt=halt.to_json_dict()))
            continue
        c0 = rec.value
        mult = rec.multiplicity
        term = PuiseuxPoly.monomial(c0, a, 0) if c0 else PuiseuxPoly.zero()
        phi_next = phi_cur.shear_substitute(term) if c0 else phi_cur
        # vertex update: the right endpoint of the active edge slides up the
        # edge line to height M
        right = edge.right
        new_vertex = (right[0] + a * (right[1] - mult), Fraction(mult))
        n_next = NewtonPolyhedron.of(phi_next)
        if new_vertex not in n_next.vertices:
            raise InternalInvariantError(
                f"post-shear vertex {new_vertex} missing from the polyhedron")
        shear_step = SplitStep(level, w, a, c0, mult, "Case3_shear",
                               post_vertex=(new_vertex[0], mult))
        stopped = n_next.horizontal_level >= mult
        if stopped:
            jet_next = jet + term
            b = phi_next.min_e2()
            if b != mult:
                raise InternalInvariantError(
                    "stop condition height disagrees with the multiplicity")
            fact = Factorization(RootJet.from_poly(jet_next), mult,
                                 phi_next.shift_e2(-mult))
            out.append(SplittingTrace(prefix + (shear_step, SplitStep(
                level, w, a, c0, mult, "CaseA_stop")), "stop_12_9", fact))
            continue
        idx = n_next.vertices.index(new_vertex)
        next_edge = n_next.edges[idx]
        if next_edge.a <= a:
            raise InternalInvariantError("edge exponents must increase")
        _explore(phi_next, next_edge, level + 1, m,
                 prefix + (shear_step, SplitStep(level, w, a, c0, mult,
                                                 "CaseB_continue")),
                 jet + term, out, max_levels, prev_mult=mult)


def _classify_simple(pr: PuiseuxPoly, rec: RootRecord) -> str:
    """Gradient classification at v = (1, c0) for a simple root.

    A simple root of the restriction has nonzero t-derivative there, which is
    exactly the x2-partial, so Case 1 holds; the exact evaluation below checks
    that for rational roots.
    """
    if rec.is_rational:
        d2 = pr.partial_derivative(2, 1)
        if not d2 or not UniPoly(d2.restrict_x1(1)).evaluate(rec.value):
            raise InternalInvariantError("simple root with vanishing x2-partial")
    return "Case1_no_root"


def condition_r_check(phi: PuiseuxPoly, f: RootJet | PuiseuxPoly,
                      b: int) -> PuiseuxPoly:
    """Factor off ``(x2 - f(x1))^b`` in the sheared frame.

    ``b`` must be the maximal integer with the support of the sheared
    polynomial on or above level b; exact division is then a term shift.
    Polynomial inputs always factor (real-analytic case), so the result is
    the cofactor; a non-maximal ``b`` raises ValueError.
    """
    fp = f.to_poly() if isinstance(f, RootJet) else f
    sheared = phi.shear_substitute(fp)
    b_max = sheared.min_e2()
    if b != b_max:
        raise ValueError(f"b = {b} is not maximal (support floor is {b_max})")
    return sheared.shift_e2(-b)
