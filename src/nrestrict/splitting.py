"""Adapted coordinates and the fine splitting of root clusters.

``adapted_coordinates`` iterates the classical shear construction: on a
non-adapted compact principal face the unique circle root of multiplicity
exceeding the Newton distance is rational, and shearing it off strictly
increases the distance until the coordinates are adapted.

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
from .errors import InternalInvariantError
from .geometry import (EdgeData, NewtonPolyhedron, Weight,
                       kappa_principal_part)
from .poly import PuiseuxPoly
from .roots import RootRecord, squarefree_real_roots


@dataclass(frozen=True)
class AdaptedCoordinates:
    psi: PuiseuxPoly                       # x1-only principal root jet
    phi_a: PuiseuxPoly
    h: Fraction
    verdict: AdaptednessVerdict            # adaptedness of phi_a


#: shears ``adapted_coordinates`` takes before it gives up
_SHEAR_BUDGET = 64


def adapted_coordinates(phi: PuiseuxPoly,
                        verdict: Optional[AdaptednessVerdict] = None
                        ) -> AdaptedCoordinates:
    """Shear to adapted coordinates; returns the principal root jet psi (an
    x1-only ``PuiseuxPoly``), the adapted expression
    phi_a = phi(x1, x2 + psi(x1)) and the height.

    Expects linearly adapted input, so that every shear exponent is an
    integer, and raises ``ValueError`` on a face whose ratio is not;
    already-adapted input returns psi = 0 immediately.  ``verdict`` is
    ``is_adapted(phi)`` when the caller already holds it; each shear kills
    the witness of the current verdict, whose coefficient is rational.

    The step budget is fixed: psi gets at most 63 terms, and a 64th shear
    raises :class:`InternalInvariantError` (exit 3 on the command line).
    Termination within it is not guaranteed.  When the principal root is a
    smooth curve of multiplicity >= 2 that is no polynomial graph, such as
    the root of ``(x2 - (x1 + x2)^2)^2``, psi is an infinite series and each
    shear peels off one more term until the budget runs out.
    """
    if not phi.vanishes_to_second_order():
        raise ValueError("adapted coordinates need a critical point at the "
                         "origin (no constant or linear terms)")
    cur = phi
    if verdict is None:
        verdict = is_adapted(cur)
    jet = PuiseuxPoly.zero()
    last_a: Fraction | None = None
    for _ in range(_SHEAR_BUDGET):
        if verdict.adapted:
            return AdaptedCoordinates(jet, cur, verdict.d, verdict)
        a = verdict.weight.a
        if a.denominator != 1:
            raise ValueError("adapted coordinates need linearly adapted "
                             f"input; the principal face has ratio {a}")
        if last_a is not None and a <= last_a:
            raise InternalInvariantError("shear exponents failed to increase")
        b = _shear_root(verdict)
        term = PuiseuxPoly.monomial(b, a, 0)
        jet = jet + term
        cur = cur.shear_substitute(term)
        verdict = is_adapted(cur)
        last_a = a
    raise InternalInvariantError("adapted-coordinate construction exceeded budget")


# ---------------------------------------------------------------------------
# edge selection at and below the bisectrix


@dataclass(frozen=True)
class LprSelection:
    case: str                  # "a" | "b" | "c1" | "c2"
    l_pr: int                  # 1-based edge index per the vertex ordering
    a: Fraction                # exponent entering the root-jet degree bound


def select_l_pr(n: NewtonPolyhedron, m: Fraction) -> LprSelection:
    """Classify the principal face of the polyhedron ``n`` of adapted
    coordinates and pick the edge that carries the root jet's continuation."""
    face = n.principal_face()
    if face.kind == "compact_edge":
        l_pr = n.edges.index(face.edge) + 1
        return LprSelection("a", l_pr, face.edge.a)
    if face.kind == "vertex":
        j = n.vertices.index(face.vertex)
        if j == 0:
            raise ValueError(
                "bisectrix vertex with no edge above it; no root-jet edge")
        return LprSelection("b", j + 1, n.edges[j - 1].a)
    if face.orientation != "horizontal":
        raise ValueError("vertical unbounded principal face has no root jet")
    j = len(n.vertices) - 1
    if j >= 1:
        return LprSelection("c1", j + 1, n.edges[j - 1].a)
    return LprSelection("c2", 1, Fraction(m))


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
    jet: PuiseuxPoly                   # x1-only: shear terms past psi
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


#: levels one branch of ``fine_splitting_trace`` descends before it stops
_LEVEL_BUDGET = 64


def fine_splitting_trace(phi_a: PuiseuxPoly, verdict: AdaptednessVerdict,
                         sel: LprSelection) -> SplittingForest:
    """Explore all multiplicity->=2 real-root branches below the bisectrix.

    ``verdict`` is ``is_adapted(phi_a)``: its polyhedron is the one the
    selection was read off, and in case ``a`` its roots are those of the
    first active edge's restriction.  Works in the adapted frame: the
    returned jets extend the principal root jet.  Only the positive
    half-plane is traced (fractional exponents are confined to it).

    A branch that has not ended after 64 levels ends with the terminal
    ``budget_exceeded``; that happens where the branch follows a root that is
    an infinite series, as ``adapted_coordinates`` describes.
    """
    if sel.case not in ("a", "b"):
        raise ValueError("fine splitting applies to the compact-edge and "
                         "bisectrix-vertex cases only")
    n = verdict.polyhedron
    roots = None
    if sel.case == "a":
        # the active edge is the principal edge the verdict judged
        edge, roots = n.edges[sel.l_pr - 1], verdict.roots
    else:
        j = sel.l_pr - 1  # vertex index carrying the bisectrix
        edge = n.edges[j] if j < len(n.edges) else None
    branches: list[SplittingTrace] = []
    _explore(phi_a, edge, 1, (), PuiseuxPoly.zero(), branches,
             prev_mult=None, roots=roots)
    return SplittingForest(tuple(branches))


def _explore(phi_cur: PuiseuxPoly, edge: Optional[EdgeData], level: int,
             steps: tuple[SplitStep, ...], jet: PuiseuxPoly,
             out: list[SplittingTrace], prev_mult: Optional[int],
             roots: Optional[tuple[RootRecord, ...]] = None) -> None:
    # roots: those of the active edge's p(1, t) when already isolated
    if level > _LEVEL_BUDGET:
        out.append(SplittingTrace(steps, "budget_exceeded"))
        return
    if edge is None:
        # support already confined above the last vertex's horizontal line
        b = phi_cur.min_e2()
        fact = Factorization(jet, b, phi_cur.shift_e2(-b))
        out.append(SplittingTrace(steps, "stop_12_9", fact))
        return

    w = edge.weight
    a = edge.a
    pr = kappa_principal_part(phi_cur, w)
    if roots is None:
        roots = squarefree_real_roots(pr.restrict_x1(1))
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
            out.append(SplittingTrace(prefix + (SplitStep(
                level, w, a, None, rec.multiplicity, "Case3_shear"),),
                "algebraic_root_halt", halt=_halt_record(rec)))
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
        # the support's least x2-exponent is at least mult, and the new
        # vertex sits at mult: x2^mult divides phi_next exactly
        if n_next.horizontal_level >= mult:
            fact = Factorization(jet + term, mult, phi_next.shift_e2(-mult))
            out.append(SplittingTrace(prefix + (shear_step, SplitStep(
                level, w, a, c0, mult, "CaseA_stop")), "stop_12_9", fact))
            continue
        idx = n_next.vertices.index(new_vertex)
        next_edge = n_next.edges[idx]
        if next_edge.a <= a:
            raise InternalInvariantError("edge exponents must increase")
        _explore(phi_next, next_edge, level + 1,
                 prefix + (shear_step, SplitStep(level, w, a, c0, mult,
                                                 "CaseB_continue")),
                 jet + term, out, prev_mult=mult)


def _halt_record(rec: RootRecord) -> dict:
    """The ``halt`` record of a branch that needs an irrational shear: the
    root's isolating interval and its square-free factor of p(1, t)."""
    lo, hi = rec.interval
    return {"error": "algebraic-root", "interval": [str(lo), str(hi)],
            "multiplicity": rec.multiplicity,
            "witness_poly": [str(c) for c in rec.factor],
            "context": "fine splitting"}


def _classify_simple(pr: PuiseuxPoly, rec: RootRecord) -> str:
    """Gradient classification at v = (1, c0) for a simple root.

    A simple root of the restriction has nonzero t-derivative there, which is
    exactly the x2-partial, so Case 1 holds; the exact evaluation below checks
    that for rational roots.
    """
    if rec.is_rational:
        d2 = pr.partial_derivative(2, 1)
        if not sum(c * rec.value ** i
                   for i, c in enumerate(d2.restrict_x1(1))):
            raise InternalInvariantError("simple root with vanishing x2-partial")
    return "Case1_no_root"

