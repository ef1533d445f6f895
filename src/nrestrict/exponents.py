"""Critical restriction exponents, shear heights and Knapp certificates.

The pipeline is: maximize the Newton distance over linear changes; if the
result is adapted the critical dual exponent is ``2h + 2``, otherwise shear to
adapted coordinates and read ``2 h_r + 2`` off the augmented polyhedron.  The
shear height ``h^f`` of an arbitrary jet f reuses the same augmented-polyhedron
code with the jet's leading exponent in place of the principal ratio, so the
equality at f = psi is structural.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .adapted import LinearHeightReport, is_adapted, linear_height
from .errors import InternalInvariantError
from .geometry import (NewtonPolyhedron, RHeightResult, h_l_of_edge,
                       r_height)
from .poly import PuiseuxPoly
from .splitting import AdaptedCoordinates, RootJet, adapted_coordinates


@dataclass(frozen=True)
class ExponentReport:
    p_c_prime: Fraction
    source: str                     # adapted_2h_plus_2 | r_height_2hr_plus_2
    h: Fraction
    h_lin: Fraction
    h_r: Fraction
    m: Optional[Fraction]
    linear: LinearHeightReport
    coords: Optional[AdaptedCoordinates]      # None when adapted linearly
    r_height_detail: Optional[RHeightResult]

    @property
    def theta(self) -> Fraction:
        return 2 / self.p_c_prime


def critical_exponent(phi: PuiseuxPoly) -> ExponentReport:
    """Exact critical dual exponent p_c' for the restriction problem.

    The graph must have a critical point at the origin, the setting in which
    heights and the r-height are meaningful.
    """
    if not phi.vanishes_to_second_order():
        raise ValueError("the origin must be a critical point of the input "
                         "(no constant or linear terms)")
    lh = linear_height(phi)
    if lh.adapted_linear_exists:
        h = lh.h_lin
        p = 2 * h + 2
        return ExponentReport(p, "adapted_2h_plus_2", h, lh.h_lin, h, lh.m,
                              lh, None, None)
    m = lh.m
    ac = adapted_coordinates(lh.transformed, verdict=lh.verdict)
    rh = r_height(ac.verdict.polyhedron, m)
    p = 2 * rh.value + 2
    return ExponentReport(p, "r_height_2hr_plus_2", ac.h, lh.h_lin, rh.value,
                          m, lh, ac, rh)


def _as_jet(f: RootJet | PuiseuxPoly) -> RootJet:
    return f if isinstance(f, RootJet) else RootJet.from_poly(f)


def h_f(phi: PuiseuxPoly, f: RootJet | PuiseuxPoly) -> Fraction:
    """Shear height of a non-flat jet: the r-height of phi after the
    fractional shear by f, measured against f's leading exponent."""
    jet = _as_jet(f)
    if jet.is_zero():
        raise ValueError("shear height needs a nonzero jet")
    sheared = phi.shear_substitute(jet.to_poly())
    return r_height(NewtonPolyhedron.of(sheared), jet.leading_exponent).value


@dataclass(frozen=True)
class JetSample:
    jet: RootJet
    value: Fraction


@dataclass(frozen=True)
class JetSupSample:
    sup_found: Fraction
    witnesses: tuple[RootJet, ...]
    samples: tuple[JetSample, ...]
    bound: Fraction                # h_r (non-adapted input) or d (adapted)
    bound_kind: str


def default_jet_family(phi: PuiseuxPoly,
                       psi: Optional[RootJet]) -> list[RootJet]:
    """Candidate jets: truncations of psi, psi plus one higher-order term
    with exponent denominator up to 6, and pure monomials of degree up to
    12."""
    family: list[RootJet] = []
    deg_cap = int(phi.total_degree()) + 2
    for n in range(1, 13):
        for c in (Fraction(1), Fraction(-1), Fraction(1, 2)):
            family.append(RootJet(((c, Fraction(n)),)))
    if psi is not None and not psi.is_zero():
        family.extend(t for t in psi.truncations() if not t.is_zero())
        top = psi.degree
        extra_exps = []
        for q in range(1, 7):
            e = top + Fraction(1, q)
            if e <= deg_cap:
                extra_exps.append(e)
            extra_exps.append(top + q)
        for e in sorted(set(extra_exps)):
            if e <= deg_cap:
                for c in (Fraction(1), Fraction(-1), Fraction(2, 3)):
                    family.append(psi.plus_term(c, e))
    # dedupe, preserving order
    seen = set()
    out = []
    for jet in family:
        if jet.terms not in seen:
            seen.add(jet.terms)
            out.append(jet)
    return out


def h_r_tilde_sample(phi: PuiseuxPoly) -> JetSupSample:
    """Sample the sup of h^f over the jets of ``default_jet_family``.

    On non-adapted (linearly adapted) input every sample must stay at or
    below the r-height, with equality at the principal root jet; on adapted
    input the samples stay at or below the distance.  This is a consistency
    sampler, not a certified supremum.
    """
    # non-critical input gets critical_exponent's error; ramified input has
    # no linear height, and is sampled only when adapted, against d
    if phi.ramification == 1 or not phi.vanishes_to_second_order():
        rep = critical_exponent(phi)
        verdict = rep.linear.input_verdict
    else:
        rep, verdict = None, is_adapted(phi)
    psi = None
    if verdict.adapted:
        bound, kind = verdict.d, "distance"
    elif rep is None:
        raise ValueError("linear height needs an integer-exponent polynomial")
    elif rep.linear.transformed != phi:
        raise ValueError("sampling expects linearly adapted input")
    else:
        psi, bound, kind = rep.coords.psi, rep.h_r, "r_height"
    samples = []
    best: Fraction | None = None
    witnesses: list[RootJet] = []
    for jet in default_jet_family(phi, psi):
        value = h_f(phi, jet)
        if value > bound:
            raise InternalInvariantError(
                f"sampled shear height {value} exceeded the {kind} bound {bound}")
        samples.append(JetSample(jet, value))
        if best is None or value > best:
            best = value
            witnesses = [jet]
        elif value == best:
            witnesses.append(jet)
    if psi is not None:
        exact = h_f(phi, psi)
        if exact != bound:
            raise InternalInvariantError(
                "principal root jet did not attain the r-height")
    return JetSupSample(best, tuple(witnesses), tuple(samples), bound, kind)


@dataclass(frozen=True)
class KnappCertificate:
    """Symbolic description of an anisotropic box lower bound.

    ``box_exponents`` are the epsilon powers bounding |x1| and |x2 - f(x1)|;
    the enclosing rectangle bounds |x1| and |x2| themselves.  A horizontal
    target uses a free small exponent delta in place of the first box power
    and yields the limiting exponent 2*B.
    """

    f: RootJet
    m0: Fraction
    target: str                      # "edge" | "principal" | "horizontal"
    edge_index: Optional[int]
    derived_exponent: Fraction
    box_exponents: tuple[Optional[Fraction], Fraction]
    rect_exponents: tuple[Optional[Fraction], Fraction]
    delta: Optional[Fraction] = None


def certificates_of_polyhedron(jet: RootJet,
                               n: NewtonPolyhedron) -> list[KnappCertificate]:
    """All qualifying targets of the polyhedron ``n`` of the input sheared by
    ``jet``, with ``m0`` the jet's leading exponent: the supporting line of
    ratio ``m0``, each edge steeper than ``m0``, and the horizontal face when
    it sits at level 1 or above."""
    m0 = jet.leading_exponent
    w = n.supporting_weight_for_ratio(m0)
    certs = [KnappCertificate(jet, m0, "principal", None,
                              2 * w.homogeneous_distance() + 2,
                              (w.k1, w.k2), (w.k1, m0 * w.k1))]
    for l, edge in enumerate(n.edges, start=1):
        if edge.a > m0:
            w = edge.weight
            certs.append(KnappCertificate(jet, m0, "edge", l,
                                          2 * h_l_of_edge(w, m0) + 2,
                                          (w.k1, w.k2), (w.k1, m0 * w.k1)))
    b = n.horizontal_level
    if b >= 1:
        delta = Fraction(1, 25 * max(int(n.vertices[-1][0]) + 1, 1))
        certs.append(KnappCertificate(jet, m0, "horizontal", None, 2 * b,
                                      (None, Fraction(1, int(b))),
                                      (None, None), delta=delta))
    return certs
