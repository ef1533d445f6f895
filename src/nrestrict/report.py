"""Analysis pipeline and JSON report document.

Every exact value is serialized as a string "p/q" (integers as "n"); floats
appear only inside decay-fit records.  Key order is fixed, so the output is
byte-deterministic for a given input and tool version.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import __version__
from .adapted import classify_linear
from .errors import AlgebraicRootHalt
from .exponents import (ExponentReport, certificates_of_polyhedron,
                        critical_exponent)
from .geometry import NewtonPolyhedron
from .parser import InputExpr, render
from .poly import PuiseuxPoly
from .splitting import (LprSelection, SplittingForest, fine_splitting_trace,
                        select_l_pr)

SCHEMA_VERSION = 1


def _frac(x: Optional[Fraction]) -> Optional[str]:
    return None if x is None else str(Fraction(x))


def _point(p) -> list[str]:
    return [str(p[0]), str(p[1])]


def _poly_json(n: NewtonPolyhedron) -> dict:
    return {
        "vertices": [_point(v) for v in n.vertices],
        "edges": [{
            "from": _point(e.left),
            "to": _point(e.right),
            "kappa": [_frac(e.weight.k1), _frac(e.weight.k2)],
            "a": _frac(e.a),
        } for e in n.edges],
        "vertical_ray": n.vertical_ray_present,
        "horizontal_level": _frac(n.horizontal_level),
    }


def _jet_json(jet) -> list[dict]:
    return [{"coefficient": _frac(c), "exponent": _frac(e)}
            for (c, e) in jet.terms]


def _split_forest_json(forest: SplittingForest) -> dict:
    return {"branches": [{
        "steps": [{
            "level": s.level,
            "kappa": None if s.weight is None
            else [_frac(s.weight.k1), _frac(s.weight.k2)],
            "a": _frac(s.a),
            "root": _frac(s.root),
            "multiplicity": s.multiplicity,
            "case": s.case,
            "post_vertex": None if s.post_vertex is None
            else [_frac(s.post_vertex[0]), str(s.post_vertex[1])],
        } for s in b.steps],
        "terminal": b.terminal,
        "factorization": None if b.factorization is None else {
            "jet": _jet_json(b.factorization.jet),
            "power": b.factorization.power,
            "cofactor": render(b.factorization.cofactor),
        },
        **({"halt": b.halt} if b.halt else {}),
    } for b in forest.branches]}


def _certs_json(certs) -> list[dict]:
    return [{
        "target": c.target,
        "edge_index": c.edge_index,
        "f": _jet_json(c.f),
        "m0": _frac(c.m0),
        "derived_exponent": _frac(c.derived_exponent),
        "box_exponents": [_frac(c.box_exponents[0]), _frac(c.box_exponents[1])],
        "rect_exponents": [_frac(c.rect_exponents[0]),
                           _frac(c.rect_exponents[1])],
        **({"delta": _frac(c.delta)} if c.delta is not None else {}),
    } for c in certs]


@dataclass
class ReportDocument:
    """Everything the analyze command knows about one input."""

    expr: InputExpr
    exponent: ExponentReport
    input_polyhedron: NewtonPolyhedron
    adapted_polyhedron: Optional[NewtonPolyhedron]
    selection: Optional[LprSelection]
    forest: Optional[SplittingForest]
    certificates: Optional[list]
    singularity: Optional[object]
    notes: list[str]

    def to_json_dict(self) -> dict:
        rep = self.exponent
        verdict = rep.linear.verdict
        doc = {
            "schema_version": SCHEMA_VERSION,
            "tool_version": __version__,
            "input": self.expr.source,
            "canonical": render(self.expr.poly),
            "d": _frac(self.input_polyhedron.distance()),
            "h": _frac(rep.h),
            "h_lin": _frac(rep.h_lin),
            "h_r": _frac(rep.h_r),
            "m": _frac(rep.m),
            "p_c_prime": _frac(rep.p_c_prime),
            "theta": _frac(rep.theta),
            "source": rep.source,
            "adapted": bool(rep.linear.input_verdict.adapted),
            "adaptedness": {
                "adapted": verdict.adapted,
                "criterion": verdict.criterion,
                "m_pr": verdict.m_pr,
                "d": _frac(verdict.d),
            },
            "linear_transform": [[_frac(c) for c in row]
                                 for row in rep.linear.transform],
            "psi": None if rep.coords is None else _jet_json(rep.coords.psi),
            "polyhedron": _poly_json(self.input_polyhedron),
            "adapted_polyhedron": None if self.adapted_polyhedron is None
            else _poly_json(self.adapted_polyhedron),
            "l_pr_case": None if self.selection is None else {
                "case": self.selection.case,
                "l_pr": self.selection.l_pr,
                "a": _frac(self.selection.a),
            },
            "splitting": None if self.forest is None
            else _split_forest_json(self.forest),
            "knapp_certificates": None if self.certificates is None
            else _certs_json(self.certificates),
            "singularity": None if self.singularity is None else {
                "label": self.singularity.label,
                "family": self.singularity.family,
                "index": self.singularity.index,
                "m": self.singularity.m,
                "n": self.singularity.n,
                "exact": self.singularity.exact,
                "psi": render_unipoly(self.singularity.psi_truncation),
            },
            "notes": self.notes,
        }
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=False)


def render_unipoly(u) -> str:
    if u.is_zero():
        return "0"
    poly = PuiseuxPoly({(Fraction(i), 0): c for i, c in enumerate(u.coeffs) if c})
    return render(poly)


def analyze(expr: InputExpr, max_steps: int = 64,
            series_order: int | None = None) -> ReportDocument:
    """Run the full exact pipeline on a parsed expression."""
    phi = expr.poly
    notes: list[str] = []
    rep = critical_exponent(phi, max_steps=max_steps)
    n_input = rep.linear.input_verdict.polyhedron
    adapted_poly = None
    selection = None
    forest = None
    certs = None
    if rep.coords is not None:
        adapted_poly = rep.coords.verdict.polyhedron
        selection = select_l_pr(adapted_poly, rep.m)
        if selection.case in ("a", "b"):
            try:
                forest = fine_splitting_trace(rep.coords.phi_a, adapted_poly,
                                              rep.m, selection,
                                              max_levels=max_steps)
            except AlgebraicRootHalt as halt:
                notes.append(f"fine splitting halted: {halt}")
        # phi_a is the transformed input sheared by psi, so its polyhedron
        # is the one the certificates are read off
        certs = certificates_of_polyhedron(rep.coords.psi, adapted_poly)
    singularity = None
    if rep.h_lin < 2 and not rep.linear.adapted_linear_exists:
        try:
            singularity = classify_linear(rep.linear, series_order=series_order)
        except AlgebraicRootHalt as halt:
            notes.append(f"classification halted: {halt}")
    return ReportDocument(expr, rep, n_input, adapted_poly, selection, forest,
                          certs, singularity, notes)
