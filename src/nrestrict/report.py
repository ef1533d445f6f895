"""Analysis pipeline and JSON report document.

:func:`analyze` runs the exponent stage (linear height, adapted
coordinates, r-height and p_c'); the later stages of the returned
:class:`ReportDocument` run once each, on first read.  ``analyze`` prints
them all, ``knapp`` reads the certificates, ``trace`` the ``l_pr``
selection and the splitting forest, and ``diagram`` no later stage.

Every exact value is serialized as a string "p/q" (integers as "n"); floats
appear only inside decay-fit records.  Key order is fixed, so the output is
byte-deterministic for a given input and tool version.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from . import __version__
from .adapted import classify_linear
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


def _jet_json(jet: PuiseuxPoly) -> list[dict]:
    """An x1-only jet's terms in increasing exponent order."""
    return [{"coefficient": _frac(c), "exponent": _frac(e1)}
            for (e1, _e2), c in jet.items()]


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
    """Everything the analyze command knows about one input.  ``exponent``
    is computed by :func:`analyze`; every other stage on first read."""

    expr: InputExpr
    exponent: ExponentReport

    @property
    def input_polyhedron(self) -> NewtonPolyhedron:
        return self.exponent.linear.input_verdict.polyhedron

    @property
    def adapted_polyhedron(self) -> Optional[NewtonPolyhedron]:
        coords = self.exponent.coords
        return None if coords is None else coords.verdict.polyhedron

    @cached_property
    def selection(self) -> Optional[LprSelection]:
        if self.exponent.coords is None:
            return None
        return select_l_pr(self.adapted_polyhedron, self.exponent.m)

    @cached_property
    def forest(self) -> Optional[SplittingForest]:
        sel = self.selection
        if sel is None or sel.case not in ("a", "b"):
            return None
        coords = self.exponent.coords
        return fine_splitting_trace(coords.phi_a, coords.verdict, sel)

    @cached_property
    def certificates(self) -> Optional[list]:
        coords = self.exponent.coords
        if coords is None:
            return None
        # phi_a is the transformed input sheared by psi, so its polyhedron
        # is the one the certificates are read off
        return certificates_of_polyhedron(coords.psi, coords.verdict.polyhedron)

    @cached_property
    def singularity(self) -> Optional[object]:
        rep = self.exponent
        if rep.h_lin >= 2 or rep.linear.adapted_linear_exists:
            return None
        return classify_linear(rep.linear, rep.h)

    def to_json_dict(self) -> dict:
        rep = self.exponent
        verdict = rep.linear.verdict
        return {
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
                "exact": True,  # n is read off h
                "psi": render(self.singularity.psi_truncation),
            },
            "notes": [],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=False)


def analyze(expr: InputExpr) -> ReportDocument:
    """The report of a parsed expression, with its exponent stage run."""
    return ReportDocument(expr, critical_exponent(expr.poly))
