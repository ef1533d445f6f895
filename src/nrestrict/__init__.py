"""Exact Newton-polyhedron invariants and restriction critical exponents.

``__all__`` is the package's API: what the CLI, the report and the
paper-claim tests use.  Each name in it is read somewhere in the package
outside its own definition, or imported by the paper-claim tests; exporting
a name does not keep alive code that only other tests call.
``nrestrict.numerics`` (the decay fits and sum bounds) is imported on its
own, so the exact core never loads numpy.
"""

__version__ = "0.1.0"

from .poly import PuiseuxPoly
from .roots import RootRecord, squarefree_real_roots
from .geometry import NewtonPolyhedron, Weight, h_l_of_edge, r_height
from .adapted import classify_linear, is_adapted, linear_height
from .splitting import (LprSelection, SplittingForest, adapted_coordinates,
                        fine_splitting_trace, select_l_pr)
from .exponents import (ExponentReport, certificates_of_polyhedron,
                        critical_exponent, h_f, h_r_tilde_sample)
from .parser import InputExpr, parse_expression, render
from .report import analyze
from .diagram import render_diagram, render_loglog_plot
from .errors import (InternalInvariantError, NRestrictError, ParseError,
                     QuadratureError)

__all__ = [
    "PuiseuxPoly",
    "RootRecord", "squarefree_real_roots",
    "NewtonPolyhedron", "Weight", "h_l_of_edge", "r_height",
    "classify_linear", "is_adapted", "linear_height",
    "LprSelection", "SplittingForest", "adapted_coordinates",
    "fine_splitting_trace", "select_l_pr",
    "ExponentReport", "certificates_of_polyhedron", "critical_exponent", "h_f",
    "h_r_tilde_sample",
    "InputExpr", "parse_expression", "render",
    "analyze",
    "render_diagram", "render_loglog_plot",
    "InternalInvariantError", "NRestrictError", "ParseError",
    "QuadratureError",
]
