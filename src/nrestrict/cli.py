"""Command-line interface.

Subcommands: analyze, diagram, knapp, decay, trace.  JSON goes to stdout or
``--json PATH``; diagrams and plots to ``--svg PATH``.  Exit codes: 0 success,
1 usage or parse error, 2 algebraic-root halt, 3 internal invariant
violation, 4 quadrature failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .diagram import render_diagram, render_loglog_plot
from .errors import (AlgebraicRootHalt, InternalInvariantError, ParseError,
                     QuadratureError)
from .parser import parse_expression
from .report import analyze


def _expression(arg: str) -> str:
    """The analysis commands accept an expression or a file holding one."""
    if os.path.isfile(arg):
        with open(arg, encoding="utf-8") as fh:
            return fh.read().strip()
    return arg


def _write(text: str, path: str | None) -> None:
    if path in (None, "-"):
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _cmd_analyze(args) -> int:
    doc = analyze(parse_expression(_expression(args.expr)), max_steps=args.max_steps,
                  series_order=args.series_order)
    _write(doc.to_json(), args.json)
    return 0


def _cmd_diagram(args) -> int:
    expr = parse_expression(_expression(args.expr))
    doc = analyze(expr, max_steps=args.max_steps)
    if doc.exponent.coords is not None:
        svg = render_diagram(doc.exponent.coords.phi_a, doc.adapted_polyhedron,
                             doc.exponent.r_height_detail, title=args.expr)
    else:
        svg = render_diagram(expr.poly, doc.input_polyhedron, None,
                             title=args.expr)
    _write(svg, args.svg)
    return 0


def _cmd_knapp(args) -> int:
    doc = analyze(parse_expression(_expression(args.expr)), max_steps=args.max_steps)
    if doc.certificates is None:
        payload = {"input": args.expr, "certificates": None,
                   "note": "input is adapted after the linear stage; "
                           "lower bounds follow from the distance"}
    else:
        from .report import _certs_json
        payload = {"input": args.expr,
                   "p_c_prime": str(doc.exponent.p_c_prime),
                   "certificates": _certs_json(doc.certificates)}
    _write(json.dumps(payload, indent=2), args.json)
    return 0


def _cmd_trace(args) -> int:
    doc = analyze(parse_expression(_expression(args.expr)), max_steps=args.max_steps)
    from .report import _split_forest_json
    payload = {"input": args.expr,
               "l_pr_case": None if doc.selection is None else doc.selection.case,
               "splitting": None if doc.forest is None
               else _split_forest_json(doc.forest)}
    _write(json.dumps(payload, indent=2), args.json)
    return 0


def _cmd_decay(args) -> int:
    from .numerics import decay_catalogue, lambda_grid, surface_decay_fit

    lams = lambda_grid(args.lambda_min, args.lambda_max, args.points)
    if args.catalogue:
        fits = decay_catalogue(lams)
    else:
        if not args.expr:
            raise ParseError("decay needs an expression or --catalogue")
        fits = [surface_decay_fit(parse_expression(_expression(args.expr)).poly,
                                  (0, 0, 1), lams=lams)]
    lines = "\n".join(json.dumps(f.to_json_dict()) for f in fits)
    _write(lines, args.json)
    if args.svg:
        _write(render_loglog_plot(fits), args.svg)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nrestrict",
        description="Newton-polyhedron invariants and restriction exponents "
                    "for bivariate polynomials")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, expr_required=True):
        if expr_required:
            sp.add_argument("expr", help="polynomial expression, e.g. "
                            "'(x2 - x1^2)^2'")
        sp.add_argument("--json", default=None, help="output path (default stdout)")
        sp.add_argument("--max-steps", type=int, default=64)
        return sp

    sp = common(sub.add_parser("analyze", help="full exact analysis"))
    sp.add_argument("--series-order", type=int, default=None)
    sp.set_defaults(fn=_cmd_analyze)

    sp = sub.add_parser("diagram", help="SVG Newton diagram")
    sp.add_argument("expr")
    sp.add_argument("--svg", default=None, help="output path (default stdout)")
    sp.add_argument("--max-steps", type=int, default=64)
    sp.set_defaults(fn=_cmd_diagram)

    sp = common(sub.add_parser("knapp", help="symbolic box certificates"))
    sp.set_defaults(fn=_cmd_knapp)

    sp = common(sub.add_parser("trace", help="fine-splitting trace forest"))
    sp.set_defaults(fn=_cmd_trace)

    sp = sub.add_parser("decay", help="numeric decay fits (JSON lines)")
    sp.add_argument("expr", nargs="?", default=None)
    sp.add_argument("--catalogue", action="store_true")
    sp.add_argument("--json", default=None)
    sp.add_argument("--svg", default=None)
    sp.add_argument("--lambda-min", type=float, default=1e2)
    sp.add_argument("--lambda-max", type=float, default=1e5)
    sp.add_argument("--points", type=int, default=40)
    sp.set_defaults(fn=_cmd_decay)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AlgebraicRootHalt as exc:
        print(json.dumps(exc.to_json_dict(), indent=2), file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    except QuadratureError as exc:
        print(f"quadrature failure: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
