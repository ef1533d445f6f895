"""Command-line interface.

Subcommands: analyze, diagram, knapp, decay, trace.  JSON goes to stdout or
``--json PATH``; diagrams and plots to ``--svg PATH``.  Exit codes: 0 success,
1 usage or parse error, or an input or output file that cannot be read or
written (``OSError``, printed as ``error: ...``), 3 internal invariant
violation, 4 quadrature failure.  Exit code 2 is reserved and never
returned, so that 3 and 4 keep their meaning.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .diagram import render_diagram, render_loglog_plot
from .errors import InternalInvariantError, ParseError, QuadratureError
from .parser import parse_expression
from .report import _certs_json, _split_forest_json, analyze


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
    doc = analyze(parse_expression(_expression(args.expr)))
    _write(doc.to_json(), args.json)
    return 0


def _cmd_diagram(args) -> int:
    doc = analyze(parse_expression(_expression(args.expr)))
    # the adapted frame when there is one; its r-height is None otherwise
    svg = render_diagram(doc.adapted_polyhedron or doc.input_polyhedron,
                         doc.exponent.r_height_detail, title=args.expr)
    _write(svg, args.svg)
    return 0


def _cmd_knapp(args) -> int:
    doc = analyze(parse_expression(_expression(args.expr)))
    if doc.certificates is None:
        payload = {"input": doc.expr.source, "certificates": None,
                   "note": "input is adapted after the linear stage; "
                           "lower bounds follow from the distance"}
    else:
        payload = {"input": doc.expr.source,
                   "p_c_prime": str(doc.exponent.p_c_prime),
                   "certificates": _certs_json(doc.certificates)}
    _write(json.dumps(payload, indent=2), args.json)
    return 0


def _cmd_trace(args) -> int:
    doc = analyze(parse_expression(_expression(args.expr)))
    payload = {"input": doc.expr.source,
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
                                  lams=lams)]
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

    def common(sp):
        sp.add_argument("expr", help="polynomial expression, e.g. "
                        "'(x2 - x1^2)^2'")
        sp.add_argument("--json", default=None, help="output path (default stdout)")
        return sp

    sp = common(sub.add_parser("analyze", help="full exact analysis"))
    sp.set_defaults(fn=_cmd_analyze)

    sp = sub.add_parser("diagram", help="SVG Newton diagram")
    sp.add_argument("expr")
    sp.add_argument("--svg", default=None, help="output path (default stdout)")
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
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    except QuadratureError as exc:
        print(f"quadrature failure: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
