"""The four benchmark workloads: inputs, the timed operations and their checks.

Each workload yields *passes*: lists of operations ("ops").  An op is one
call the benchmark times.  Its ``run`` returns the program's raw output and
its ``check`` turns that output into an outcome, ``"ok"`` or ``"halt"`` (the
documented algebraic-root outcome), or raises :class:`CheckFailed`.

The program is reached only through module attributes looked up at call
time (``mods.cli.main``, ``mods.numerics.oscillatory_sum_bound``, ...), so
the wrappers the tracer installs on those attributes see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction as F
from types import SimpleNamespace
from typing import Callable, Iterator, Optional

#: Relative tolerance for numeric statistics compared with reference.json.
REL_TOL = 1e-6


class CheckFailed(Exception):
    """An op's output disagrees with a closed form or the stored reference."""


@dataclass
class Op:
    kind: str                         # e.g. "analyze", "ladder", "single"
    key: str                          # identity used by the reference table
    run: Callable[[], object]
    check: Callable[[object], str]


@dataclass
class Workload:
    name: str
    modules: tuple[str, ...]          # the nrestrict modules its ops call
    tail_pct: float                   # fixed percentile reported as op_tail_ms
    passes: Callable[["Context", int], Iterator[list[Op]]]


class Context:
    """Imported program modules, the reference table and scratch space."""

    def __init__(self, modules: tuple[str, ...], reference: dict, tmp_dir: str,
                 record: bool = False):
        self.reference = reference
        self.tmp_dir = tmp_dir
        # when recording, checks store what they observe in ``reference``
        # instead of comparing with it
        self.record = record
        self.numpy_trapz_alias = False
        if "numerics" in modules:
            import numpy as np
            # nrestrict.numerics evaluates np.trapz at import time; numpy 2
            # removed that name in favour of np.trapezoid (the same function).
            if not hasattr(np, "trapz"):
                np.trapz = np.trapezoid
                self.numpy_trapz_alias = True
        self.mods = SimpleNamespace(**{
            n: importlib.import_module(f"nrestrict.{n}")
            for n in modules + ("errors",)})


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL)


def _check_numbers(ctx: Context, key: str, stats: dict) -> None:
    """Compare numeric statistics with the stored reference, when present."""
    if ctx.record:
        ctx.reference.setdefault("numeric", {})[key] = stats
        return
    ref = ctx.reference.get("numeric", {}).get(key)
    if ref is None:
        return
    for name, want in ref.items():
        got = stats[name]
        if isinstance(want, list):
            _expect(len(got) == len(want)
                    and all(_close(g, w) for g, w in zip(got, want)),
                    f"{key}: {name} differs from reference")
        else:
            _expect(_close(got, want), f"{key}: {name} {got} != {want}")


def _check_digest(ctx: Context, key: str, data: bytes) -> None:
    if ctx.record:
        ctx.reference.setdefault("exact", {})[key] = _digest(data)
        return
    want = ctx.reference.get("exact", {}).get(key)
    if want is not None:
        _expect(_digest(data) == want, f"{key}: output bytes changed")


# ---------------------------------------------------------------------------
# exact-corpus

EX122 = "(x2 - x1^2 - x1^3)*(x2 - x1^2 - x1^4)^3"

POWER_CASES = [(2, 2), (2, 3), (2, 5), (3, 4), (3, 8)]

# (expression, family, m, n or None for the flat case); copied from the
# acceptance suite so the benchmark does not import the tests
NORMAL_FORMS = [
    ("(x2 - x1^2)^2 + x1^5", "A", 2, 5),
    ("(x2 - x1^2)^2 + x1^6", "A", 2, 6),
    ("(x2 - x1^2)^2 - x1^8", "A", 2, 8),
    ("(x2 - x1^3)^2 + x1^7", "A", 3, 7),
    ("(x2 - x1^3)^2 + x1^9", "A", 3, 9),
    ("(x2 - x1^4)^2 + x1^9", "A", 4, 9),
    ("(x2 - x1^2)^2", "A", 2, None),
    ("(x2 - x1^3)^2", "A", 3, None),
    ("(x2 - x1^2 - x1^3)^2 + x1^7", "A", 2, 7),
    ("(1 + x1)*(x2 - x1^2)^2 + x1^5", "A", 2, 5),
    ("(x2 + 2*x1 - x1^2)^2 + x1^5", "A", 2, 5),
    ("x1*(x2 - x1^2)^2 + x1^7", "D", 2, 7),
    ("x1*(x2 - x1^2)^2 + x1^8", "D", 2, 8),
    ("x1*(x2 - x1^3)^2 + x1^9", "D", 3, 9),
    ("x1*(x2 - x1^3)^2 + x1^10", "D", 3, 10),
    ("x1*(x2 - x1^4)^2 + x1^11", "D", 4, 11),
    ("x1*(x2 - x1^2)^2", "D", 2, None),
    ("x1*(x2 - x1^3)^2", "D", 3, None),
    ("(x1 + x2^2)*(x2 - x1^2)^2 + x1^7", "D", 2, 7),
    ("x1*(x2 - x1^2 + 2*x1^3)^2 + x1^8", "D", 2, 8),
]

POWER_TEXTS = {f"(x2 - x1^{m})^{n}": (m, n) for m, n in POWER_CASES}
NORMAL_BY_TEXT = {t: (fam, m, n) for t, fam, m, n in NORMAL_FORMS}
ACCEPTANCE = [EX122] + list(POWER_TEXTS) + list(NORMAL_BY_TEXT)

COMMANDS = ("analyze", "knapp", "trace", "diagram")
CORPUS_RANDOM_PER_PASS = 26

_COEFFS = [F(1), F(-1), F(2), F(-2), F(3), F(1, 2), F(-1, 2), F(1, 3), F(3, 2)]


def _term(c: F, e: int) -> str:
    mag = abs(c)
    body = f"x1^{e}" if mag == 1 else f"{mag}*x1^{e}"
    return ("- " if c < 0 else "+ ") + body


def random_product(rng: random.Random) -> str:
    """A product of rational branches (x2 - c1*x1^a - c2*x1^b)^k, of total
    multiplicity at least 2 (the origin must be critical), plus x1^N."""
    want = rng.randint(1, 3)
    parts: list[str] = []
    total = 0
    while len(parts) < want or total < 2:
        a = rng.randint(2, 3)
        b = rng.randint(a + 1, a + 2)
        k = rng.randint(1, 2)
        c1, c2 = rng.choice(_COEFFS), rng.choice(_COEFFS)
        parts.append(f"(x2 {_term(-c1, a)} {_term(-c2, b)})^{k}")
        total += k
    return "*".join(parts) + f" + x1^{rng.randint(2, 14)}"


def _check_report(text: str, doc: dict) -> None:
    """Closed forms that hold for every analyze report."""
    p = F(doc["p_c_prime"])
    base = F(doc["h_r"]) if doc["source"] == "r_height_2hr_plus_2" else F(doc["h"])
    _expect(p == 2 * base + 2, f"{text}: p_c' != 2*base + 2")
    _expect(F(doc["theta"]) * p == 2, f"{text}: theta != 2/p_c'")
    if text == EX122:
        _expect((doc["d"], doc["h"], doc["h_r"], doc["p_c_prime"])
                == ("8/3", "3", "11/4", "15/2"), "EX122 invariants changed")
    if text in POWER_TEXTS:
        m, n = POWER_TEXTS[text]
        d = F(n * m, m + 1)
        want = 2 * d + 2 if n <= m + 1 else F(2 * n)
        _expect(F(doc["d"]) == d and F(doc["h"]) == n and p == want,
                f"{text}: power-family d, h or p_c' changed")
    if text in NORMAL_BY_TEXT:
        fam, m, n = NORMAL_BY_TEXT[text]
        s = doc["singularity"]
        _expect(s is not None, f"{text}: no normal-form class")
        index = None if n is None else (n - 1 if fam == "A" else n + 1)
        label = fam + ("inf" if index is None else str(index))
        _expect((s["family"], s["m"], s["n"], s["index"], s["label"])
                == (fam, m, n, index, label), f"{text}: class {s['label']}")
        d = F(2 * m, m + 1) if fam == "A" else F(2 * m + 1, m + 1)
        _expect(F(doc["h_lin"]) == d and p == 2 * d + 2,
                f"{text}: h_lin or p_c' of the normal form changed")


def _check_cli(ctx: Context, cmd: str, text: str, result) -> str:
    code, data, err = result
    if code == 2:
        _expect(json.loads(err).get("error") == "algebraic-root",
                f"{cmd} {text}: exit 2 without a halt record")
        return "halt"
    _expect(code == 0, f"{cmd} {text}: exit code {code}: {err.strip()[:200]}")
    _check_digest(ctx, f"{cmd}|{text}", data)
    if cmd == "diagram":
        _expect(data.lstrip().startswith(b"<svg") and b"</svg>" in data,
                f"diagram {text}: not an SVG document")
        return "ok"
    doc = json.loads(data)
    if cmd == "analyze":
        _check_report(text, doc)
    elif cmd == "knapp" and doc["certificates"] is not None:
        best = max(F(c["derived_exponent"]) for c in doc["certificates"])
        _expect(best == F(doc["p_c_prime"]),
                f"knapp {text}: max certificate {best} != p_c'")
    elif cmd == "trace" and text == EX122:
        branch = doc["splitting"]["branches"][0]
        shear = [s for s in branch["steps"] if s["case"] == "Case3_shear"]
        _expect(branch["terminal"] == "stop_12_9" and shear
                and (shear[0]["root"], shear[0]["multiplicity"]) == ("1", 3),
                "EX122 splitting trace changed")
    return "ok"


def _cli_op(ctx: Context, cmd: str, text: str) -> Op:
    out = os.path.join(ctx.tmp_dir, "out")
    flag = "--svg" if cmd == "diagram" else "--json"

    def run():
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = ctx.mods.cli.main([cmd, text, flag, out])
        data = b""
        if code == 0:
            with open(out, "rb") as fh:
                data = fh.read()
        return code, data, err.getvalue()

    return Op(cmd, f"{cmd}|{text}", run,
              lambda result: _check_cli(ctx, cmd, text, result))


def corpus_passes(ctx: Context, seed: int) -> Iterator[list[Op]]:
    """Every pass: the 26 acceptance inputs plus fresh seeded random
    products, in seeded order, each under all four subcommands."""
    rng = random.Random(seed)
    while True:
        texts = ACCEPTANCE + [random_product(rng)
                              for _ in range(CORPUS_RANDOM_PER_PASS)]
        rng.shuffle(texts)
        yield [_cli_op(ctx, cmd, t) for t in texts for cmd in COMMANDS]


# ---------------------------------------------------------------------------
# exact-ladder

#: an odd number of rungs, so that the median op falls in the middle of one
#: rung's group of samples rather than between two rungs
LADDER = (2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22)


def ladder_text(n: int) -> str:
    return f"(x2 - x1^2 - x1^3)^{n}*(x2 - x1^2 - x1^4) + x1^({4 * n + 7})"


def _ladder_op(ctx: Context, n: int) -> Op:
    text = ladder_text(n)

    def run():
        m = ctx.mods
        return m.report.analyze(m.parser.parse_expression(text)).to_json()

    def check(out: str) -> str:
        _check_digest(ctx, f"ladder|{n}", out.encode())
        _check_report(text, json.loads(out))
        return "ok"

    return Op("ladder", f"ladder|{n}", run, check)


def ladder_passes(ctx: Context, seed: int) -> Iterator[list[Op]]:
    while True:
        yield [_ladder_op(ctx, n) for n in LADDER]


# ---------------------------------------------------------------------------
# sum-bounds

#: criterion-9 families: single trials 1000-1169, double trials 2000-2039
SINGLE_IDS = tuple(range(0, 170, 6))
DOUBLE_IDS = (0,)
SINGLE_LEVELS = [2 ** k for k in range(6, 15)]
DOUBLE_LEVELS = [2 ** k for k in range(6, 13)]
#: seed s shifts every single trial's t-sample seed by s * T_SEED_STRIDE,
#: so seed 0 reproduces acceptance criterion 9 exactly
T_SEED_STRIDE = 100003


def _sum_op(ctx: Context, kind: str, trial, ident: int, t_seed: int,
            levels: Optional[list[int]]) -> Op:
    key = f"{kind}|{ident}|{t_seed}"

    def run():
        return ctx.mods.numerics.oscillatory_sum_bound(trial, levels=levels,
                                                       seed=t_seed)

    def check(res) -> str:
        _expect(res.max_growth <= 1.10, f"{key}: growth {res.max_growth}")
        if kind == "reference":
            _expect(res.running_sup[-1] > 0, "reference trial is vacuous")
        _check_numbers(ctx, key, {"sup_ratios": res.sup_ratios,
                                  "max_growth": res.max_growth})
        return "ok"

    return Op(kind, key, run, check)


def sum_passes(ctx: Context, seed: int) -> Iterator[list[Op]]:
    """A fixed trial set (so a pass costs the same under every seed); the
    seed draws the single trials' t samples and the order of the ops."""
    num = ctx.mods.numerics
    rng = random.Random(seed)
    singles = [(i, num.random_single_trial(1000 + i)) for i in SINGLE_IDS]
    doubles = [(i, num.random_double_trial(2000 + i)) for i in DOUBLE_IDS]
    ref = num.reference_double_trial()
    while True:
        ops = [_sum_op(ctx, "single", t, 1000 + i, i + T_SEED_STRIDE * seed,
                       SINGLE_LEVELS) for i, t in singles]
        ops += [_sum_op(ctx, "double", t, 2000 + i, i, DOUBLE_LEVELS)
                for i, t in doubles]
        ops.append(_sum_op(ctx, "reference", ref, 0, 3, None))
        rng.shuffle(ops)
        yield ops


# ---------------------------------------------------------------------------
# decay-fits

DIRECT_2D_PHASE = "(x2 - x1^2)^2"
DIRECT_2D_LAMBDAS = (100.0, 400.0, 1600.0)
DIRECT_2D_HALF_WIDTH = 0.5
CATALOGUE_EXPECTED = (0.5, 0.2, 1.0)


def _fit_stats(fit) -> dict:
    return {"fitted_exponent": fit.fitted_exponent,
            "magnitudes": fit.magnitudes}


def _catalogue_op(ctx: Context) -> Op:
    def check(fits) -> str:
        _expect(len(fits) == len(CATALOGUE_EXPECTED), "catalogue size changed")
        for i, (fit, want) in enumerate(zip(fits, CATALOGUE_EXPECTED)):
            _expect(fit.verdict == "pass"
                    and abs(fit.fitted_exponent - want) <= 0.07
                    and math.isclose(fit.lambda_grid[0], 1e2)
                    and math.isclose(fit.lambda_grid[-1], 1e5),
                    f"catalogue fit {i}: {fit.phase} {fit.fitted_exponent}")
            _check_numbers(ctx, f"catalogue|{i}", _fit_stats(fit))
        return "ok"

    return Op("catalogue", "catalogue",
              lambda: ctx.mods.numerics.decay_catalogue(), check)


def _vdc_op(ctx: Context, m: int) -> Op:
    key = f"vdc|{m}"

    def check(fit) -> str:
        _expect(abs(fit.fitted_exponent - 1.0 / m) <= 0.05,
                f"{key}: exponent {fit.fitted_exponent}")
        _check_numbers(ctx, key, _fit_stats(fit))
        return "ok"

    return Op("vdc", key,
              lambda: ctx.mods.numerics.van_der_corput_fit(m, [0] * m + [1]),
              check)


def _airy_op(ctx: Context, u: float) -> Op:
    key = f"airy|{u}"

    def check(fit) -> str:
        e = fit.fitted_exponent
        ok = (abs(e - 1 / 3) <= 0.04 if u == 0.0 else
              abs(e - 0.5) <= 0.05 if u > 0 else e >= 2.0)
        _expect(ok, f"{key}: exponent {e}")
        _check_numbers(ctx, key, _fit_stats(fit))
        return "ok"

    return Op("airy", key,
              lambda: ctx.mods.numerics.airy_scaling_check(u), check)


def _direct_2d_op(ctx: Context, lam: float, reduced: dict) -> Op:
    key = f"direct2d|{lam:g}"
    num = ctx.mods.numerics
    hw = DIRECT_2D_HALF_WIDTH
    phi = ctx.mods.parser.parse_expression(DIRECT_2D_PHASE).poly
    terms = sorted((float(e1), int(e2), float(c))
                   for (e1, e2), c in phi.items())

    def phase(x, y):
        import numpy as np
        acc = np.zeros(np.broadcast(x, y).shape)
        for e1, e2, c in terms:
            acc = acc + c * x ** e1 * y ** e2
        return acc

    def amp(x, y):
        return num.bump(x / hw) * num.bump(y / hw)

    def run():
        return abs(ctx.mods.numerics.oscillatory_integral_2d(
            phase, amp, (-hw, hw, -hw, hw), lam))

    def check(mag: float) -> str:
        # the symbolic reduction at the same frequency, computed once and
        # outside the timed call
        if lam not in reduced:
            import numpy as np
            fit = num.surface_decay_fit(phi, (0, 0, 1),
                                        lams=np.geomspace(lam / 100, lam, 5))
            reduced[lam] = fit.magnitudes[-1]
        _expect(abs(mag - reduced[lam]) <= 0.01 * reduced[lam],
                f"{key}: direct {mag} vs reduced {reduced[lam]}")
        _check_numbers(ctx, key, {"magnitude": mag})
        return "ok"

    return Op("direct2d", key, run, check)


def decay_passes(ctx: Context, seed: int) -> Iterator[list[Op]]:
    reduced: dict = {}
    ops = ([_catalogue_op(ctx)] + [_vdc_op(ctx, m) for m in (2, 3, 5)]
           + [_airy_op(ctx, u) for u in (0.0, 0.5, -0.5)]
           + [_direct_2d_op(ctx, lam, reduced) for lam in DIRECT_2D_LAMBDAS])
    while True:
        yield ops


# Why each workload exists is recorded in BENCHMARK.json and bench/README.md.
# tail_pct is fixed per workload (not derived from the op count), so a
# faster program does not move op_tail_ms to a higher percentile.  Each has
# at least 10 ops beyond it at the seed commit's rate and sits among ops of
# similar cost, so noise cannot swap it onto a much faster or slower op: on
# the ladder, the middle of the 9th-fastest rung's samples (8.5 / 11 = 77 %);
# on sum-bounds, the samples of the lightest ~0.7 s single trial, which sits
# above a gap from the ~40 ms ones.
WORKLOADS = {w.name: w for w in [
    Workload("exact-corpus", ("cli",), 99.0, corpus_passes),
    Workload("exact-ladder", ("report", "parser"), 77.0, ladder_passes),
    Workload("sum-bounds", ("numerics",), 82.0, sum_passes),
    Workload("decay-fits", ("numerics", "parser"), 50.0, decay_passes),
]}
