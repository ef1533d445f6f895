"""Floating-point verification of decay laws and sum bounds at desk scale.

Quadrature strategy: one cell tree serves 1-D and 2-D integrals.  It
subdivides the box dyadically until the phase varies by less than a fixed
budget tau per cell, then applies fixed-order tensor Gauss-Legendre per cell;
no Filon/Levin machinery.  Per axis, the n-point rule integrates exp(i theta)
over the reference cell [-1, 1], with theta linear and varying by v across
it, to within

    |E| <= 2^(2n+1) (n!)^4 / ((2n+1) ((2n)!)^3) * (v/2)^(2n)

(``gl_remainder_bound``).  The bound covers the phase factor only: the
amplitude's derivatives and the phase's curvature add to the error, and the
probed variation can undershoot the true one.  The direct 2-D tree takes its
default tau from this bound at order 16 (``TAU_2D``); the 1-D tree keeps
tau = pi.  A decay fit builds one tree per frequency ladder
(``lam`` may be an array): the tree is refined as for the largest |lam|, and a
cell counts toward each lam exactly when a run at that lam alone would
integrate it, that is when its own probed variation is fine at lam and the
smallest variation among its strict ancestors is not.  A surface fit runs the
exact exponent stage (``critical_exponent``) once and reads off it both the
expected exponent 1/h and the shear to adapted coordinates.  It first tries
exact symbolic reductions to a product of 1-D integrals (a pure-x2 phase,
possibly after that shear, or a separable phase with the tensor cutoff); the
direct 2-D tree is kept as a fallback for moderate frequencies and raises
once its cell budget is exceeded.  Each surface fit records the path it took
in ``meta``.

Sum strategy: one sweep serves single and double sums (a single sum is the
double sum with its second index at 0).  Once per trial, at the top level,
it evaluates each axis line (a factor with no m2 term) on its live window
only, and builds the index grid's live polygon: per row a window, and a run
on which every factor is constant (an axis factor everywhere, a bump factor
bump(-c/s) where 2^e is below a quarter ulp of its center c, a factor with
no bump below its window's end).  Each level is a clip of that polygon.  A
run adds one value to every |p2|-th frequency bucket, as +v/-v on a
difference array summed by one cumsum per residue class mod |p2|; only the
at most two segments at its ends are evaluated cell by cell.  The top
level's live span of K buckets holds every lower level's, and fixes the
phase tables once per trial: z^c for the C = ceil(sqrt(K)) columns of a
block and the block phases z^(bC), each from one exp by repeated doubling;
a level takes |F(t)| from one real matmul and a sum against its block
phases.  The t are drawn in blocks of 512 until 512 pass.

All randomized trials take explicit seeds and reduce in fixed index order, so
results are reproducible run to run.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .adapted import IDENTITY
from .errors import QuadratureError
from .exponents import critical_exponent
from .geometry import NewtonPolyhedron
from .parser import parse_expression, render
from .poly import PuiseuxPoly

LN2 = math.log(2.0)

# numpy 2.4 removed ``trapz``, the only name numpy 1.24-1.26 has, so read it
# only as the fallback
_trapezoid = getattr(np, "trapezoid", None) or np.trapz

# ---------------------------------------------------------------------------
# smooth bumps with closed-form norms

#: sup of |d/dz cos^4(pi z / 2)| = 2*pi*max|c^3 s| at c^2 = 3/4
BUMP_D1 = (3 * math.sqrt(3) / 8) * math.pi
#: sup of |d^2/dz^2 cos^4(pi z / 2)| = pi^2 * max|c^2 (4c^2 - 3)|
BUMP_D2 = math.pi ** 2
#: integral of cos^4(pi z / 2) over [-1, 1]
BUMP_MASS = 0.75


def bump(z):
    """C^3 bump cos^4(pi z / 2) on [-1, 1], 0 outside; peak value 1."""
    z = np.asarray(z, dtype=float)
    inside = np.abs(z) < 1.0
    out = np.zeros_like(z)
    c = np.cos(0.5 * np.pi * z[inside])
    out[inside] = c ** 4
    return out


# ---------------------------------------------------------------------------
# adaptive oscillatory quadrature

_gl = functools.cache(np.polynomial.legendre.leggauss)


#: quadrature nodes evaluated together in one step of the cell tree: 8192
#: cells of the 16-point 1-D rule, 512 of the 16x16-point 2-D rule
_CHUNK_NODES = 2 ** 17


def gl_remainder_bound(order: int, v: float) -> float:
    """The module docstring's bound on the error of ``order``-point
    Gauss-Legendre for exp(i theta) over [-1, 1], theta linear and varying
    by ``v``: the remainder term with |d^(2n)/dt^(2n) exp(i theta)| =
    (v/2)^(2n).  It bounds the phase factor only, not the amplitude."""
    n = order
    coef = (2 ** (2 * n + 1) * math.factorial(n) ** 4
            / ((2 * n + 1) * math.factorial(2 * n) ** 3))
    return coef * (v / 2) ** (2 * n)


#: Gauss-Legendre order per axis of the direct 2-D tree
_GL_ORDER_2D = 16
#: default tau of the direct 2-D tree, about 6.6 pi: the per-axis variation
#: v at which ``gl_remainder_bound(16, v)`` is 1e-12
TAU_2D = 2 * (1e-12 / gl_remainder_bound(_GL_ORDER_2D, 2.0)) ** (
    1 / (2 * _GL_ORDER_2D))


def oscillatory_integral_1d(phase: Callable, amp: Callable,
                            lo: float, hi: float,
                            lam: float | Sequence[float],
                            tau: float = math.pi,
                            max_cells: int = 4_000_000) -> complex | np.ndarray:
    """integral of exp(i*lam*phase(s)) * amp(s) over [lo, hi].

    Cells are bisected until the phase, probed at 7 points, varies by at
    most ``tau / |lam|``, then integrated with 16-point Gauss-Legendre.
    ``phase`` and ``amp`` must accept numpy arrays.  A scalar ``lam`` gives a
    complex; a 1-D sequence of frequencies (any order, repeats allowed) gives
    an array with one integral per frequency, all read off one cell tree
    (see ``_cell_tree``) and each equal to its own scalar call up to the
    order of summation.
    """
    return _cell_tree(phase, amp, (lo, hi), lam, tau, 16, max_cells, 7)


def oscillatory_integral_2d(phase: Callable, amp: Callable,
                            box: tuple[float, float, float, float],
                            lam: float | Sequence[float],
                            tau: float = TAU_2D,
                            max_cells: int = 100_000) -> complex | np.ndarray:
    """Direct 2-D analogue of the 1-D rule over ``box = (x0, x1, y0, y1)``:
    quadtree refinement with a 5x5 phase probe per cell and 16x16-point
    Gauss-Legendre.  ``lam`` is a scalar or a 1-D sequence, as in
    ``oscillatory_integral_1d``.

    The default ``tau`` (``TAU_2D``, about 6.6 pi) is where the per-axis
    Gauss-Legendre remainder for the phase factor,
    2^33 (16!)^4 / (33 (32!)^3) * (v/2)^32 with v = |lam| * variation
    (``gl_remainder_bound``), is 1e-12; it says nothing of the amplitude.
    The default cell budget is counted in work: 100_000 cells of 256 nodes
    are the 25.6M quadrature nodes of 400_000 cells of an 8x8 rule.

    Cost grows like lam^2, so this is the fallback path for moderate
    frequencies only; the cell budget guards against runaway refinement.
    """
    return _cell_tree(phase, amp, box, lam, tau, _GL_ORDER_2D, max_cells, 5)


def _cell_tree(phase: Callable, amp: Callable, box: Sequence[float],
               lam: float | Sequence[float], tau: float, gl_order: int,
               max_cells: int, probes: int) -> complex | np.ndarray:
    """integral of exp(i*lam*phase) * amp over the axis-aligned box
    ``(lo_0, hi_0, ..., lo_dim-1, hi_dim-1)`` for every frequency in ``lam``;
    ``phase`` and ``amp`` take one coordinate array per axis.

    Each cell probes the phase on a tensor grid of ``probes`` points per
    axis; its probed variation v does not depend on the frequency.  A run at
    one frequency integrates a cell with tensor Gauss-Legendre when
    |lam| * v <= tau and splits it into 2^dim children otherwise.  One tree,
    refined as a run at max |lam| refines it, serves every frequency: a cell
    counts toward lam iff |lam| * v <= tau < |lam| * (the smallest v of its
    strict ancestors), which is iff a run at lam alone integrates it.  The
    minimum runs over all strict ancestors, not just the parent, because a
    child's probe can show more variation than its parent's did.  Phase and
    amplitude are evaluated once per integrated cell; only exp(i*lam*phase)
    is computed per frequency.  The cell budget and the depth cap apply to
    this one tree, so they trip exactly when a run at max |lam| would.  A
    level is processed in chunks of ``_CHUNK_NODES`` quadrature nodes, so
    the per-node arrays stay small however many cells it holds.
    """
    lams = np.atleast_1d(np.asarray(lam, dtype=float))
    if lams.ndim != 1:
        raise ValueError("lam must be a number or a 1-D sequence")
    scale = np.abs(lams)
    top = np.max(scale, initial=0.0)
    dim = len(box) // 2
    nodes, weights = _gl(gl_order)
    probe = _tensor_grid(np.linspace(0.0, 1.0, probes), dim)
    node = _tensor_grid(nodes, dim)
    w = np.prod(_tensor_grid(weights, dim), axis=0)
    step = _CHUNK_NODES // len(w)
    cells = np.array([box], dtype=float)
    anc = np.array([np.inf])   # smallest probed variation of strict ancestors
    totals = [0.0 + 0.0j] * len(lams)
    processed = 0
    for _depth in range(80):
        processed += len(cells)
        if processed > max_cells:
            raise QuadratureError(
                f"cell budget exceeded in {dim}-D quadrature; "
                "use a symbolic reduction or a smaller frequency")
        coarse, coarse_anc = [], []
        for start in range(0, len(cells), step):
            chunk = cells[start:start + step]
            chunk_anc = anc[start:start + step]
            lo, hi = chunk[:, 0::2], chunk[:, 1::2]
            ph = np.asarray(phase(*[lo[:, d, None] + (hi - lo)[:, d, None]
                                    * probe[d] for d in range(dim)]))
            var = ph.max(axis=1) - ph.min(axis=1)
            # fine at lam, and no strict ancestor was (a nan never is)
            take = ((scale * var[:, None] <= tau)
                    & ~(scale * chunk_anc[:, None] <= tau))
            hit = take.any(axis=1)
            if hit.any():
                take = take[hit]
                half = 0.5 * (hi[hit] - lo[hit])
                mid = 0.5 * (hi[hit] + lo[hit])
                x = [mid[:, d, None] + half[:, d, None] * node[d]
                     for d in range(dim)]
                f = np.asarray(phase(*x))
                a = np.broadcast_to(amp(*x), f.shape)
                size = np.prod(half, axis=1)
                for j in np.flatnonzero(take.any(axis=0)):
                    sel = take[:, j]
                    vals = a[sel] * np.exp(1j * float(lams[j]) * f[sel])
                    totals[j] += complex(np.sum((vals @ w) * size[sel]))
            keep = ~(top * var <= tau)
            coarse.append(chunk[keep])
            coarse_anc.append(np.fmin(chunk_anc[keep], var[keep]))
        cells = np.concatenate(coarse)
        if not len(cells):
            return totals[0] if np.ndim(lam) == 0 else np.array(totals)
        cells = _split(cells)
        anc = np.tile(np.concatenate(coarse_anc), 2 ** dim)
    raise QuadratureError(f"{dim}-D quadrature did not converge (depth cap)")


def _tensor_grid(points: np.ndarray, dim: int) -> list[np.ndarray]:
    """The grid points^dim as one flat coordinate array per axis."""
    return [g.ravel() for g in np.meshgrid(*[points] * dim, indexing="ij")]


def _split(cells: np.ndarray) -> np.ndarray:
    """The 2^dim children of each cell, every axis halved at its midpoint;
    the first axis varies fastest over the children."""
    dim = cells.shape[1] // 2
    mid = 0.5 * (cells[:, 0::2] + cells[:, 1::2])
    children = []
    for upper in itertools.product((0, 1), repeat=dim):
        child = cells.copy()
        for d, u in enumerate(reversed(upper)):
            child[:, 2 * d + 1 - u] = mid[:, d]   # lower half: hi = mid
        children.append(child)
    return np.concatenate(children)


# ---------------------------------------------------------------------------
# log-log fits


def lambda_grid(lo: float = 1e2, hi: float = 1e5, points: int = 40) -> np.ndarray:
    if not (0 < lo < math.inf and 0 < hi < math.inf):
        raise ValueError("frequency grid bounds must be positive and finite")
    return np.geomspace(lo, hi, points)


def log_log_fit(lams: Sequence[float],
                mags: Sequence[float]) -> tuple[float, float]:
    """Least-squares slope of log|I| against log(lam) on the top half of the
    grid (at least three points).

    Returns (fitted decay exponent, rms residual in log10); the exponent is
    the negated slope.
    """
    lams = np.asarray(lams, dtype=float)
    mags = np.asarray(mags, dtype=float)
    k = max(3, int(round(len(lams) * 0.5)))
    x = np.log10(lams[-k:])
    y = np.log10(np.maximum(mags[-k:], 1e-300))
    coef = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((np.polyval(coef, x) - y) ** 2)))
    return -float(coef[0]), resid


@dataclass
class DecayFit:
    """One decay experiment: grid, magnitudes, fitted exponent, verdict."""

    phase: str
    lambda_grid: list[float]
    magnitudes: list[float]
    fitted_exponent: float
    residual: float
    expected_exponent: Optional[float]
    tolerance: float
    verdict: str                       # "pass" | "fail" | "inconclusive"
    mode: str = "match"                # "match" | "at_least"
    meta: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "phase": self.phase,
            "lambda_grid": self.lambda_grid,
            "magnitudes": self.magnitudes,
            "fitted_exponent": self.fitted_exponent,
            "residual": self.residual,
            "expected_exponent": self.expected_exponent,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
            "mode": self.mode,
            **({"meta": self.meta} if self.meta else {}),
        }


def _check_grid(lams) -> np.ndarray:
    """The frequency grid as floats, once it is known to hold at least two
    points, strictly increasing over at least two decades; every fit checks
    its grid with this before it integrates anything."""
    lams = np.asarray(lams, dtype=float)
    if len(lams) < 2:
        raise ValueError("frequency grid needs at least two points")
    if not np.all(np.diff(lams) > 0):
        raise ValueError("frequency grid must be strictly increasing")
    if math.log10(lams[-1] / lams[0]) < 2 - 1e-9:
        raise ValueError("frequency grid must span at least two decades")
    return lams


def _make_fit(phase_desc: str, lams, mags, expected, tol, mode="match",
              residual_cap: float = 0.02, meta=None) -> DecayFit:
    """The fit of ``mags`` over a grid already passed by ``_check_grid``."""
    exponent, resid = log_log_fit(lams, mags)
    if mode == "at_least":
        verdict = "pass" if (expected is None or exponent >= expected) else "fail"
    elif expected is None:
        verdict = "inconclusive"
    else:
        verdict = ("pass" if abs(exponent - expected) <= tol
                   and resid < residual_cap else "fail")
    return DecayFit(phase_desc, list(map(float, lams)), list(map(float, mags)),
                    exponent, resid, expected, tol, verdict, mode, meta or {})


# ---------------------------------------------------------------------------
# van der Corput and Airy probes


def van_der_corput_fit(m: int, phase_coeffs: Sequence[float],
                       lams: np.ndarray | None = None) -> DecayFit:
    """Fit the decay of ``int_0^1 exp(i lam f)`` for a polynomial phase with
    an order-m derivative bound, to within 0.05 of the exponent 1/m.

    Checks ``|f^(m)| >= 1`` on [0, 1] by dense sampling before integrating;
    the model phases s^m (normalized so f^(m) = m!) decay like lam^(-1/m)
    with the stationary point at the endpoint.
    """
    if m < 1:
        raise ValueError("derivative order must be >= 1")
    f = PuiseuxPoly({(i, 0): Fraction(c) for i, c in enumerate(phase_coeffs)})
    dm = _poly_xy_eval(f.partial_derivative(1, m))
    samples = np.linspace(0.0, 1.0, 4097)
    if np.min(np.abs(dm(samples, 0.0))) < 1.0 - 1e-9:
        raise ValueError(f"|f^({m})| >= 1 fails on the interval")
    f_xy = _poly_xy_eval(f)
    phase = lambda x: f_xy(x, 0.0)
    amp = lambda x: np.ones_like(np.asarray(x, dtype=float))
    if lams is None:
        lams = lambda_grid(1e2, 1e5, 40)
    lams = _check_grid(lams)
    if math.log10(lams[-1] / lams[0]) < 3 - 1e-9:
        raise ValueError("frequency grid must span at least three decades")
    mags = np.abs(oscillatory_integral_1d(phase, amp, 0.0, 1.0, lams))
    return _make_fit(f"s^{m}-type phase, M={m}", lams, mags, 1.0 / m, 0.05)


def smooth_plateau(z):
    """C-infinity cutoff: 1 on [-1/2, 1/2], 0 outside [-1, 1]."""
    z = np.abs(np.asarray(z, dtype=float))
    out = np.zeros_like(z)
    out[z <= 0.5] = 1.0
    mid = (z > 0.5) & (z < 1.0)
    s = (z[mid] - 0.5) / 0.5
    f0 = np.exp(-1.0 / np.maximum(s, 1e-9))
    f1 = np.exp(-1.0 / np.maximum(1.0 - s, 1e-9))
    out[mid] = f1 / (f0 + f1)
    return out


def _stationary_gap(u: float) -> float:
    """Phase gap between the two stationary points of t^3 - u t (u > 0):
    their magnitudes beat in lam with this frequency."""
    t_star = math.sqrt(abs(u) / 3)
    return (4 * abs(u) / 3) * t_star


def _coherent_grid(lams: np.ndarray, gap: float) -> np.ndarray:
    """Snap each frequency to the nearest constructive beat phase
    (lam * gap = 2 pi k), keeping the grid strictly increasing."""
    snapped = []
    period = 2 * math.pi / gap
    for lam in lams:
        k = max(1, round(lam / period))
        v = k * period
        if not snapped or v > snapped[-1]:
            snapped.append(v)
    return np.asarray(snapped)


def airy_scaling_check(u: float, lams: np.ndarray | None = None) -> DecayFit:
    """Scaling of ``int exp(i lam (t^3 - u t)) * smooth_plateau(t)`` over
    [-1, 1] in the three regimes of lam^(2/3) |u|.

    u = 0 fits the 1/3 law; u > 0 fits 1/2 at beat-coherent frequencies (the
    two stationary values interfere, so the grid is snapped to constructive
    phases); u < 0 decays superpolynomially and only exponent >= 2 is
    asserted.  A grid straddling the regime boundary is integrated but
    reported inconclusive.
    """
    if lams is None:
        if u >= 0:
            lams = lambda_grid(1e2, 1e5, 32)
        else:
            lams = lambda_grid(10 ** 1.2, 10 ** 3.2, 24)
    lams = np.asarray(lams, dtype=float)
    scale = lams ** (2 / 3) * abs(u)
    if u == 0:
        regime, expected, tol, mode = "near-cone", 1 / 3, 0.04, "match"
    elif u > 0 and np.min(scale) >= 10.0:
        regime, expected, tol, mode = "off-cone", 0.5, 0.05, "match"
        lams = _coherent_grid(lams, _stationary_gap(u))
    elif u < 0 and np.min(scale) >= 2.0:
        regime, expected, tol, mode = "no-critical-point", 2.0, 0.0, "at_least"
    elif np.max(scale) <= 0.5:
        regime, expected, tol, mode = "near-cone", 1 / 3, 0.04, "match"
    else:
        regime, expected, tol, mode = "straddling", None, 0.0, "match"

    lams = _check_grid(lams)

    def phase(t):
        return t ** 3 - u * t

    mags = np.abs(oscillatory_integral_1d(phase, smooth_plateau, -1.0, 1.0,
                                          lams))
    fit = _make_fit(f"1.0*t^3 - {u}*t", lams, mags, expected,
                    tol, mode, residual_cap=0.02 if mode == "match" else 10.0)
    fit.meta["regime"] = regime
    if regime == "straddling":
        fit.verdict = "inconclusive"
    return fit


# ---------------------------------------------------------------------------
# surface-measure decay


def surface_decay_fit(phi: PuiseuxPoly,
                      direction: tuple = (0, 0, 1),
                      lams: np.ndarray | None = None) -> DecayFit:
    """Decay of the Fourier transform of the graph measure of ``phi`` over
    [-1/2, 1/2]^2 in a fixed direction, against the symbolic prediction 1/h
    with a tolerance of 0.07.

    The full phase is xi1*x1 + xi2*x2 + xi3*phi.  When xi3 != 0 the exponent
    stage (``critical_exponent``) runs once, so ``phi`` needs a critical
    point at the origin and integer exponents; its height h gives the
    expected exponent 1/h, and its adapted coordinates the sheared
    reduction.  At xi3 = 0 the phase is linear and the verdict inconclusive.
    Exact reductions are tried first: a phase depending on one variable only
    (possibly after the exponent stage's adapted shear, which is measure
    preserving) integrates the other variable into a smooth amplitude; a
    separable phase with the tensor cutoff factorizes.  Otherwise the direct
    2-D tree runs with a hard cell budget.  ``meta["reduction"]`` names the
    path taken (``pure_x2``, ``sheared``, ``separable`` or ``direct_2d``); a
    direct 2-D fit also carries ``meta["fallback"]``, why no reduction
    applied.  Every path integrates the whole grid from one cell tree at
    that tree's default cell threshold.
    """
    xi = tuple(Fraction(c) for c in direction)
    if all(c == 0 for c in xi):
        raise ValueError("zero direction")
    if lams is None:
        lams = lambda_grid(1e2, 1e5, 40)
    # no constant term: the exponent stage rejects one, and xi3 = 0 drops phi
    phase_poly = (PuiseuxPoly.monomial(xi[0], 1, 0)
                  + PuiseuxPoly.monomial(xi[1], 0, 1) + xi[2] * phi)
    desc = (f"graph of {render(phi)}, "
            f"xi=({direction[0]},{direction[1]},{direction[2]})")
    report = critical_exponent(phi) if xi[2] != 0 else None
    expected = None if report is None else 1.0 / float(report.h)
    # the exponent stage sheared the given coordinates, with no linear change
    # first; the shear is exact, so it takes xi3*phi to xi3*phi_a
    shear = None
    if (report is not None and xi[0] == xi[1] == 0
            and report.linear.transform == IDENTITY
            and report.coords is not None):
        shear = (xi[2] * report.coords.phi_a, report.coords.psi)

    lams = _check_grid(lams)
    half_width = 0.5
    meta, factors = _reduce_phase(phase_poly, shear, half_width)
    if factors is not None:
        mags = np.abs(math.prod(
            oscillatory_integral_1d(phase, amp, -hw, hw, lams)
            for phase, amp, hw in factors))
    else:
        # fallback: direct 2-D quadrature (moderate lam only)
        fphi = _poly_xy_eval(phase_poly)
        amp = lambda x, y: bump(x / half_width) * bump(y / half_width)
        box = (-half_width, half_width, -half_width, half_width)
        mags = np.abs(oscillatory_integral_2d(fphi, amp, box, lams))
    return _make_fit(desc, lams, mags, expected, 0.07, meta=meta)


def _poly_xy_eval(p: PuiseuxPoly) -> Callable:
    """Vectorized float evaluator ``f(x, y)``; one-variable uses pass 0.0 for
    the other variable (``0.0 ** 0 == 1.0``)."""
    terms = sorted((float(e1), int(e2), float(c))
                   for (e1, e2), c in p.terms.items())

    def f(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        acc = np.zeros(np.broadcast(x, y).shape)
        for e1, e2, c in terms:
            acc = acc + c * x ** e1 * y ** e2
        return acc

    return f


def _reduce_phase(phase_poly: PuiseuxPoly,
                  shear: Optional[tuple[PuiseuxPoly, PuiseuxPoly]],
                  hw: float) -> tuple[dict, Optional[list[tuple]]]:
    """Try to express |I(lam)| through 1-D oscillatory integrals.

    ``shear`` is the adapted ``(phase, psi)`` of the exponent stage, or None.
    Returns the path taken, as the fit's ``meta``, and the 1-D factors
    ``(phase, amp, half_width)`` whose integrals over
    [-half_width, half_width] multiply to I(lam) up to a unimodular factor;
    the factors are None when no exact reduction applies and the direct 2-D
    tree has to run.
    """
    # pure x2 already, or after swapping the variables?
    if not phase_poly.depends_on_x2():
        phase_poly = phase_poly.swap_variables()
    if not phase_poly.depends_on_x1():
        return ({"reduction": "pure_x2"},
                [_pure_x2_factor(phase_poly, None, hw)])
    # separable with tensor cutoff
    if all(e1 == 0 or e2 == 0 for (e1, e2) in phase_poly.support()):
        u_xy = _poly_xy_eval(PuiseuxPoly(
            {e: c for e, c in phase_poly.terms.items() if e[1] == 0}))
        v_xy = _poly_xy_eval(PuiseuxPoly(
            {e: c for e, c in phase_poly.terms.items() if e[1] != 0}))
        w = lambda x: bump(np.asarray(x) / hw)
        return {"reduction": "separable"}, [(lambda x: u_xy(x, 0.0), w, hw),
                                            (lambda y: v_xy(0.0, y), w, hw)]
    if shear is not None and not shear[0].depends_on_x1():
        return {"reduction": "sheared"}, [_pure_x2_factor(*shear, hw)]
    return {"reduction": "direct_2d", "fallback": "no_reduction"}, None


def _pure_x2_factor(pure: PuiseuxPoly, jet: Optional[PuiseuxPoly],
                    hw: float) -> tuple:
    """The factor of int exp(i lam P(y2)) * G(y2): G integrates the cutoff
    along y1 over the box sheared by ``jet`` (the shear has unit Jacobian)."""
    f_xy = _poly_xy_eval(pure)
    phase = lambda y: f_xy(0.0, y)
    if jet is None:
        mass = BUMP_MASS * hw
        return phase, lambda y: mass * bump(np.asarray(y) / hw), hw
    jf = _poly_xy_eval(jet)
    y1 = np.linspace(-hw, hw, 1025)
    psi_vals = jf(y1, 0.0)
    y_max = hw + float(np.max(np.abs(psi_vals)))
    grid = np.linspace(-y_max, y_max, 4097)
    w1 = bump(y1 / hw)
    # in blocks of 512 rows, so that no 4097 x 1025 array is built; each
    # row's sum is the same.  The block temporaries set glibc's dynamic mmap
    # threshold: at 256 rows (2 MB) the 1-D tree's 2 MB chunk arrays were
    # mapped afresh on every step, 4% slower; at 1024 rows (8 MB) the heap
    # kept up to 16 MB of freed memory, and the decay benchmark's peak RSS
    # fell in one of two modes, 75 or 80-82 MB, from run to run (58-64 MB at
    # 512 rows).
    gv = np.concatenate([
        _trapezoid(w1 * bump((rows[:, None] + psi_vals) / hw), y1, axis=1)
        for rows in np.split(grid, range(512, len(grid), 512))])
    return (phase, lambda y: np.interp(np.asarray(y, dtype=float), grid, gv),
            y_max)


def decay_catalogue(lams: np.ndarray | None = None) -> list[DecayFit]:
    """The shipped surface-decay checks, each against its own 1/h."""
    return [surface_decay_fit(parse_expression(text).poly, lams=lams)
            for text in ("(x2 - x1^2)^2", "(x2 - x1^2)^5", "x1^2 + x2^2")]


# ---------------------------------------------------------------------------
# oscillatory sum bounds


@dataclass(frozen=True)
class BumpSpec:
    """Tensor product of scaled, shifted cos^4 bumps; norms in closed form."""

    centers: tuple[float, ...]
    scales: tuple[float, ...]

    def c1_norm(self) -> float:
        return max(1.0, max(BUMP_D1 / s for s in self.scales))

    def c2_norm(self) -> float:
        return max([self.c1_norm()] + [
            (BUMP_D2 if si == sj else BUMP_D1 * BUMP_D1) / (si * sj)
            for i, si in enumerate(self.scales) for sj in self.scales[i:]])


@dataclass(frozen=True)
class SumBoundTrial:
    kind: str                            # "single" | "double"
    alphas: tuple[Fraction, ...]
    betas: tuple[tuple[Fraction, ...], ...]
    log2_a: tuple[float, ...]            # log2 |a_k|
    sign_a: tuple[float, ...]
    r_vals: tuple[float, ...]
    bump_spec: Optional[BumpSpec]        # None means H == 1


def _norm_of(trial: SumBoundTrial) -> float:
    spec = trial.bump_spec
    return 1.0 if spec is None else (
        spec.c1_norm() if trial.kind == "single" else spec.c2_norm())


def _denominator_single(alpha: float, t: np.ndarray) -> np.ndarray:
    return np.abs(np.exp(1j * LN2 * alpha * t) - 1.0)


def _rho_double(trial: SumBoundTrial,
                t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The resonance denominator, over the harmonics nu = 1..6 of each
    frequency, and its smallest single factor: zeros of the denominator are
    avoided factor by factor, not just in the product.  Harmonic nu is the
    nu-th power of the first, one exp per frequency."""
    a1, a2 = float(trial.alphas[0]), float(trial.alphas[1])
    freqs = [a1, a2] + [a1 * float(b2) - a2 * float(b1)
                        for b1, b2 in trial.betas]
    prod = np.ones_like(t, dtype=float)
    low = np.full_like(t, np.inf, dtype=float)
    first = np.exp(1j * np.outer(LN2 * np.array(freqs), t))
    harmonic = first
    for nu in range(1, 7):
        for factor in np.abs(harmonic - 1.0):
            prod = prod * factor
            low = np.minimum(low, factor)
        harmonic = harmonic * first
    return prod, low


def _factor(trial: SumBoundTrial, k: int, e: np.ndarray) -> np.ndarray:
    """The k-th coordinate's factor of (H chi_Q) at log2 magnitudes ``e``."""
    inside = e <= math.log2(trial.r_vals[k])
    if trial.bump_spec is None:
        return inside.astype(float)
    y = trial.sign_a[k] * np.exp2(np.minimum(e, 64.0))
    c, s = trial.bump_spec.centers[k], trial.bump_spec.scales[k]
    return np.where(inside, bump((y - c) / s), 0.0)


#: margin in e by which a flat run stays inside the region where its factor
#: is constant; it covers the rounding of e and of 2^e many times over
_FLAT_SLACK = 2.0 ** -10


def _flat_end(trial: SumBoundTrial, k: int) -> tuple[float, float]:
    """(e, v): the k-th factor is v at every e' <= e, bit for bit.  This
    holds where e' <= log2 r_k and, with a bump, 2^e' is below a quarter ulp
    of its center c: there y - c rounds to -c, so the factor is
    bump(-c / s)."""
    e = math.log2(trial.r_vals[k])
    if trial.bump_spec is not None:
        e = min(e, math.log2(math.ulp(trial.bump_spec.centers[k])) - 2)
    e -= _FLAT_SLACK
    return e, float(_factor(trial, k, np.array([e]))[0])


def _window(trial: SumBoundTrial, k: int, b1: float, b2: float, la: float,
            n, e_min: float = -math.inf) -> tuple:
    """The x interval, one index wider at each end, off which the k-th
    factor at e = b1 n + b2 x + la is 0 or e <= e_min (+-inf for no end):
    it is 0 unless e <= log2 r_k and c' - s < 2^min(e, 64) < c' + s,
    c' = sign_k c_k."""
    e_lo, e_hi = e_min, math.log2(trial.r_vals[k])
    if trial.bump_spec is not None:
        spec = trial.bump_spec
        c, s = trial.sign_a[k] * spec.centers[k], spec.scales[k]
        e_lo = max(e_lo, math.log2(c - s)) if c - s > 0 else e_lo
        e_hi = (-math.inf if c + s <= 0 else e_hi if c + s >= 2.0 ** 64
                else min(e_hi, math.log2(c + s)))
    ends = [(e - la - b1 * n) / b2 for e in (e_lo, e_hi)]
    return np.floor(np.minimum(*ends)) - 1, np.ceil(np.maximum(*ends)) + 1


def _axis_lines(trial: SumBoundTrial, top: int) -> list[tuple]:
    """(b1, b2, log2|a_k|, line, flat) of each coordinate k: flat is
    ``_flat_end(trial, k)``, and line is None if b2 != 0, else the factor on
    [0, top] of m1 (b2 * m2 = 0.0 adds nothing), with the bytes of
    ``_factor`` but evaluated only on the ``_window`` above the flat end;
    past the window's flat side it is flat's constant, which is 0 if the
    window has a lower end (then |c'| > s)."""
    lines = []
    for k, (b, la) in enumerate(zip(trial.betas, trial.log2_a)):
        b1, b2 = float(b[0]), float(b[1]) if len(b) > 1 else 0.0
        flat, line = _flat_end(trial, k), None
        if not b2:
            lo, hi = (_window(trial, k, 0.0, b1, la, 0.0, flat[0]) if b1
                      else (0, top))
            lo, hi = int(min(max(lo, 0), top + 1)), int(max(min(hi, top), -1))
            line = np.zeros(top + 1)
            line[slice(lo) if b1 > 0 else slice(hi + 1, None)] = flat[1]
            line[lo:hi + 1] = _factor(trial, k, b1 * np.arange(lo, hi + 1.0)
                                      + la)
        lines.append((b1, b2, la, line, flat))
    return lines


#: index-grid cells evaluated together in one step of the sum sweep
_SWEEP_CELLS = 2 ** 16


def _live_polygon(trial: SumBoundTrial, top: int, lines: list[tuple]):
    """The top level's live polygon as arrays ``(m1, lo, hi, a, b, value)``
    over its live rows, where no ``_axis_lines`` entry is 0: [lo, hi] is
    [0, top] ({0} in a single trial) cut to each b2 != 0 factor's
    ``_window``, and in [a, b], below each such factor's ``_flat_end``,
    every cell holds ``value``, the constants' product in coordinate order."""
    rows = np.arange(top + 1)
    for _, b2, _, line, _ in lines:
        rows = rows if b2 else rows[line[rows] != 0]
    n = rows.astype(float)
    lo, a, value = np.zeros(len(n)), np.zeros(len(n)), np.ones(len(n))
    hi = b = np.full(len(n), float(top if trial.kind == "double" else 0))
    for k, (b1, b2, la, line, (end, v)) in enumerate(lines):
        if b2:
            ends = _window(trial, k, b1, b2, la, n)
            lo, hi = np.maximum(lo, ends[0]), np.minimum(hi, ends[1])
            edge = (end - la - b1 * n) / b2
            a = np.maximum(a, np.ceil(edge)) if b2 < 0 else a
            b = np.minimum(b, np.floor(edge)) if b2 > 0 else b
        value = value * (v if b2 else line[rows])
    live = hi >= lo
    return (*(x[live].astype(np.int64) for x in (
        rows, lo, hi, np.maximum(a, lo), np.minimum(b, hi))), value[live])


def _level_cells(trial: SumBoundTrial, lines: list[tuple], polygon: tuple,
                 m: int):
    """Level m's nonzero cells, bit for bit while the rounding of the m2
    ends stays below one index (so for |b2| >> 1e-10; criterion 9 has
    |b2| >= 1/6), as ``(runs, cells)``: the rows m1 <= m of a top >= m
    ``_live_polygon``, clipped to m2 <= m, give the runs ``(m1, a, b,
    value)`` of nonzero value and the ``_off_run_cells``."""
    j = np.searchsorted(polygon[0], m, "right")
    rows, lo, hi, a, b, value = (x[:j] for x in polygon)
    hi, b = np.minimum(hi, m), np.minimum(b, m)
    keep = (b >= a) & (value != 0)
    return (tuple(x[keep] for x in (rows, a, b, value)),
            _off_run_cells(trial, lines, rows, lo, hi, a, b))


def _off_run_cells(trial: SumBoundTrial, lines: list[tuple], rows, lo, hi,
                   a, b):
    """Yield ``(m1, m2, values)`` of the nonzero cells of each row's window
    [lo, hi] (none if hi < lo) off its run [a, b] (none if b < a): at most
    two segments per row, row-major, in chunks of whole segments of about
    ``_SWEEP_CELLS`` cells.  The window's one-index margin keeps the
    ``!= 0`` filter here (cos^4 can underflow)."""
    a = np.minimum(a, hi + 1).astype(np.int64)     # the left one is [lo, a)
    b = np.maximum(b + 1, a).astype(np.int64)      # the right one [b, hi]
    if np.array_equal(a, lo) and np.array_equal(b, hi + 1):
        return
    starts = np.stack([lo, b], axis=1).ravel()
    count = np.stack([a - lo, hi + 1 - b], axis=1).ravel()
    segs = np.flatnonzero(count > 0)
    rows, starts, count = rows[segs // 2], starts[segs], count[segs]
    cuts = np.searchsorted(np.cumsum(count), np.arange(
        _SWEEP_CELLS, count.sum(), _SWEEP_CELLS), "right")
    bounds = np.unique([0, *cuts, len(rows)])
    for i, j in zip(bounds[:-1], bounds[1:]):
        n = count[i:j]
        m1 = np.repeat(rows[i:j], n)
        m2 = np.arange(len(m1)) + np.repeat(starts[i:j] + n - np.cumsum(n), n)
        vals = 1.0
        for k, (b1, b2, la, line, _) in enumerate(lines):
            vals = vals * (line[m1] if b2 == 0 else
                           _factor(trial, k, b1 * m1.astype(float)
                                   + b2 * m2.astype(float) + la))
        live = np.flatnonzero(vals != 0)
        yield m1[live], m2[live], vals[live]


def _powers(angle: np.ndarray, n: int) -> np.ndarray:
    """exp(i j angle) for j < n as an n x T complex array, from one exp by
    doubling: the powers in [k, 2k) are those in [0, k) times z^k, and z^k
    is squared.  Entry j carries O(j) ulp of rounding; a direct exp carries
    about as much from rounding j * angle, and T n exps cost several times
    more."""
    table = np.empty((n, len(angle)), np.complex128)
    table[0] = 1.0
    k, step = 1, np.exp(1j * angle)
    while k < n:
        np.multiply(table[:min(k, n - k)], step, out=table[k:2 * k])
        step = step * step
        k *= 2
    return table


def _phase_tables(angle: np.ndarray, span: int) -> tuple[np.ndarray,
                                                         np.ndarray]:
    """The tables of ``_lattice_sup`` for live spans of up to ``span``
    buckets, z = exp(i angle): with C = ceil(sqrt(span)) columns, z^c for
    c < C as a C x 2T real table (cos and sin of each t side by side, which
    is the complex C x T table's memory), and the block phases z^(bC) for
    b < ceil(span / C) as a B x T complex table."""
    cols = math.isqrt(span - 1) + 1
    return (_powers(angle, cols).view(np.float64),
            _powers(cols * angle, -(-span // cols)))


def _lattice_sup(w: np.ndarray, tables: Optional[tuple],
                 denom: np.ndarray) -> float:
    """Sup proxy over the t sample of |F(t)| * denom, with
    F(t) = sum_j w_j z^(j + offset), z = 2^(i step t), for the live span
    ``w`` of a level's buckets and an integer offset, which leaves |F| as
    it is.  It is the mean of the top 8 values, not the single maximum: the
    integrand is quasi-periodic in t, and a lone extreme draw would make the
    level-to-level trend comparison needlessly noisy.

    ``tables`` are ``_phase_tables`` for at least K = len(w) buckets (None
    if w is empty).  With their C columns, j = b C + c splits F into
    B = ceil(K / C) blocks: one real matmul of the B x C blocks of w with
    the C x 2T table of z^c, then a sum over b against the first B block
    phases z^(bC) (a small non-uniform DFT; Dutt, Rokhlin, SIAM J. Sci.
    Comput. 1993)."""
    if not len(w) or not len(denom):
        return 0.0
    powers, block_phases = tables
    cols = len(powers)
    blocks = np.zeros((-(-len(w) // cols), cols))
    blocks.flat[:len(w)] = w
    inner = (blocks @ powers).view(np.complex128)
    vals = np.abs(np.einsum("bt,bt->t", inner,
                            block_phases[:len(blocks)])) * denom
    k = min(8, len(vals))
    return float(np.mean(np.partition(vals, -k)[-k:]))


def _run_sums(runs: tuple, p1: int, p2: int, offset: int,
              size: int) -> np.ndarray:
    """Bucket sums of ``_level_cells``' runs: run (m1, lo, hi, v) adds v at
    p1 m1 + p2 m2 - offset for m2 in [lo, hi], every |p2|-th bucket from its
    lowest.  It goes in as +v there and -v one stride past its highest on a
    difference array, then one cumsum per residue class mod |p2|; buckets no
    run covers (an exact integer count) are set to 0, so the cumsum's
    rounding does not widen the live span.  With p2 = 0 (a single trial's
    runs are one cell each) a run's cells share one bucket."""
    m1, lo, hi, v = runs
    if not len(v):
        return np.zeros(size)
    start = p1 * m1 + np.minimum(p2 * lo, p2 * hi) - offset
    stride = abs(p2)
    if stride == 0:
        return np.bincount(start, weights=v * (hi - lo + 1), minlength=size)
    marks = np.concatenate([start, start + stride * (hi - lo + 1)])
    length = -(-(size + stride) // stride) * stride

    def classes(weights):
        diff = np.bincount(marks, weights=np.concatenate([weights, -weights]),
                           minlength=length)
        return diff.reshape(-1, stride).cumsum(axis=0).ravel()[:size]

    return np.where(classes(np.ones(len(v))) > 0, classes(v), 0.0)


def _level_sups(trial: SumBoundTrial, levels: Sequence[int], ts: np.ndarray,
                denom: np.ndarray) -> list[float]:
    """The t-sweep sup proxy (``_lattice_sup``) of each level's sum of the
    masked bump coefficients over the index grid [0, m]^2 (second index 0 in
    a single trial), in buckets of frequency alpha . (m1, m2) in units of
    g / q, where alpha = (p1, p2) g / q with coprime p1, p2.  The polygon is
    built once per trial, each level is a clip of it, and the levels run
    from the top down, so the phase tables are built once, from the top
    level's live span, which holds every lower level's.  The sups agree with
    a direct sum, one exponential per grid cell, to 1e-9 relative at
    m <= 256."""
    a1, a2 = (*trial.alphas, Fraction(0))[:2]
    q = math.lcm(a1.denominator, a2.denominator)
    g = math.gcd(int(a1 * q), int(a2 * q)) or 1
    p1, p2 = int(a1 * q) // g, int(a2 * q) // g
    lines = _axis_lines(trial, max(levels))
    polygon = _live_polygon(trial, max(levels), lines)
    angle = LN2 * (g / q) * ts
    capacity, tables, sups = 0, None, {}
    for m in sorted(set(levels), reverse=True):
        offset = min(0, p1 * m) + min(0, p2 * m)
        size = abs(p1) * m + abs(p2) * m + 1
        runs, cells = _level_cells(trial, lines, polygon, m)
        w = _run_sums(runs, p1, p2, offset, size)
        for m1, m2, vals in cells:
            w += np.bincount(p1 * m1 + p2 * m2 - offset, weights=vals,
                             minlength=size)
        live = np.flatnonzero(w)
        w = w[live[0]:live[-1] + 1] if live.size else w[:0]
        if len(w) > capacity:
            # the top level; a lower level's span is longer only if a
            # run's end rounded to 0 in the top level's difference array
            tables = _phase_tables(angle, len(w))
            capacity = len(tables[0]) * len(tables[1])
        sups[m] = _lattice_sup(w, tables, denom)
    return [sups[m] for m in levels]


#: t kept per trial; the sample draws 8 blocks of this many
_T_COUNT = 512


def _t_sample(trial: SumBoundTrial, seed: int) -> tuple:
    """(t, denominator) of the first ``_T_COUNT`` seeded draws of t whose
    denominator (each ``_rho_double`` factor for a double) is >= 0.1,
    evaluated block by block, in draw order, until enough pass; each value
    is elementwise, so a block has the bytes of the whole draw."""
    draws = np.random.default_rng(seed).uniform(0.11, 6.4, size=8 * _T_COUNT)
    kept = []
    for block in np.split(draws, 8):
        denom, low = ((_denominator_single(float(trial.alphas[0]), block),) * 2
                      if trial.kind == "single" else _rho_double(trial, block))
        kept.append((block[low >= 0.1], denom[low >= 0.1]))
        if sum(len(t) for t, _ in kept) >= _T_COUNT:
            break
    return tuple(np.concatenate(part)[:_T_COUNT] for part in zip(*kept))


@dataclass
class SumBoundResult:
    sup_ratios: list[float]
    running_sup: list[float]
    max_growth: float          # worst step of the running sup across doublings


def oscillatory_sum_bound(trial: SumBoundTrial,
                          levels: Sequence[int] | None = None,
                          seed: int = 0) -> SumBoundResult:
    """Empirical boundedness of |F(t)| * |denominator| / ||H|| across sizes.

    ``levels`` is a nonempty sequence of integers m >= 0, the grids
    [0, m]^2.  ``t`` is a sample of 512 points away from zeros of the
    denominator (|denominator| >= 0.1), drawn in blocks of 512 until 512
    pass (``_t_sample``).  The boundedness statistic is the running sup of
    the per-level ratios, which must have converged by the middle of the
    doubling ladder: the reported growth compares its final value to the
    midpoint value.
    """
    if levels is None:
        levels = [2 ** k for k in range(6, 15 if trial.kind == "single" else 13)]
    if not len(levels) or not all(isinstance(m, (int, np.integer)) and m >= 0
                                  for m in levels):
        raise ValueError(f"levels must be a nonempty sequence of integers "
                         f">= 0, got {levels!r}")
    a1, a2 = (*trial.alphas, 0)[:2]
    if trial.kind == "double" and any(a1 * b2 == a2 * b1
                                      for b1, b2 in trial.betas):
        raise ValueError("direction vector parallel to the alphas "
                         "(independence condition fails)")
    ts, denom = _t_sample(trial, seed)
    if len(ts) < max(8, _T_COUNT // 8):
        raise ValueError("could not sample enough t away from denominator zeros")
    norm = _norm_of(trial)
    ratios = [sup / norm for sup in _level_sups(trial, levels, ts, denom)]
    running = list(itertools.accumulate(ratios, max))
    mid = (len(running) - 1) // 2
    growth = (running[-1] / running[mid]) if running[mid] > 1e-12 else (
        1.0 if running[-1] <= 1e-12 else math.inf)
    return SumBoundResult(ratios, running, growth)


SECTION_8_1_BETAS: tuple[tuple[Fraction, Fraction], ...] = (
    (Fraction(0), Fraction(1)),
    (Fraction(1), Fraction(0)),
    (Fraction(1, 3), Fraction(-1, 6)),
    (Fraction(-1), Fraction(0)),
    (Fraction(0), Fraction(-1, 3)),
    (Fraction(2), Fraction(-1)),
    (Fraction(-1), Fraction(1)),
    (Fraction(-1), Fraction(0)),
)


def _anchored_amplitudes(rng, betas, spec: "BumpSpec", kind: str,
                         anchor_cap: int) -> tuple[tuple[float, ...],
                                                   tuple[float, ...]]:
    """log2|a_k| and signs placing every coordinate inside its bump window at
    a common small anchor index, so the sum is non-vacuous from the first
    level and its window then drifts with the index ladder."""
    anchor = [float(rng.integers(0, anchor_cap + 1))
              for _ in range(1 if kind == "single" else 2)]
    log2a, signs = [], []
    for b, c, s in zip(betas, spec.centers, spec.scales):
        y = c + float(rng.uniform(-0.8, 0.8)) * s
        if abs(y) < 0.05:
            y = 0.05 if y >= 0 else -0.05
        drift = sum(float(bi) * ai for bi, ai in zip(b, anchor))
        log2a.append(float(np.clip(math.log2(abs(y)) - drift, -900, 900)))
        signs.append(1.0 if y > 0 else -1.0)
    return tuple(log2a), tuple(signs)


def _random_bumps(rng, n: int) -> BumpSpec:
    centers = []
    for _ in range(n):
        if rng.uniform() < 0.25:
            centers.append(float(rng.uniform(0.6, 1.1) * rng.choice([-1, 1])))
        else:
            centers.append(float(rng.uniform(-0.45, 0.45)))
    return BumpSpec(tuple(centers), tuple(rng.uniform(0.5, 1.3, n)))


def reference_double_trial() -> SumBoundTrial:
    """The double-sum trial with the published eight direction vectors and
    alpha = (-7/6, -7/6)."""
    rng = np.random.default_rng(7)
    n = len(SECTION_8_1_BETAS)
    r_vals = tuple([2.0] * n)
    spec = BumpSpec(tuple(rng.uniform(-0.3, 0.3, n)),
                    tuple(rng.uniform(0.8, 1.3, n)))
    log2a, signs = _anchored_amplitudes(rng, SECTION_8_1_BETAS, spec,
                                        "double", 180)
    return SumBoundTrial("double", (Fraction(-7, 6), Fraction(-7, 6)),
                         SECTION_8_1_BETAS, log2a, signs, r_vals, spec)


def _random_fraction(rng, num_cap=7, den_cap=6, nonzero=True) -> Fraction:
    while True:
        f = Fraction(int(rng.integers(-num_cap, num_cap + 1)),
                     int(rng.integers(1, den_cap + 1)))
        if f or not nonzero:
            return f


def random_single_trial(seed: int) -> SumBoundTrial:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    alpha = _random_fraction(rng)
    betas = tuple((_random_fraction(rng),) for _ in range(n))
    r_vals = tuple(rng.uniform(1.0, 2.5, n))
    spec = _random_bumps(rng, n)
    log2a, signs = _anchored_amplitudes(rng, betas, spec, "single", 400)
    return SumBoundTrial("single", (alpha,), betas, log2a, signs, r_vals, spec)


def random_double_trial(seed: int) -> SumBoundTrial:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    while True:
        a1, a2 = _random_fraction(rng), _random_fraction(rng)
        betas = []
        for _ in range(n):
            b1 = _random_fraction(rng, nonzero=False)
            b2 = _random_fraction(rng, nonzero=False)
            if a1 * b2 - a2 * b1 == 0 or (b1 == 0 and b2 == 0):
                break
            betas.append((b1, b2))
        else:
            break
    r_vals = tuple(rng.uniform(1.0, 2.5, n))
    spec = _random_bumps(rng, n)
    log2a, signs = _anchored_amplitudes(rng, betas, spec, "double", 180)
    return SumBoundTrial("double", (a1, a2), tuple(betas), log2a, signs,
                         r_vals, spec)


# ---------------------------------------------------------------------------
# dominance and Knapp-box probes


def dominance_probe(phi: PuiseuxPoly, vertex: tuple, m_sep: int,
                    delta: float,
                    horizontal_a: Fraction | None = None) -> float:
    """Max relative error of the single-vertex approximation on the
    transition region between two edge scalings (or under one, in the
    horizontal variant), sampled at 7 values of y1 and 9 of y2.

    The region between the edges of ratios a_low < a_high on either side of
    the vertex forces y1 < 2^(-2 m_sep / (a_high - a_low)), so the sampled
    error decays like 2^(-m_sep) with no floor from the y1 cutoff.
    """
    av, bv = Fraction(vertex[0]), int(vertex[1])
    cv = phi.coefficient(av, bv)
    if not cv:
        raise ValueError("vertex carries no coefficient")
    n_y1, n_y2 = 7, 9
    if horizontal_a is None:
        a_low, a_high = _neighbor_ratios(phi, (av, Fraction(bv)))
        gap = a_high - a_low
        y1_cap = min(delta, 2.0 ** (-2.0 * m_sep / float(gap)))
        if y1_cap < 1e-200:
            raise ValueError("empty sample region (delta, M incompatible)")
        y1s = y1_cap * 2.0 ** (-(np.arange(n_y1, dtype=float) + 1.0))
        lo_exp, hi_exp = float(a_high), float(a_low)
        lo_fac, hi_fac = 2.0 ** m_sep, 2.0 ** (-m_sep)
    else:
        y1_cap = delta / 2.0
        y1s = y1_cap * 2.0 ** (-(np.arange(n_y1, dtype=float)))
        lo_exp = hi_exp = float(horizontal_a)
        lo_fac, hi_fac = 2.0 ** (-m_sep - 8), 2.0 ** (-m_sep)
    worst = 0.0
    terms = [(float(e1 - av), e2 - bv, float(c / cv))
             for (e1, e2), c in phi.terms.items() if (e1, e2) != (av, bv)]
    windows = [(y1, lo_fac * y1 ** lo_exp, hi_fac * y1 ** hi_exp)
               for y1 in y1s]
    # skip empty windows and those whose lower end underflowed to 0
    windows = [w for w in windows if 0.0 < w[1] < w[2]]
    if not windows:
        raise ValueError("empty sample region (every y2 window underflows)")
    for y1, lo, hi in windows:
        y2m = np.geomspace(lo, hi, n_y2)
        for sgn in (1.0, -1.0):
            l1 = math.log(y1)
            l2 = np.log(y2m)
            err = np.zeros_like(y2m)
            for de1, de2, ratio in terms:
                mag = np.exp(de1 * l1 + de2 * l2)
                err = err + ratio * (sgn ** de2) * mag
            worst = max(worst, float(np.max(np.abs(err))))
    return worst


def _neighbor_ratios(phi: PuiseuxPoly, vertex) -> tuple[Fraction, Fraction]:
    n = NewtonPolyhedron.of(phi)
    idx = n.vertices.index(vertex)
    if idx == 0 or idx == len(n.vertices) - 1:
        raise ValueError("vertex needs compact edges on both sides")
    return n.edges[idx - 1].a, n.edges[idx].a


def knapp_box_probe(phi: PuiseuxPoly, cert) -> dict:
    """Scaling of sup |phi| over the certificate's boxes eps = 2^-k,
    k = 16, 24, ..., 120, each sampled on a 33 x 33 grid: fits C * eps^beta
    and reports the smallest sup/eps ratio (non-vanishing witness).

    The polynomial is evaluated in the sheared frame (the shear is performed
    exactly first), since expanding around x2 = f(x1) in floating point would
    cancel catastrophically on deep boxes.  The default ladder reaches deep
    enough that the inhomogeneous corrections (as slow as eps^(1/12) on the
    shipped examples) drop below the fitted-slope tolerance.
    """
    sheared = phi.shear_substitute(cert.f) if cert.f else phi
    k1 = cert.delta if cert.target == "horizontal" else cert.box_exponents[0]
    k2 = cert.box_exponents[1]
    grid = 33
    if sheared.ramification > 1:
        y1s = np.linspace(1e-6, 1.0, grid)
    else:
        y1s = np.linspace(-1.0, 1.0, grid)
    y2s = np.linspace(-1.0, 1.0, grid)
    eps = np.asarray([2.0 ** (-k) for k in range(16, 121, 8)], dtype=float)
    sups = []
    fsh = _poly_xy_eval(sheared)
    for e in eps:
        x1 = y1s * e ** float(k1)
        u = (e ** float(k2)) * y2s[None, :]
        vals = np.abs(fsh(x1[:, None] * np.ones_like(u), u))
        sups.append(float(vals.max()))
    beta, resid = log_log_fit(1.0 / eps, sups)
    ratios = [s / e for s, e in zip(sups, eps)]
    return {"beta": beta, "residual": resid, "sups": sups,
            "eps": list(map(float, eps)), "min_ratio": min(ratios),
            "max_ratio": max(ratios)}
