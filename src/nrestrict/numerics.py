"""Floating-point verification of decay laws and sum bounds at desk scale.

Quadrature strategy: one cell tree serves 1-D and 2-D integrals.  It
subdivides the box dyadically until the phase varies by less than a fixed
budget per cell, then applies fixed-order tensor Gauss-Legendre per cell; no
Filon/Levin machinery.  A decay fit builds one tree per frequency ladder
(``lam`` may be an array): the tree is refined as for the largest |lam|, and a
cell counts toward each lam exactly when a run at that lam alone would
integrate it, that is when its own probed variation is fine at lam and the
smallest variation among its strict ancestors is not.  The two-variable
surface probe first tries exact symbolic reductions (pure-x2 phase after the
adapted shear, or a separable phase with the tensor cutoff); the direct 2-D
tree is kept as a fallback for moderate frequencies and raises once its cell
budget is exceeded.  Each surface fit records the path it took in ``meta``.

Sum strategy: one sweep serves single and double oscillatory sums.  It
buckets the coefficients by integerized frequency, a single sum being the
double sum with its second index fixed at 0, then sweeps the t sample.

All randomized trials take explicit seeds and reduce in fixed index order, so
results are reproducible run to run.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import AlgebraicRootHalt, QuadratureError
from .geometry import NewtonPolyhedron
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

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl(order: int) -> tuple[np.ndarray, np.ndarray]:
    if order not in _GL_CACHE:
        _GL_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _GL_CACHE[order]


#: cells evaluated together in one step of the cell tree
_CELL_CHUNK = 8192


def oscillatory_integral_1d(phase: Callable, amp: Callable,
                            lo: float, hi: float,
                            lam: float | Sequence[float],
                            tau: float = math.pi, gl_order: int = 16,
                            max_cells: int = 4_000_000) -> complex | np.ndarray:
    """integral of exp(i*lam*phase(s)) * amp(s) over [lo, hi].

    Cells are bisected until the phase, probed at 7 points, varies by at
    most ``tau / |lam|``, then integrated with fixed-order Gauss-Legendre.
    ``phase`` and ``amp`` must accept numpy arrays.  A scalar ``lam`` gives a
    complex; a 1-D sequence of frequencies (any order, repeats allowed) gives
    an array with one integral per frequency, all read off one cell tree
    (see ``_cell_tree``) and each equal to its own scalar call up to the
    order of summation.
    """
    return _cell_tree(phase, amp, (lo, hi), lam, tau, gl_order, max_cells, 7)


def oscillatory_integral_2d(phase: Callable, amp: Callable,
                            box: tuple[float, float, float, float],
                            lam: float | Sequence[float],
                            tau: float = 2 * math.pi, gl_order: int = 8,
                            max_cells: int = 400_000) -> complex | np.ndarray:
    """Direct 2-D analogue of the 1-D rule over ``box = (x0, x1, y0, y1)``:
    quadtree refinement with a 4x4 phase probe per cell.  ``lam`` is a
    scalar or a 1-D sequence, as in ``oscillatory_integral_1d``.

    Cost grows like lam^2, so this is the fallback path for moderate
    frequencies only; the cell budget guards against runaway refinement.
    """
    return _cell_tree(phase, amp, box, lam, tau, gl_order, max_cells, 4)


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
    level is processed in chunks of ``_CELL_CHUNK`` cells, so the per-node
    arrays stay small however many cells it holds.
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
        for start in range(0, len(cells), _CELL_CHUNK):
            chunk = cells[start:start + _CELL_CHUNK]
            chunk_anc = anc[start:start + _CELL_CHUNK]
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
    return np.geomspace(lo, hi, points)


def log_log_fit(lams: Sequence[float], mags: Sequence[float],
                top_fraction: float = 0.5) -> tuple[float, float]:
    """Least-squares slope of log|I| against log(lam) on the top of the grid.

    Returns (fitted decay exponent, rms residual in log10); the exponent is
    the negated slope.
    """
    lams = np.asarray(lams, dtype=float)
    mags = np.asarray(mags, dtype=float)
    k = max(3, int(round(len(lams) * top_fraction)))
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
    """The frequency grid as floats, once it is known to be strictly
    increasing over at least two decades; every fit checks its grid with
    this before it integrates anything."""
    lams = np.asarray(lams, dtype=float)
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
                       interval: tuple[float, float] = (0.0, 1.0),
                       amp: Callable | None = None,
                       lams: np.ndarray | None = None,
                       expected: float | None = None,
                       tolerance: float = 0.05,
                       tau: float = math.pi) -> DecayFit:
    """Fit the decay of ``int exp(i lam f) g`` for a polynomial phase with
    an order-m derivative bound.

    Checks ``|f^(m)| >= 1`` on the interval by dense sampling before
    integrating; the model phases s^m (normalized so f^(m) = m!) decay like
    lam^(-1/m) with the stationary point at the endpoint.
    """
    if m < 1:
        raise ValueError("derivative order must be >= 1")
    lo, hi = interval
    f = PuiseuxPoly({(i, 0): Fraction(c) for i, c in enumerate(phase_coeffs)})
    dm = _poly_xy_eval(f.partial_derivative(1, m))
    samples = np.linspace(lo, hi, 4097)
    if np.min(np.abs(dm(samples, 0.0))) < 1.0 - 1e-9:
        raise ValueError(f"|f^({m})| >= 1 fails on the interval")
    f_xy = _poly_xy_eval(f)
    phase = lambda x: f_xy(x, 0.0)
    if amp is None:
        amp = lambda x: np.ones_like(np.asarray(x, dtype=float))
    if lams is None:
        lams = lambda_grid(1e2, 1e5, 40)
    lams = _check_grid(lams)
    if math.log10(lams[-1] / lams[0]) < 3 - 1e-9:
        raise ValueError("frequency grid must span at least three decades")
    mags = np.abs(oscillatory_integral_1d(phase, amp, lo, hi, lams, tau))
    if expected is None:
        expected = 1.0 / m
    return _make_fit(f"s^{m}-type phase, M={m}", lams, mags, expected, tolerance)


def smooth_plateau(z, flat: float = 0.5):
    """C-infinity cutoff: 1 on [-flat, flat], 0 outside [-1, 1]."""
    z = np.abs(np.asarray(z, dtype=float))
    out = np.zeros_like(z)
    out[z <= flat] = 1.0
    mid = (z > flat) & (z < 1.0)
    s = (z[mid] - flat) / (1.0 - flat)
    f0 = np.exp(-1.0 / np.maximum(s, 1e-9))
    f1 = np.exp(-1.0 / np.maximum(1.0 - s, 1e-9))
    out[mid] = f1 / (f0 + f1)
    return out


def _stationary_gap(u: float, b: float) -> float:
    """Phase gap between the two stationary points of b t^3 - u t (u*b > 0):
    their magnitudes beat in lam with this frequency."""
    t_star = math.sqrt(abs(u) / (3 * abs(b)))
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


def airy_scaling_check(u: float, b: float = 1.0, deg: int = 3,
                       lams: np.ndarray | None = None,
                       half_width: float = 1.0,
                       plateau: float = 0.5) -> DecayFit:
    """Scaling of ``int exp(i lam (b t^deg - u t)) * cutoff`` in the three
    regimes of lam^((deg-1)/deg) |u|.

    u = 0 fits the 1/deg law; u of the same sign as b fits 1/2 at
    beat-coherent frequencies (the two stationary values interfere, so the
    grid is snapped to constructive phases); opposite signs decay
    superpolynomially and only exponent >= 2 is asserted.  A grid straddling
    the regime boundary is integrated but reported inconclusive.
    """
    if lams is None:
        if u == 0:
            lams = lambda_grid(1e2, 1e5, 32)
        elif u * b > 0:
            lams = lambda_grid(1e2, 1e5, 32)
        else:
            lams = lambda_grid(10 ** 1.2, 10 ** 3.2, 24)
    lams = np.asarray(lams, dtype=float)
    scale = lams ** ((deg - 1) / deg) * abs(u)
    regime = None
    if u == 0:
        regime, expected, tol, mode = "near-cone", 1.0 / deg, 0.04, "match"
    elif u * b > 0 and np.min(scale) >= 10.0:
        regime, expected, tol, mode = "off-cone", 0.5, 0.05, "match"
        if deg == 3:
            lams = _coherent_grid(lams, _stationary_gap(u, b))
    elif u * b < 0 and np.min(scale) >= 2.0:
        regime, expected, tol, mode = "no-critical-point", 2.0, 0.0, "at_least"
    elif np.max(scale) <= 0.5:
        regime, expected, tol, mode = "near-cone", 1.0 / deg, 0.04, "match"
    else:
        regime, expected, tol, mode = "straddling", None, 0.0, "match"

    lams = _check_grid(lams)

    def phase(t):
        return b * t ** deg - u * t

    amp = lambda t: smooth_plateau(t / half_width, plateau)
    mags = np.abs(oscillatory_integral_1d(phase, amp, -half_width, half_width,
                                          lams, tau=math.pi))
    fit = _make_fit(f"{b}*t^{deg} - {u}*t", lams, mags, expected,
                    tol, mode, residual_cap=0.02 if mode == "match" else 10.0)
    fit.meta["regime"] = regime
    if regime == "straddling":
        fit.verdict = "inconclusive"
    return fit


def airy_prefactor_scan(us: Sequence[float], lam0: float = 3e4, b: float = 1.0,
                        half_width: float = 1.0, plateau: float = 0.5) -> float:
    """Slope of log(|J| sqrt(lam)) against log|u| in the off-cone regime.

    Each u is measured at its own constructive beat phase near lam0 and the
    stationary points must sit on the cutoff's plateau; the stationary-phase
    prediction for cubics is -(deg-2)/(2 deg - 2) = -1/4.
    """
    mags = []
    lam_used = []
    for u in us:
        t_star = math.sqrt(abs(u) / (3 * abs(b)))
        if t_star / half_width > plateau:
            raise ValueError("stationary point off the cutoff plateau")
        period = 2 * math.pi / _stationary_gap(u, b)
        lam = max(1, round(lam0 / period)) * period
        val = abs(oscillatory_integral_1d(
            lambda t: b * t ** 3 - u * t,
            lambda t: smooth_plateau(t / half_width, plateau),
            -half_width, half_width, lam, tau=math.pi))
        mags.append(val * math.sqrt(lam))
        lam_used.append(lam)
    coef = np.polyfit(np.log(np.abs(us)), np.log(mags), 1)
    return float(coef[0])


# ---------------------------------------------------------------------------
# surface-measure decay


def _drop_constant(p: PuiseuxPoly) -> PuiseuxPoly:
    c = p.coefficient(0, 0)
    return p - PuiseuxPoly.constant(c) if c else p


def surface_decay_fit(phi: PuiseuxPoly,
                      direction: tuple = (0, 0, 1),
                      half_width: float = 0.5,
                      lams: np.ndarray | None = None,
                      expected: float | None = None,
                      tolerance: float = 0.07,
                      tau: float = math.pi) -> DecayFit:
    """Decay of the Fourier transform of the graph measure of ``phi`` in a
    fixed direction, against the symbolic prediction 1/h.

    The full phase is xi1*x1 + xi2*x2 + xi3*phi.  Exact reductions are tried
    first: a phase depending on one variable only (possibly after shearing
    off the principal root jet, which is measure preserving) integrates the
    other variable into a smooth amplitude; a separable phase with the tensor
    cutoff factorizes.  Otherwise the direct 2-D tree runs with a hard cell
    budget.  ``meta["reduction"]`` names the path taken (``pure_x2``,
    ``sheared``, ``separable`` or ``direct_2d``); a direct 2-D fit also
    carries ``meta["fallback"]``, why no reduction applied.  Every path
    integrates the whole grid from one cell tree.
    """
    xi = tuple(Fraction(c) for c in direction)
    if all(c == 0 for c in xi):
        raise ValueError("zero direction")
    if lams is None:
        lams = lambda_grid(1e2, 1e5, 40)
    phase_poly = _drop_constant(
        PuiseuxPoly.monomial(xi[0], 1, 0) + PuiseuxPoly.monomial(xi[1], 0, 1)
        + xi[2] * phi)
    from .parser import render
    desc = (f"graph of {render(phi)}, "
            f"xi=({direction[0]},{direction[1]},{direction[2]})")
    if expected is None and xi[2] != 0:
        from .adapted import height
        expected = 1.0 / float(height(phi)[0])

    lams = _check_grid(lams)
    meta, reduced = _reduce_phase(phase_poly, half_width)
    if reduced is not None:
        mags = reduced(lams, tau)
    else:
        # fallback: direct 2-D quadrature (moderate lam only)
        fphi = _poly_xy_eval(phase_poly)
        amp = lambda x, y: bump(x / half_width) * bump(y / half_width)
        box = (-half_width, half_width, -half_width, half_width)
        mags = np.abs(oscillatory_integral_2d(fphi, amp, box, lams,
                                              tau=2 * tau))
    return _make_fit(desc, lams, mags, expected, tolerance, meta=meta)


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
                  hw: float) -> tuple[dict, Optional[Callable]]:
    """Try to express |I(lam)| through 1-D oscillatory integrals.

    Returns the path taken, as the fit's ``meta``, and a callable
    (lams, tau) -> magnitudes; the callable is None when no exact reduction
    applies and the direct 2-D tree has to run.
    """
    # pure x2 already, or after swapping the variables?
    if not phase_poly.depends_on_x2():
        phase_poly = phase_poly.swap_variables()
    if not phase_poly.depends_on_x1():
        return ({"reduction": "pure_x2"},
                _pure_x2_reduction(phase_poly, None, hw))
    # separable with tensor cutoff
    if all(e1 == 0 or e2 == 0 for (e1, e2) in phase_poly.support()):
        return ({"reduction": "separable"},
                _separable_reduction(phase_poly, hw))
    # shear off the principal root jet when it is an integer-exponent jet
    if phase_poly.ramification == 1:
        try:
            from .adapted import is_adapted
            from .splitting import adapted_coordinates
            verdict = is_adapted(phase_poly)
            if not verdict.adapted and verdict.weight is not None \
                    and verdict.weight.a.denominator == 1 and verdict.weight.a >= 2:
                ac = adapted_coordinates(phase_poly, verdict=verdict)
                if not ac.phi_a.depends_on_x1():
                    return {"reduction": "sheared"}, _pure_x2_reduction(
                        ac.phi_a, ac.psi.to_poly(), hw)
        except AlgebraicRootHalt:
            return {"reduction": "direct_2d",
                    "fallback": "algebraic_root_halt"}, None
    return {"reduction": "direct_2d", "fallback": "no_reduction"}, None


def _pure_x2_reduction(pure: PuiseuxPoly, jet: Optional[PuiseuxPoly],
                       hw: float) -> Callable:
    """Amplitude for int exp(i lam P(y2)) * G(y2): G integrates the cutoff
    along y1 over the sheared box (the shear has unit Jacobian)."""
    f_xy = _poly_xy_eval(pure)
    phase = lambda y: f_xy(0.0, y)
    if jet is None or not jet:
        mass = float(_trapezoid(bump(np.linspace(-1, 1, 2049)), dx=2 / 2048)) * hw

        def amp_plain(y):
            return mass * bump(np.asarray(y) / hw)

        g_fn = amp_plain
        y_max = hw
    else:
        jf = _poly_xy_eval(jet)
        y1 = np.linspace(-hw, hw, 1025)
        psi_vals = jf(np.abs(y1) if jet.ramification > 1 else y1, 0.0)
        pad = float(np.max(np.abs(psi_vals)))
        y_max = hw + pad
        grid = np.linspace(-y_max, y_max, 4097)
        w1 = bump(y1 / hw)
        gv = _trapezoid(w1[None, :] * bump((grid[:, None] + psi_vals[None, :]) / hw),
                      y1, axis=1)

        def amp_interp(y):
            return np.interp(np.asarray(y, dtype=float), grid, gv)

        g_fn = amp_interp

    def run(lams: np.ndarray, tau: float) -> np.ndarray:
        return np.abs(oscillatory_integral_1d(phase, g_fn, -y_max, y_max,
                                              lams, tau))

    return run


def _separable_reduction(phase_poly: PuiseuxPoly, hw: float) -> Callable:
    u = PuiseuxPoly({(e1, e2): c for (e1, e2), c in phase_poly.terms.items()
                     if e2 == 0})
    v = PuiseuxPoly({(e1, e2): c for (e1, e2), c in phase_poly.terms.items()
                     if e2 != 0})
    u_xy, v_xy = _poly_xy_eval(u), _poly_xy_eval(v)
    fu = lambda x: u_xy(x, 0.0)
    fv = lambda y: v_xy(0.0, y)
    w = lambda x: bump(np.asarray(x) / hw)

    def run(lams: np.ndarray, tau: float) -> np.ndarray:
        ix = oscillatory_integral_1d(fu, w, -hw, hw, lams, tau)
        iy = oscillatory_integral_1d(fv, w, -hw, hw, lams, tau)
        return np.abs(ix * iy)

    return run


def decay_catalogue(lams: np.ndarray | None = None,
                    tolerance: float = 0.07) -> list[DecayFit]:
    """The shipped surface-decay checks: expected exponents are 1/h."""
    from .parser import parse_expression
    entries = [
        ("(x2 - x1^2)^2", 0.5),
        ("(x2 - x1^2)^5", 0.2),
        ("x1^2 + x2^2", 1.0),
    ]
    out = []
    for text, expected in entries:
        phi = parse_expression(text).poly
        out.append(surface_decay_fit(phi, (0, 0, 1), lams=lams,
                                     expected=expected, tolerance=tolerance))
    return out


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
        n = self.c1_norm()
        for i, si in enumerate(self.scales):
            for sj in self.scales[i:]:
                n = max(n, (BUMP_D2 if si == sj else BUMP_D1 * BUMP_D1)
                        / (si * sj))
        return n

    def evaluate(self, args: np.ndarray) -> np.ndarray:
        """args shape (..., n) -> product bump values."""
        acc = np.ones(args.shape[:-1])
        for k, (c, s) in enumerate(zip(self.centers, self.scales)):
            acc = acc * bump((args[..., k] - c) / s)
        return acc


@dataclass(frozen=True)
class SumBoundTrial:
    kind: str                            # "single" | "double"
    alphas: tuple[Fraction, ...]
    betas: tuple[tuple[Fraction, ...], ...]
    log2_a: tuple[float, ...]            # log2 |a_k|
    sign_a: tuple[float, ...]
    r_vals: tuple[float, ...]
    bump_spec: Optional[BumpSpec]        # None means H == 1
    rho_depth: int = 6


def _norm_of(trial: SumBoundTrial) -> float:
    if trial.bump_spec is None:
        return 1.0
    return (trial.bump_spec.c1_norm() if trial.kind == "single"
            else trial.bump_spec.c2_norm())


def _denominator_single(alpha: float, t: np.ndarray) -> np.ndarray:
    return np.abs(np.exp(1j * LN2 * alpha * t) - 1.0)


def _rho_freqs(trial: SumBoundTrial) -> list[float]:
    a1, a2 = float(trial.alphas[0]), float(trial.alphas[1])
    freqs = [a1, a2]
    for (b1, b2) in trial.betas:
        freqs.append(a1 * float(b2) - a2 * float(b1))
    return freqs


def _rho_double(trial: SumBoundTrial,
                t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The resonance denominator and its smallest single factor: zeros of the
    denominator are avoided factor by factor, not just in the product."""
    prod = np.ones_like(t, dtype=float)
    low = np.full_like(t, np.inf, dtype=float)
    for nu in range(1, trial.rho_depth + 1):
        for f in _rho_freqs(trial):
            factor = np.abs(np.exp(1j * LN2 * f * nu * t) - 1.0)
            prod = prod * factor
            low = np.minimum(low, factor)
    return prod, low


def _masked_bump_values(trial: SumBoundTrial, exps: list[np.ndarray],
                        shape) -> np.ndarray:
    """(H chi_Q) at points with per-coordinate log2 magnitudes ``exps``."""
    mask = np.ones(shape, dtype=bool)
    for e, r in zip(exps, trial.r_vals):
        mask &= e <= math.log2(r)
    if trial.bump_spec is None:
        return mask.astype(float)
    vals = np.ones(shape)
    for e, sgn, (c, s) in zip(exps, trial.sign_a,
                              zip(trial.bump_spec.centers,
                                  trial.bump_spec.scales)):
        y = sgn * np.exp2(np.minimum(e, 64.0))
        vals = vals * bump((y - c) / s)
    return np.where(mask, vals, 0.0)


def _sup_over_t(freqs: np.ndarray, coeffs: np.ndarray, ts: np.ndarray,
                denom: np.ndarray, chunk: int = 256, top_k: int = 8) -> float:
    """Sup proxy over the t sample of |sum_j coeffs_j 2^(i freq_j t)| * denom.

    The mean of the top_k values is used instead of the single maximum: the
    integrand is quasi-periodic in t, and a lone extreme draw would make the
    level-to-level trend comparison needlessly noisy.
    """
    vals = np.empty(len(ts))
    for start in range(0, len(ts), chunk):
        phases = np.exp(1j * LN2 * np.outer(ts[start:start + chunk], freqs))
        vals[start:start + chunk] = np.abs(phases @ coeffs)
    vals *= denom
    k = min(top_k, len(vals))
    return float(np.mean(np.partition(vals, -k)[-k:])) if k else 0.0


#: index-grid cells bucketed together in one step of the sum sweep; a single
#: trial (one column) stays one vectorized pass up to m = 2^21 - 1
_SWEEP_CELLS = 2 ** 21


def _level_sups(trial: SumBoundTrial, levels: Sequence[int], ts: np.ndarray,
                denom: np.ndarray) -> list[float]:
    """The t-sweep sup proxy of each level's sum (see ``_sup_over_t``).

    Level m sums the masked bump coefficients over the index grid
    [0, m]^2; a single trial is the double sum with its second index fixed
    at 0 (alpha2 = beta2 = 0).  The coefficients are bucketed by their
    frequency alpha . (m1, m2) in units of g / q, where alpha = (p1, p2) g / q
    with coprime integers p1, p2; a single trial's buckets hold one index
    each.
    """
    a1, a2 = (*trial.alphas, Fraction(0))[:2]
    q = math.lcm(a1.denominator, a2.denominator)
    g = math.gcd(int(a1 * q), int(a2 * q)) or 1
    p1 = int(a1 * q) // g
    p2 = int(a2 * q) // g
    betas = [(float(b[0]), float(b[1]) if len(b) > 1 else 0.0, la)
             for b, la in zip(trial.betas, trial.log2_a)]
    sups = []
    for m in levels:
        offset = min(0, p1 * m) + min(0, p2 * m)
        size = abs(p1) * m + abs(p2) * m + 1
        m2 = np.arange(m + 1 if trial.kind == "double" else 1, dtype=float)
        rows = max(1, _SWEEP_CELLS // len(m2))
        w = 0.0
        for start in range(0, m + 1, rows):
            m1 = np.arange(start, min(start + rows, m + 1), dtype=float)[:, None]
            exps = [b1 * m1 + b2 * m2 + la for b1, b2, la in betas]
            vals = _masked_bump_values(trial, exps,
                                       (len(m1), len(m2))).ravel()
            cell = np.flatnonzero(vals != 0)   # faster than a float scan
            i1, i2 = np.divmod(cell, len(m2))
            idx = p1 * (i1 + start) + (p2 * i2 - offset)
            w = w + np.bincount(idx, weights=vals[cell], minlength=size)
        live = np.flatnonzero(w != 0)
        freqs = (live.astype(float) + offset) * g / q
        sups.append(_sup_over_t(freqs, w[live], ts, denom) if live.size
                    else 0.0)
    return sups


@dataclass
class SumBoundResult:
    levels: list[int]
    sup_ratios: list[float]
    running_sup: list[float]
    max_growth: float          # worst step of the running sup across doublings

    @property
    def verdict(self) -> str:
        return "pass" if self.max_growth <= 1.10 else "fail"


def oscillatory_sum_bound(trial: SumBoundTrial,
                          levels: Sequence[int] | None = None,
                          t_count: int = 512,
                          seed: int = 0) -> SumBoundResult:
    """Empirical boundedness of |F(t)| * |denominator| / ||H|| across sizes.

    ``t`` is a dense sample away from zeros of the denominator
    (|denominator| >= 0.1).  The boundedness statistic is the running sup of
    the per-level ratios, which must have converged by the middle of the
    doubling ladder: the reported growth compares its final value to the
    midpoint value.
    """
    if levels is None:
        levels = [2 ** k for k in range(6, 15 if trial.kind == "single" else 13)]
    if trial.kind == "double":
        a1, a2 = trial.alphas
        for b1, b2 in trial.betas:
            if a1 * b2 - a2 * b1 == 0:
                raise ValueError("direction vector parallel to the alphas "
                                 "(independence condition fails)")
    rng = np.random.default_rng(seed)
    ts = rng.uniform(0.11, 6.4, size=8 * t_count)
    if trial.kind == "single":
        denom = _denominator_single(float(trial.alphas[0]), ts)
        keep = denom >= 0.1
    else:
        denom, low = _rho_double(trial, ts)
        keep = low >= 0.1
    ts, denom = ts[keep][:t_count], denom[keep][:t_count]
    if len(ts) < max(8, t_count // 8):
        raise ValueError("could not sample enough t away from denominator zeros")
    norm = _norm_of(trial)
    ratios = [sup / norm for sup in _level_sups(trial, levels, ts, denom)]
    running = []
    acc = 0.0
    for r in ratios:
        acc = max(acc, r)
        running.append(acc)
    mid = max(0, (len(running) - 1) // 2)
    growth = (running[-1] / running[mid]) if running[mid] > 1e-12 else (
        1.0 if running[-1] <= 1e-12 else math.inf)
    return SumBoundResult(list(levels), ratios, running, growth)


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
    if kind == "single":
        anchor = (float(rng.integers(0, anchor_cap + 1)),)
    else:
        anchor = (float(rng.integers(0, anchor_cap + 1)),
                  float(rng.integers(0, anchor_cap + 1)))
    log2a = []
    signs = []
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


def reference_double_trial(seed: int = 7, anchor_cap: int = 180) -> SumBoundTrial:
    """The double-sum trial with the published eight direction vectors and
    alpha = (-7/6, -7/6)."""
    rng = np.random.default_rng(seed)
    n = len(SECTION_8_1_BETAS)
    r_vals = tuple([2.0] * n)
    spec = BumpSpec(tuple(rng.uniform(-0.3, 0.3, n)),
                    tuple(rng.uniform(0.8, 1.3, n)))
    log2a, signs = _anchored_amplitudes(rng, SECTION_8_1_BETAS, spec,
                                        "double", anchor_cap)
    return SumBoundTrial("double", (Fraction(-7, 6), Fraction(-7, 6)),
                         SECTION_8_1_BETAS, log2a, signs, r_vals, spec)


def _random_fraction(rng, num_cap=7, den_cap=6, nonzero=True) -> Fraction:
    while True:
        f = Fraction(int(rng.integers(-num_cap, num_cap + 1)),
                     int(rng.integers(1, den_cap + 1)))
        if f or not nonzero:
            return f


def random_single_trial(seed: int, anchor_cap: int = 400) -> SumBoundTrial:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    alpha = _random_fraction(rng)
    betas = tuple((_random_fraction(rng),) for _ in range(n))
    r_vals = tuple(rng.uniform(1.0, 2.5, n))
    spec = _random_bumps(rng, n)
    log2a, signs = _anchored_amplitudes(rng, betas, spec, "single", anchor_cap)
    return SumBoundTrial("single", (alpha,), betas, log2a, signs, r_vals, spec)


def random_double_trial(seed: int, anchor_cap: int = 180) -> SumBoundTrial:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    while True:
        a1, a2 = _random_fraction(rng), _random_fraction(rng)
        betas = []
        ok = True
        for _ in range(n):
            b1 = _random_fraction(rng, nonzero=False)
            b2 = _random_fraction(rng, nonzero=False)
            if a1 * b2 - a2 * b1 == 0 or (b1 == 0 and b2 == 0):
                ok = False
                break
            betas.append((b1, b2))
        if ok:
            break
    r_vals = tuple(rng.uniform(1.0, 2.5, n))
    spec = _random_bumps(rng, n)
    log2a, signs = _anchored_amplitudes(rng, betas, spec, "double", anchor_cap)
    return SumBoundTrial("double", (a1, a2), tuple(betas), log2a, signs,
                         r_vals, spec)


# ---------------------------------------------------------------------------
# dominance and Knapp-box probes


def dominance_probe(phi: PuiseuxPoly, vertex: tuple, m_sep: int,
                    delta: float, a_low: Fraction | None = None,
                    a_high: Fraction | None = None,
                    horizontal_a: Fraction | None = None,
                    n_y1: int = 7, n_y2: int = 9) -> float:
    """Max relative error of the single-vertex approximation on the
    transition region between two edge scalings (or under one, in the
    horizontal variant).

    The region between edges of ratios a_low < a_high forces
    y1 < 2^(-2 m_sep / (a_high - a_low)), so the sampled error decays like
    2^(-m_sep) with no floor from the y1 cutoff.
    """
    av, bv = Fraction(vertex[0]), int(vertex[1])
    cv = phi.coefficient(av, bv)
    if not cv:
        raise ValueError("vertex carries no coefficient")
    if horizontal_a is None:
        if a_low is None or a_high is None:
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
    for y1 in y1s:
        lo = lo_fac * y1 ** lo_exp
        hi = hi_fac * y1 ** hi_exp
        if not lo < hi:
            continue
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


def dominance_decay(phi: PuiseuxPoly, vertex, m_values: Sequence[int],
                    delta: float, **kw) -> list[float]:
    return [dominance_probe(phi, vertex, m, delta, **kw) for m in m_values]


def knapp_box_probe(phi: PuiseuxPoly, cert, ks: Sequence[int] = range(16, 121, 8),
                    grid: int = 33) -> dict:
    """Scaling of sup |phi| over the certificate's boxes: fits C * eps^beta
    and reports the smallest sup/eps ratio (non-vanishing witness).

    The polynomial is evaluated in the sheared frame (the shear is performed
    exactly first), since expanding around x2 = f(x1) in floating point would
    cancel catastrophically on deep boxes.  The default ladder reaches deep
    enough that the inhomogeneous corrections (as slow as eps^(1/12) on the
    shipped examples) drop below the fitted-slope tolerance.
    """
    f_poly = cert.f.to_poly()
    sheared = phi.shear_substitute(f_poly) if f_poly else phi
    k1 = cert.delta if cert.target == "horizontal" else cert.box_exponents[0]
    k2 = cert.box_exponents[1]
    if sheared.ramification > 1:
        y1s = np.linspace(1e-6, 1.0, grid)
    else:
        y1s = np.linspace(-1.0, 1.0, grid)
    y2s = np.linspace(-1.0, 1.0, grid)
    eps = np.asarray([2.0 ** (-k) for k in ks], dtype=float)
    sups = []
    fsh = _poly_xy_eval(sheared)
    for e in eps:
        x1 = y1s * e ** float(k1)
        u = (e ** float(k2)) * y2s[None, :]
        vals = np.abs(fsh(x1[:, None] * np.ones_like(u), u))
        sups.append(float(vals.max()))
    beta, resid = log_log_fit(1.0 / eps, sups, top_fraction=0.5)
    ratios = [s / e for s, e in zip(sups, eps)]
    return {"beta": beta, "residual": resid, "sups": sups,
            "eps": list(map(float, eps)), "min_ratio": min(ratios),
            "max_ratio": max(ratios)}
