import importlib.util
import math
import re
import sys
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrestrict import numerics
from nrestrict.errors import QuadratureError
from nrestrict.exponents import certificates_of_polyhedron, critical_exponent
from nrestrict.geometry import NewtonPolyhedron
from nrestrict.numerics import (BUMP_D1, BUMP_D2, BUMP_MASS, BumpSpec,
                                SumBoundTrial, _axis_lines,
                                _denominator_single, _factor, _level_cells,
                                _level_sups, _live_polygon, _poly_xy_eval,
                                _rho_double, _t_sample, bump,
                                airy_scaling_check,
                                dominance_probe,
                                knapp_box_probe, lambda_grid, log_log_fit,
                                oscillatory_integral_1d,
                                oscillatory_integral_2d, oscillatory_sum_bound,
                                random_double_trial, random_single_trial,
                                reference_double_trial, smooth_plateau,
                                surface_decay_fit, van_der_corput_fit)
from nrestrict.parser import parse_expression
from nrestrict.poly import PuiseuxPoly
from oracles import direct_level_sups, direct_rho_double


def P(text):
    return parse_expression(text).poly


def knapp_certificates(phi, jet):
    """Certificates of ``phi`` sheared by the whole of ``jet`` at once."""
    return certificates_of_polyhedron(
        jet, NewtonPolyhedron.of(phi.shear_substitute(jet)))


SHORT = lambda_grid(1e2, 1e5, 16)


class TestQuadrature:
    def test_fresnel_prefactor(self):
        # closed form: |int_0^1 e^{i lam s^2}| ~ 0.5 sqrt(pi/lam)
        lam = 2e4
        val = abs(oscillatory_integral_1d(
            lambda s: s * s, lambda s: np.ones_like(s), 0.0, 1.0, lam))
        assert val * math.sqrt(lam) == pytest.approx(0.5 * math.sqrt(math.pi),
                                                     rel=0.02)

    def test_linear_phase_exact(self):
        # (e^{i lam} - 1)/(i lam), sampled at lam with |sin(lam/2)| = 1
        lam = (2 * 600 + 1) * math.pi
        val = abs(oscillatory_integral_1d(
            lambda s: s, lambda s: np.ones_like(s), 0.0, 1.0, lam))
        assert val == pytest.approx(2.0 / lam, rel=1e-9)

    def test_tolerance_halving_self_consistency(self):
        for lam in (1e3, 3e4):
            a = abs(oscillatory_integral_1d(
                lambda s: s ** 3, lambda s: bump(s), -1.0, 1.0, lam,
                tau=math.pi))
            b = abs(oscillatory_integral_1d(
                lambda s: s ** 3, lambda s: bump(s), -1.0, 1.0, lam,
                tau=math.pi / 2))
            assert abs(a - b) <= 0.01 * max(a, 1e-12)

    def test_separable_2d_is_product_of_1d(self):
        # one cell tree serves both entry points: for a separable phase and a
        # tensor amplitude the 2-D integral factorizes into two 1-D ones
        for lam in (50.0, 200.0):
            ix = oscillatory_integral_1d(lambda x: x * x, bump, -1.0, 1.0, lam)
            iy = oscillatory_integral_1d(lambda y: y ** 3 - y / 2, bump,
                                         -1.0, 1.0, lam)
            i2 = oscillatory_integral_2d(
                lambda x, y: x * x + y ** 3 - y / 2,
                lambda x, y: bump(x) * bump(y), (-1.0, 1.0, -1.0, 1.0), lam)
            assert abs(i2 - ix * iy) <= 1e-6 * abs(ix * iy), lam

    @pytest.mark.parametrize("order", [8, 16])
    def test_remainder_bound_holds_for_a_linear_phase(self, order):
        # int_-1^1 exp(i v t / 2) dt = 4 sin(v/2) / v, against the n-point
        # rule, up to the rounding of an n-term sum; TAU_2D is where the
        # order-16 bound reaches 1e-12
        nodes, weights = np.polynomial.legendre.leggauss(order)
        for v in np.linspace(0.5, numerics.TAU_2D, 40):
            exact = 4 * math.sin(v / 2) / v
            rule = complex(weights @ np.exp(0.5j * v * nodes))
            assert abs(rule - exact) <= (numerics.gl_remainder_bound(order, v)
                                         + 1e-14)
        assert numerics.gl_remainder_bound(16, numerics.TAU_2D) \
            == pytest.approx(1e-12)

    def test_cell_budget_names_the_dimension(self):
        with pytest.raises(QuadratureError, match="1-D"):
            oscillatory_integral_1d(lambda s: s * s, bump, -1.0, 1.0, 1e5,
                                    max_cells=10)
        with pytest.raises(QuadratureError, match="2-D"):
            oscillatory_integral_2d(lambda x, y: x * x + y * y,
                                    lambda x, y: bump(x) * bump(y),
                                    (-1.0, 1.0, -1.0, 1.0), 1e4, max_cells=10)

    def test_depth_cap(self):
        # a jump keeps one cell unresolved at every level
        with pytest.raises(QuadratureError, match="1-D quadrature did not "
                           "converge"):
            oscillatory_integral_1d(lambda s: 1e30 * np.sign(s), bump,
                                    -1.0, 1.0, 10.0)


class TestPublicApiErrors:
    @pytest.mark.parametrize("call, message", [
        (lambda: oscillatory_integral_1d(np.sin, bump, -1.0, 1.0, [[10.0]]),
         "lam must be a number or a 1-D sequence"),
        (lambda: oscillatory_integral_1d(np.sin, bump, -1.0, 1.0, np.inf),
         "lam must be finite"),
        (lambda: oscillatory_integral_2d(lambda x, y: x * y,
                                         lambda x, y: bump(x) * bump(y),
                                         (-1.0, 1.0, -1.0, 1.0),
                                         [1.0, np.nan]),
         "lam must be finite"),
        # the 1/h law is claimed, and fitted, only in the normal direction
        (lambda: surface_decay_fit(P("x2^2"), (0, 0, 0)),
         re.escape("direction must be (0, 0, 1), not (0, 0, 0)")),
        (lambda: surface_decay_fit(P("(x2 - x1^2)^2"), (0, 1, 1)),
         re.escape("direction must be (0, 0, 1), not (0, 1, 1)")),
        (lambda: surface_decay_fit(P("x2^2"), (1, 0, 0)),
         re.escape("direction must be (0, 0, 1), not (1, 0, 0)")),
        (lambda: surface_decay_fit(P("x2^2"), (0, 0, 2)),
         re.escape("direction must be (0, 0, 1), not (0, 0, 2)")),
        (lambda: van_der_corput_fit(0, [0.0, 1.0]),
         "derivative order must be >= 1"),
        (lambda: dominance_probe(P("x2^2 + x1^4"), (1, 1), 4, 0.1),
         "vertex carries no coefficient"),
        (lambda: dominance_probe(P("x2^2 + x1^4"), (0, 2), 4, 0.1),
         "vertex needs compact edges on both sides"),
        (lambda: oscillatory_sum_bound(SumBoundTrial(
            "double", (F(1), F(1)), ((F(2), F(2)),), (0.0,), (1.0,), (2.0,),
            None)), "direction vector parallel to the alphas"),
        # alpha = 0: the denominator |2^(i alpha t) - 1| vanishes for every t
        (lambda: oscillatory_sum_bound(SumBoundTrial(
            "single", (F(0),), ((F(1),),), (0.0,), (1.0,), (64.0,), None)),
         "could not sample enough t"),
        (lambda: oscillatory_sum_bound(random_single_trial(0), levels=[]),
         "levels must be a nonempty sequence of integers >= 0"),
        (lambda: oscillatory_sum_bound(random_single_trial(0), levels=[-4]),
         "levels must be a nonempty sequence of integers >= 0"),
        (lambda: oscillatory_sum_bound(random_single_trial(0), levels=[2.5]),
         "levels must be a nonempty sequence of integers >= 0"),
    ], ids=["lam-2d", "infinite-lam", "nan-lam", "zero-direction",
            "tilted-direction", "horizontal-direction", "scaled-direction",
            "derivative-order", "no-coefficient",
            "end-vertex", "parallel-direction", "zero-denominator",
            "no-levels", "negative-level", "fractional-level"])
    def test_rejects(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


def _ladders(bound):
    """1-6 nonzero frequencies in [-bound, bound], unsorted, repeats allowed."""
    return (st.lists(st.floats(-bound, bound), min_size=1, max_size=6)
            .map(lambda v: [x for x in v if x != 0]).filter(bool))


class TestFrequencyLadder:
    """One cell tree serves a whole frequency ladder; each frequency gets
    the partition a scalar call from the root would build, so the results
    differ only in the order of summation."""

    @staticmethod
    def _1d(lam, **kw):
        return oscillatory_integral_1d(lambda s: s ** 3 - s / 2, bump,
                                       -1.0, 1.0, lam, **kw)

    @staticmethod
    def _2d(lam, **kw):
        return oscillatory_integral_2d(lambda x, y: x * x + y ** 3 - y / 2,
                                       lambda x, y: bump(x) * bump(y),
                                       (-0.5, 0.5, -0.25, 0.25), lam, **kw)

    # the absolute floor is the rounding level of a sum of O(1) terms, for a
    # frequency that happens to sit near a zero of the integral
    @given(_ladders(3e3))
    @settings(max_examples=60, deadline=None)
    def test_1d_ladder_equals_scalar_calls(self, lams):
        ladder = self._1d(lams)
        assert isinstance(ladder, np.ndarray) and ladder.shape == (len(lams),)
        scalars = [self._1d(lam) for lam in lams]
        assert list(ladder) == pytest.approx(scalars, rel=1e-12, abs=1e-15)

    @given(_ladders(200.0))
    @settings(max_examples=30, deadline=None)
    def test_2d_ladder_equals_scalar_calls(self, lams):
        ladder = self._2d(lams)
        assert ladder.shape == (len(lams),)
        scalars = [self._2d(lam) for lam in lams]
        assert list(ladder) == pytest.approx(scalars, rel=1e-12, abs=1e-15)

    def test_acceptance_uses_every_strict_ancestor(self):
        # on [0, 1/2] the probes sit on zeros of sin(12 pi s), so that cell
        # varies by 1/2 and is integrated at lam = 5; its child [0, 1/4]
        # probes the sine's peaks and varies by more.  Checking only the
        # parent would count the grandchildren toward lam = 5 a second time.
        phase = lambda s: s + np.sin(12 * np.pi * s)
        one = lambda s: np.ones_like(s)
        lams = [5.0, 50.0]
        ladder = oscillatory_integral_1d(phase, one, 0.0, 1.0, lams)
        scalars = [oscillatory_integral_1d(phase, one, 0.0, 1.0, lam)
                   for lam in lams]
        assert list(ladder) == pytest.approx(scalars, rel=1e-12, abs=1e-15)

    def test_scalar_lam_returns_complex(self):
        for lam in (300.0, np.float64(300.0), 300):
            assert type(self._1d(lam)) is complex
            assert type(self._2d(lam)) is complex
        assert self._1d([300.0]).shape == (1,)

    def test_cell_budget_is_that_of_the_largest_frequency(self):
        # a scalar call at 1e4 needs 18711 cells, at 2e3 3799
        with pytest.raises(QuadratureError) as scalar:
            self._1d(-1e4, max_cells=5000)
        with pytest.raises(QuadratureError) as ladder:
            self._1d([2e3, -1e4, 1e3], max_cells=5000)
        assert str(ladder.value) == str(scalar.value)
        lams = [2e3, 1e3, -2e3]
        assert list(self._1d(lams, max_cells=5000)) == pytest.approx(
            [self._1d(lam) for lam in lams], rel=1e-12, abs=1e-15)

    def test_airy_opposite_sign_matches_scalar_calls(self):
        # magnitudes at rounding level (down to ~1e-16): the fit most
        # sensitive to the order of summation, held to the benchmark's
        # relative tolerance
        fit = airy_scaling_check(-0.5)
        phase = lambda t: 1.0 * t ** 3 - (-0.5) * t
        amp = lambda t: smooth_plateau(t / 1.0)
        scalars = [abs(oscillatory_integral_1d(phase, amp, -1.0, 1.0, lam))
                   for lam in fit.lambda_grid]
        assert fit.magnitudes == pytest.approx(scalars, rel=1e-6, abs=0)

    def test_grid_is_checked_before_any_quadrature(self, monkeypatch):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("integrated before the grid check")

        monkeypatch.setattr(numerics, "_cell_tree", no_quadrature)
        down = lambda_grid(1e6, 1e4, 8)
        short = lambda_grid(1e2, 1e3, 8)
        calls = [
            lambda g: surface_decay_fit(P("x1^2 + x2^2"), (0, 0, 1), lams=g),
            lambda g: numerics.decay_catalogue(g),
            lambda g: airy_scaling_check(0.0, lams=g),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="strictly increasing"):
                call(down)
            with pytest.raises(ValueError, match="two decades"):
                call(short)
            for bad in ([0.0, 1e3], [-1e3, 1e3], [1e2, np.inf]):
                with pytest.raises(ValueError, match="positive and finite"):
                    call(bad)
        with pytest.raises(ValueError, match="strictly increasing"):
            van_der_corput_fit(2, [0, 0, 1], lams=down)
        with pytest.raises(ValueError, match="three decades"):
            van_der_corput_fit(2, [0, 0, 1], lams=lambda_grid(1e2, 1e4, 8))
        with pytest.raises(ValueError, match="strictly increasing"):
            van_der_corput_fit(2, [0, 0, 1],
                               lams=np.array([1e2, 1e4, 1e3, 1e5]))

    def test_decreasing_grid_over_three_decades_is_called_decreasing(self):
        # four decades, but descending: the order check names the fault
        with pytest.raises(ValueError, match="strictly increasing"):
            van_der_corput_fit(2, [0, 0, 1], lams=np.geomspace(1e7, 1e3, 8))


class TestVanDerCorput:
    def test_monomials_and_monotonicity(self):
        fits = {}
        for m in (2, 3, 5):
            fit = van_der_corput_fit(m, [0] * m + [1], lams=SHORT)
            assert fit.verdict == "pass"
            assert abs(fit.fitted_exponent - 1 / m) <= 0.05
            fits[m] = fit.fitted_exponent
        assert fits[2] > fits[3] > fits[5]

    def test_no_stationary_point(self):
        lams = np.array([(2 * k + 1) * math.pi
                         for k in (40, 90, 200, 450, 1000, 2200, 5000, 11000,
                                   25000, 55000)])
        fit = van_der_corput_fit(1, [0, 1], lams=lams)
        assert abs(fit.fitted_exponent - 1.0) <= 0.05

    def test_rejects_unnormalized_phase(self):
        with pytest.raises(ValueError):
            van_der_corput_fit(2, [0, 0, F(1, 4)], lams=SHORT)

    def test_rejects_short_grid(self):
        with pytest.raises(ValueError):
            van_der_corput_fit(2, [0, 0, 1], lams=lambda_grid(1e2, 1e3, 8))


class TestSurfaceDecay:
    def test_square_reduces_and_fits(self):
        fit = surface_decay_fit(P("(x2 - x1^2)^2"), (0, 0, 1), lams=SHORT)
        assert fit.verdict == "pass"
        assert abs(fit.fitted_exponent - 0.5) <= 0.07

    def test_sum_of_squares_separable(self):
        fit = surface_decay_fit(P("x1^2 + x2^2"), (0, 0, 1), lams=SHORT)
        assert fit.verdict == "pass"

    def test_expected_defaults_to_inverse_height(self):
        fit = surface_decay_fit(P("(x2 - x1^2)^2"), (0, 0, 1), lams=SHORT)
        assert fit.expected_exponent == pytest.approx(0.5)

    def test_exponent_stage_runs_once(self, isolations):
        # the height and the sheared reduction come from one exponent stage
        fit = surface_decay_fit(P("(x2 - x1^2)^2"), (0, 0, 1), lams=SHORT)
        assert fit.meta == {"reduction": "sheared"}
        keys = [key for _mod, key in isolations]
        assert keys and len(set(keys)) == len(keys)

    def test_pure_x1_phase_is_swapped_to_pure_x2(self):
        fit = surface_decay_fit(P("x1^2"))
        assert fit.meta == {"reduction": "pure_x2"}
        assert fit.verdict == "pass"

    def test_ramified_input_is_rejected_before_quadrature(self):
        with pytest.raises(ValueError, match="integer-exponent"):
            surface_decay_fit(P("x1^(3/2) + x2^2"), (0, 0, 1), lams=SHORT)

    def test_magnitude_matches_one_dimensional_oracle(self):
        # after the exact shear the integral is int e^{i lam u^2} G(u) du with
        # G(0) = int bump(y/h)^... the top-lambda magnitude must match the
        # stationary-phase value G(0) sqrt(pi/lam) within a few percent
        hw = 0.5
        fit = surface_decay_fit(P("(x2 - x1^2)^2"), (0, 0, 1), lams=SHORT)
        lam = fit.lambda_grid[-1]
        y = np.linspace(-hw, hw, 20001)
        # numpy's own rule, independent of nrestrict.numerics._trapezoid
        trapezoid = getattr(np, "trapezoid", None) or np.trapz
        g0 = trapezoid(bump(y / hw) * bump((y ** 2) / hw), y)
        predicted = g0 * math.sqrt(math.pi / lam)
        assert fit.magnitudes[-1] == pytest.approx(predicted, rel=0.03)

    def test_fallback_2d_matches_reduction(self):
        # moderate frequency: the direct quadtree agrees with the reduction
        from nrestrict.numerics import oscillatory_integral_2d, _poly_xy_eval
        phi = P("(x2 - x1^2)^2")
        f = _poly_xy_eval(phi)
        hw = 0.5
        amp = lambda x, y: bump(x / hw) * bump(y / hw)
        lam = 400.0
        direct = abs(oscillatory_integral_2d(f, amp, (-hw, hw, -hw, hw), lam))
        fit = surface_decay_fit(phi, (0, 0, 1), lams=np.geomspace(4.0, lam, 5))
        assert direct == pytest.approx(fit.magnitudes[-1], rel=0.01)

    def test_reports_the_path_taken(self):
        fits = numerics.decay_catalogue(SHORT)
        assert [f.meta for f in fits] == [{"reduction": "sheared"},
                                         {"reduction": "sheared"},
                                         {"reduction": "separable"}]
        assert surface_decay_fit(P("x2^4"), lams=SHORT).meta == {
            "reduction": "pure_x2"}
        # no reduction applies: the direct 2-D tree runs, and says why
        fit = surface_decay_fit(P("x1^3*x2 + x1*x2^3 + x1^2*x2^2"), (0, 0, 1),
                                lams=np.geomspace(4.0, 400.0, 5))
        assert fit.meta == {"reduction": "direct_2d",
                            "fallback": "no_reduction"}
        assert fit.to_json_dict()["meta"] == fit.meta

    def test_direct_2d_default_agrees_with_finer_tau(self):
        # an 8x8-point rule at tau = 2 pi misses this by 5.5e-7 relative
        f = _poly_xy_eval(P("(x2 - x1^2)^2"))
        amp = lambda x, y: bump(x / 0.5) * bump(y / 0.5)
        box = (-0.5, 0.5, -0.5, 0.5)
        ref = oscillatory_integral_2d(f, amp, box, 400.0,
                                      tau=numerics.TAU_2D / 4)
        val = oscillatory_integral_2d(f, amp, box, 400.0)
        assert abs(val - ref) <= 1e-9 * abs(ref)


class TestAiry:
    def test_three_regimes(self):
        near = airy_scaling_check(0.0, lams=lambda_grid(1e2, 1e5, 16))
        assert near.verdict == "pass"
        assert abs(near.fitted_exponent - 1 / 3) <= 0.04
        off = airy_scaling_check(0.5, lams=lambda_grid(1e2, 1e5, 16))
        assert off.verdict == "pass"
        assert abs(off.fitted_exponent - 0.5) <= 0.05
        opp = airy_scaling_check(-0.5)
        assert opp.verdict == "pass" and opp.fitted_exponent >= 2.0

    def test_tiny_u_is_near_cone(self):
        # lam^(2/3) |u| stays below 0.5 on the whole grid
        fit = airy_scaling_check(1e-6, lams=lambda_grid(1e2, 1e5, 16))
        assert fit.meta == {"regime": "near-cone"} and fit.verdict == "pass"

    def test_straddling_inconclusive(self):
        fit = airy_scaling_check(0.5, lams=lambda_grid(1.0, 1e3, 8))
        assert fit.verdict == "inconclusive"


_FRACTIONS = st.builds(F, st.integers(-7, 7), st.integers(1, 6))
_NONZERO = _FRACTIONS.filter(bool)


@st.composite
def _sum_trials(draw):
    """Shipped trials, and trials built with either bump (or none), with axis
    directions (b1 = 0 or b2 = 0) and with alphas of either sign, their
    windows anchored at an index below 64 so that small levels are live."""
    which = draw(st.sampled_from(["single", "double", "reference", "built"]))
    if which == "single":
        return random_single_trial(draw(st.integers(0, 10 ** 6)))
    if which == "double":
        return random_double_trial(draw(st.integers(0, 10 ** 6)))
    if which == "reference":
        return reference_double_trial()
    kind = draw(st.sampled_from(["single", "double"]))
    n = draw(st.integers(1, 3))
    if kind == "single":
        alphas = (draw(_NONZERO),)
        betas = tuple((draw(_FRACTIONS),) for _ in range(n))
    else:
        alphas = (draw(_NONZERO), draw(_NONZERO))
        betas = tuple(draw(st.sampled_from([(b1, F(0)), (F(0), b2), (b1, b2)]))
                      for b1, b2 in [(draw(_NONZERO), draw(_NONZERO))
                                     for _ in range(n)])
    anchor = (draw(st.integers(0, 63)), draw(st.integers(0, 63)))
    unit = st.floats(-0.8, 0.8)
    spec = draw(st.one_of(st.none(), st.builds(
        BumpSpec, st.tuples(*[st.floats(-1.1, 1.1)] * n),
        st.tuples(*[st.floats(0.5, 1.3)] * n))))
    ys = [(spec.centers[k] + draw(unit) * spec.scales[k]) if spec
          else draw(st.floats(-2.0, 2.0)) for k in range(n)]
    ys = [y if abs(y) >= 0.05 else math.copysign(0.05, y) for y in ys]
    log2_a = tuple(math.log2(abs(y)) - sum(float(b) * a
                                           for b, a in zip(beta, anchor))
                   for y, beta in zip(ys, betas))
    # a flipped sign can put a window wholly below 0, emptying the sum
    signs = tuple(math.copysign(1.0, y) * draw(st.sampled_from([1, 1, 1, -1]))
                  for y in ys)
    r_vals = tuple(draw(st.floats(1.0, 2.5)) for _ in range(n))
    return SumBoundTrial(kind, alphas, betas, log2_a, signs, r_vals, spec)


def _full_grid_nonzero_cells(trial, m):
    """(m1, m2, value) of the nonzero cells of level m's whole grid, row-major,
    each the product of its coordinates' factors in coordinate order; rows go
    in blocks, and each factor is taken only where the product so far is
    nonzero (factors are finite, so a zero product stays zero)."""
    width = m + 1 if trial.kind == "double" else 1
    out = [[], [], []]
    for r0 in range(0, m + 1, 256):
        m1, m2 = np.meshgrid(np.arange(r0, min(r0 + 256, m + 1)),
                             np.arange(width), indexing="ij")
        m1, m2 = m1.ravel(), m2.ravel()
        vals = np.ones(m1.shape)
        for k, (b, la) in enumerate(zip(trial.betas, trial.log2_a)):
            m1, m2, vals = (x[vals != 0] for x in (m1, m2, vals))
            e = (float(b[0]) * m1.astype(float)
                 + (float(b[1]) if len(b) > 1 else 0.0) * m2.astype(float)
                 + la)
            vals = vals * _factor(trial, k, e)
        live = vals != 0
        for part, x in zip(out, (m1, m2, vals)):
            part.append(x[live])
    return [np.concatenate(part) for part in out]


def _level_cells_at(trial, m, top):
    """``_level_cells`` of level m read off the polygon of level top."""
    lines = _axis_lines(trial, top)
    return _level_cells(trial, lines, _live_polygon(trial, top, lines), m)


def _expanded_live_cells(trial, m, top):
    """Level m's runs, read off the polygon of level top, expanded into
    cells and merged with its other cells, row-major, and the number of
    cells that came from runs."""
    runs, cells = _level_cells_at(trial, m, top)
    m1, lo, hi, value = runs
    n = hi - lo + 1
    parts = [(np.repeat(m1, n),
              np.arange(n.sum()) + np.repeat(lo + n - np.cumsum(n), n),
              np.repeat(value, n)), *cells]
    got = [np.concatenate([part[i] for part in parts]) for i in range(3)]
    order = np.lexsort((got[1], got[0]))
    return [x[order] for x in got], int(n.sum())


class TestSumBounds:
    def test_geometric_identity(self):
        trial = SumBoundTrial("single", (F(1),), ((F(1),),), (0.0,), (1.0,),
                              (64.0,), None)
        res = oscillatory_sum_bound(trial, levels=[16, 64, 256, 1024])
        assert res.running_sup[-1] <= 2.0 + 1e-9
        assert res.max_growth <= 1.10

    def test_single_trials(self):
        for i in range(6):
            res = oscillatory_sum_bound(random_single_trial(50 + i), seed=i,
                                        levels=[2 ** k for k in range(6, 13)])
            assert res.max_growth <= 1.10, res.sup_ratios

    def test_double_trial_small(self):
        res = oscillatory_sum_bound(random_double_trial(99), seed=1,
                                    levels=[2 ** k for k in range(6, 11)])
        assert res.max_growth <= 1.10

    def test_single_sweep_matches_per_index_sum(self):
        # the bucketed sweep runs a single trial as a double sum with its
        # second index fixed at 0; one index per frequency is the direct sum.
        # 1060's top level has criterion 9's largest live span, 16288
        # buckets, so its phase tables have 128 columns, and level 64 reads
        # its few blocks off them
        ts = np.linspace(0.2, 6.0, 96)
        cases = [(1000 + i, (1024, 4096)) for i in range(4)] + [
            (1060, (64, 16384))]
        for i, levels in cases:
            trial = random_single_trial(i)
            alpha = float(trial.alphas[0])
            denom = np.abs(np.exp(1j * numerics.LN2 * alpha * ts) - 1.0)
            got = _level_sups(trial, levels, ts, denom)
            want = direct_level_sups(trial, levels, ts, denom)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12), i

    def test_rho_double_by_powers_matches_one_exp_per_harmonic(self):
        # criterion 9's doubles and the reference trial at their 4096-point
        # t draws: the kept t must not move, and the products agree to
        # about 60 factors' rounding of the phases
        cases = [(reference_double_trial(), 3)] + [
            (random_double_trial(2000 + i), i) for i in range(40)]
        for trial, seed in cases:
            t = np.random.default_rng(seed).uniform(0.11, 6.4, size=4096)
            prod, low = _rho_double(trial, t)
            want_prod, want_low = direct_rho_double(trial, t)
            keep = want_low >= 0.1
            assert np.array_equal(low >= 0.1, keep), seed
            assert keep.sum() >= 512, seed
            assert prod[keep] == pytest.approx(want_prod[keep], rel=1e-12), \
                seed

    # the windows, the axis lines and the lattice sweep against one complex
    # exponential per grid cell; the tolerance is the rounding of sums of
    # O(m^2) terms with phases of size O(m)
    @given(_sum_trials(), st.lists(st.integers(1, 256), min_size=1,
                                    max_size=2))
    @settings(max_examples=30, deadline=None)
    def test_level_sups_match_direct_sum(self, trial, levels):
        rng = np.random.default_rng(5)
        ts = rng.uniform(0.11, 6.4, 48)
        denom = rng.uniform(0.5, 2.0, 48)
        got = _level_sups(trial, levels, ts, denom)
        want = direct_level_sups(trial, levels, ts, denom)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_flat_runs_match_direct_sum(self):
        # deterministic cases for the run path: 2000's only direction is an
        # m1-line, 2006's window has no lower end (a flat tail)
        rng = np.random.default_rng(5)
        ts = rng.uniform(0.11, 6.4, 48)
        denom = rng.uniform(0.5, 2.0, 48)
        for seed in (2000, 2006):
            trial = random_double_trial(seed)
            runs, _ = _level_cells_at(trial, 256, 256)
            assert len(runs[0]) > 100, seed
            got = _level_sups(trial, (64, 256), ts, denom)
            want = direct_level_sups(trial, (64, 256), ts, denom)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12), seed

    def test_live_cells_are_the_full_grids_nonzero_cells(self):
        # a window one index too narrow drops a boundary cell silently;
        # 2018's windows have a lower end in 731 of their 735 rows at
        # m = 4096, 2037's both ends in all 103, as in criterion 9's ladder;
        # 2000's only direction is an m1-line, so its rows are whole runs,
        # and 2006's window has no lower end, so its rows are runs but for
        # their upper edge.  Levels m/4 and m/2 are read off level m's
        # polygon, as the sweep reads every level off its top level's
        cases = ([(random_double_trial(2000 + i), 256) for i in range(40)]
                 + [(reference_double_trial(), 512)]
                 + [(random_single_trial(1000 + i), 16384) for i in range(10)]
                 + [(random_double_trial(i), 4096) for i in (2018, 2037)]
                 + [(random_double_trial(i), 2048) for i in (2000, 2006)])
        nonempty = [0, 0]           # lower levels, top levels
        for trial, top in cases:
            for m in (top // 4, top // 2, top):
                got, in_runs = _expanded_live_cells(trial, m, top)
                want = _full_grid_nonzero_cells(trial, m)
                nonempty[m == top] += bool(len(want[0]))
                assert all(np.array_equal(g, w)
                           for g, w in zip(got[:2], want[:2])), (top, m)
                assert got[2].tobytes() == want[2].tobytes(), (top, m)
                if top == m == 2048:
                    assert in_runs >= 0.99 * len(want[0])
        # 53 of the 55 top grids hold a live cell, and 74 of the 110 lower
        assert nonempty[1] >= 49 and nonempty[0] >= 68

    @staticmethod
    def _criterion_9_trials():
        """Criterion 9's 170 singles, 40 doubles and the reference trial,
        each with its top level and t seed."""
        return ([(random_single_trial(1000 + i), 16384, i) for i in range(170)]
                + [(random_double_trial(2000 + i), 4096, i) for i in range(40)]
                + [(reference_double_trial(), 4096, 3)])

    @staticmethod
    def _assert_full_lines(trial, top):
        lines = _axis_lines(trial, top)
        n = np.arange(top + 1, dtype=float)
        for k, (b1, b2, la, line, _) in enumerate(lines):
            if b2 == 0:
                want = _factor(trial, k, b1 * n + la)
                assert line.tobytes() == want.tobytes(), k
        return sum(b2 == 0 for _, b2, _, _, _ in lines)

    def test_axis_lines_on_their_window_are_the_full_lines(self):
        # each m1-line is evaluated only between its flat end and its last
        # possibly nonzero index; the rest must be the same bytes.  The
        # built single's first direction is b1 = 0, a constant line
        lines = 0
        for trial, top, _ in self._criterion_9_trials():
            lines += self._assert_full_lines(trial, top)
        assert lines >= 400     # 170 singles hold 423 lines
        built = SumBoundTrial("single", (F(1),), ((F(0),), (F(1, 3),)),
                              (-1.0, -2.0), (1.0, -1.0), (2.0, 1.5),
                              BumpSpec((0.2, -0.3), (0.9, 1.1)))
        assert self._assert_full_lines(built, 1024) == 2

    @given(_sum_trials(), st.integers(0, 2048))
    @settings(max_examples=60, deadline=None)
    def test_axis_lines_match_full_lines_property(self, trial, top):
        self._assert_full_lines(trial, top)

    def test_t_sample_is_the_full_draws_first_kept(self):
        # the denominators go in blocks of 512 and stop once 512 t pass;
        # the kept t and denominators are those of the whole 4096 draws
        for trial, _, seed in self._criterion_9_trials():
            t = np.random.default_rng(seed).uniform(0.11, 6.4, size=4096)
            if trial.kind == "single":
                denom = low = _denominator_single(float(trial.alphas[0]), t)
            else:
                denom, low = _rho_double(trial, t)
            got = _t_sample(trial, seed)
            assert np.array_equal(got[0], t[low >= 0.1][:512]), seed
            assert np.array_equal(got[1], denom[low >= 0.1][:512]), seed
            assert len(got[0]) == 512, seed

    def test_reference_vectors_satisfy_independence(self):
        trial = reference_double_trial()
        a1, a2 = trial.alphas
        for b1, b2 in trial.betas:
            assert a1 * b2 - a2 * b1 != 0

    def test_bump_norm_constants(self):
        z = np.linspace(-1, 1, 200001)
        vals = bump(z)
        d1 = np.max(np.abs(np.gradient(vals, z)))
        d2 = np.max(np.abs(np.gradient(np.gradient(vals, z), z)))
        assert d1 == pytest.approx(BUMP_D1, rel=1e-3)
        assert d2 == pytest.approx(BUMP_D2, rel=1e-2)
        # the bump vanishes at both ends, so the Riemann sum is the trapezoid
        assert np.sum(vals) * (z[1] - z[0]) == pytest.approx(BUMP_MASS, rel=1e-9)

    def test_plateau_is_flat_and_compact(self):
        z = np.array([-1.2, -1.0, -0.5, 0.0, 0.3, 0.5, 0.75, 1.0, 2.0])
        vals = smooth_plateau(z)
        assert np.all(vals[np.abs(z) <= 0.5] == 1.0)
        assert np.all(vals[np.abs(z) >= 1.0] == 0.0)
        assert 0 < smooth_plateau(np.array([0.75]))[0] < 1


class TestDominance:
    def test_example_12_2_between_edges(self):
        phi = P("(x2 - x1^3)*(x2 - x1^4)^3")
        errs = [dominance_probe(phi, (F(3), 3), m, 0.1)
                for m in [6, 7, 8, 9, 10]]
        assert errs[2] < 0.1
        for a, b in zip(errs, errs[1:]):
            assert b <= 0.75 * a

    def test_pure_power_exact(self):
        err = dominance_probe(P("x2^4"), (F(0), 4), 8, 0.1, horizontal_a=F(2))
        assert err == 0.0

    def test_three_term_fixture_scales_like_2_to_minus_m(self):
        phi = P("x2^4 + x1^3*x2^3 + x1^15")
        ms = [6, 8, 10, 12]
        errs = [dominance_probe(phi, (F(3), 3), m, 0.1) for m in ms]
        for m, e in zip(ms, errs):
            assert e <= 4.0 * 2.0 ** (-m)

    def test_underflowed_windows_are_skipped(self):
        # at y1 = 1e-8 / 128 both ends of the y2 window underflow to 0; the
        # probe skips that window and the other six still decay like 2^-m
        phi = P("x2^2 + x1^32*x2 + x1^65")
        for m in (2, 4, 8):
            err = dominance_probe(phi, (F(32), 1), m, 1e-8)
            assert 2.0 ** (-m) <= err <= 1.01 * 2.0 ** (-m)

    def test_underflowed_lower_ends_are_skipped(self):
        # at delta = 1e-5 the lower end 2^m * y1^60 underflows to 0 in the
        # smaller windows, which the probe skips; the rest decay like 2^-m
        phi = P("x2^2 + x1^50*x2 + x1^110")
        for m in (1, 2, 4):
            err = dominance_probe(phi, (F(50), 1), m, 1e-5)
            assert 0.99 * 2.0 ** (-m) <= err <= 2.0 ** (-m)

    def test_every_window_underflowed_is_reported(self):
        phi = P("x2^2 + x1^50*x2 + x1^110")
        with pytest.raises(ValueError, match="empty sample region"):
            dominance_probe(phi, (F(50), 1), 1, 1e-10)

    def test_incompatible_region_reported(self):
        phi = P("(x2 - x1^3)*(x2 - x1^4)^3")
        with pytest.raises(ValueError):
            dominance_probe(phi, (F(3), 3), 400, 0.1)


class TestKnappBox:
    def test_example_12_2_first_edge(self):
        phi = P("(x2 - x1^2 - x1^3)*(x2 - x1^2 - x1^4)^3")
        rep = critical_exponent(phi)
        certs = knapp_certificates(phi, rep.coords.psi)
        edge1 = [c for c in certs if c.target == "edge" and c.edge_index == 1][0]
        res = knapp_box_probe(phi, edge1)
        assert abs(res["beta"] - 1.0) <= 0.05
        assert res["min_ratio"] > 0.1

    def test_principal_line_box(self):
        phi = P("(x2 - x1^2)^2")
        rep = critical_exponent(phi)
        cert = [c for c in knapp_certificates(phi, rep.coords.psi)
                if c.target == "principal"][0]
        res = knapp_box_probe(phi, cert)
        assert abs(res["beta"] - 1.0) <= 0.05

    def test_ramified_frame_samples_x1_positive(self):
        # the sheared x2^2 + x1^(11/2) lives on x1 > 0 only
        phi = P("(x2 - x1^(3/2))^2 + x1^(11/2)")
        for cert in knapp_certificates(phi, P("x1^(3/2)")):
            assert cert.f.ramification == 2
            res = knapp_box_probe(phi, cert)
            assert abs(res["beta"] - 1.0) <= 0.05 and res["min_ratio"] > 0.5


class TestFloatEvaluator:
    def test_one_variable_use_is_bit_identical(self):
        # the one-variable evaluators this replaced summed c * t**e in
        # sorted exponent order; 0.0 ** 0 == 1.0 keeps every bit
        pts = np.linspace(0.0, 0.9, 37)
        for terms, axis in [({(0, 2): 3, (0, 5): F(-1, 7)}, 2),
                            ({(2, 0): 1, (3, 0): F(-2, 3)}, 1),
                            ({(F(3, 2), 0): 1, (F(7, 3), 0): F(5, 2)}, 1)]:
            p = PuiseuxPoly(terms)
            f = _poly_xy_eval(p)
            got = f(0.0, pts) if axis == 2 else f(pts, 0.0)
            want = np.zeros_like(pts)
            for (e1, e2), c in sorted(p.terms.items()):
                e = e2 if axis == 2 else float(e1)
                want = want + float(c) * pts ** e
            assert np.array_equal(got, want), terms


class TestLogLogFit:
    def test_recovers_slope(self):
        lams = lambda_grid(1e2, 1e5, 24)
        mags = 3.0 * lams ** -0.37
        exp, resid = log_log_fit(lams, mags)
        assert exp == pytest.approx(0.37, abs=1e-9)
        assert resid < 1e-12


class TestNumpyFloor:
    def test_trapz_fallback_when_trapezoid_is_missing(self, monkeypatch):
        # simulates numpy 1.24-1.26, which has ``trapz`` and no ``trapezoid``,
        # by loading a separate copy of the module against a patched numpy;
        # this is not a run on numpy 1.x itself
        def trapz(*args, **kwargs):
            raise AssertionError("not called")

        monkeypatch.delattr(np, "trapezoid", raising=False)
        monkeypatch.setattr(np, "trapz", trapz, raising=False)
        name = "nrestrict._numerics_numpy_floor"
        spec = importlib.util.spec_from_file_location(name, numerics.__file__)
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
        assert module._trapezoid is trapz
        assert module is not numerics
        assert numerics._trapezoid is not trapz
