import importlib.util
import math
import sys
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrestrict import numerics
from nrestrict.errors import QuadratureError
from nrestrict.exponents import critical_exponent, knapp_certificates_all
from nrestrict.numerics import (BUMP_D1, BUMP_D2, SumBoundTrial, _level_sups,
                                _masked_bump_values, _poly_xy_eval,
                                _sup_over_t, bump,
                                airy_prefactor_scan, airy_scaling_check,
                                dominance_decay, dominance_probe,
                                knapp_box_probe, lambda_grid, log_log_fit,
                                oscillatory_integral_1d,
                                oscillatory_integral_2d, oscillatory_sum_bound,
                                random_double_trial, random_single_trial,
                                reference_double_trial, smooth_plateau,
                                surface_decay_fit, van_der_corput_fit)
from nrestrict.parser import parse_expression
from nrestrict.poly import PuiseuxPoly


def P(text):
    return parse_expression(text).poly


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

    def test_cell_budget_names_the_dimension(self):
        with pytest.raises(QuadratureError, match="1-D"):
            oscillatory_integral_1d(lambda s: s * s, bump, -1.0, 1.0, 1e5,
                                    max_cells=10)
        with pytest.raises(QuadratureError, match="2-D"):
            oscillatory_integral_2d(lambda x, y: x * x + y * y,
                                    lambda x, y: bump(x) * bump(y),
                                    (-1.0, 1.0, -1.0, 1.0), 1e4, max_cells=10)


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
        amp = lambda t: smooth_plateau(t / 1.0, 0.5)
        scalars = [abs(oscillatory_integral_1d(phase, amp, -1.0, 1.0, lam,
                                               tau=math.pi))
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
        fit = van_der_corput_fit(1, [0, 1], lams=lams, expected=1.0)
        assert abs(fit.fitted_exponent - 1.0) <= 0.05

    def test_rejects_unnormalized_phase(self):
        with pytest.raises(ValueError):
            van_der_corput_fit(2, [0, 0, F(1, 4)], lams=SHORT)

    def test_rejects_short_grid(self):
        with pytest.raises(ValueError):
            van_der_corput_fit(2, [0, 0, 1], lams=lambda_grid(1e2, 1e3, 8))


class TestSurfaceDecay:
    def test_square_reduces_and_fits(self):
        fit = surface_decay_fit(P("(x2 - x1^2)^2"), (0, 0, 1), lams=SHORT,
                                expected=0.5)
        assert fit.verdict == "pass"
        assert abs(fit.fitted_exponent - 0.5) <= 0.07

    def test_sum_of_squares_separable(self):
        fit = surface_decay_fit(P("x1^2 + x2^2"), (0, 0, 1), lams=SHORT,
                                expected=1.0)
        assert fit.verdict == "pass"

    def test_expected_defaults_to_inverse_height(self):
        fit = surface_decay_fit(P("(x2 - x1^2)^2"), (0, 0, 1), lams=SHORT)
        assert fit.expected_exponent == pytest.approx(0.5)

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

    def test_fallback_honours_tau(self):
        # the direct 2-D tree accepts a cell when lam * variation <= 2 * tau,
        # the 1-D paths' rule; a finer tau refines more and moves the values
        phi = P("x1^3*x2 + x1*x2^3 + x1^2*x2^2")
        lams = np.geomspace(4.0, 400.0, 5)
        coarse = surface_decay_fit(phi, (0, 0, 1), lams=lams)
        fine = surface_decay_fit(phi, (0, 0, 1), lams=lams, tau=math.pi / 2)
        assert fine.meta["reduction"] == "direct_2d"
        assert fine.magnitudes != coarse.magnitudes
        assert fine.magnitudes == pytest.approx(coarse.magnitudes, rel=1e-3)


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

    def test_straddling_inconclusive(self):
        fit = airy_scaling_check(0.5, lams=lambda_grid(1.0, 1e3, 8))
        assert fit.verdict == "inconclusive"

    def test_prefactor_tracks_quarter_power(self):
        slope = airy_prefactor_scan([0.2, 0.25, 0.3, 0.35, 0.4], lam0=2e4)
        assert slope == pytest.approx(-0.25, abs=0.05)


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
        # second index fixed at 0; one index per frequency is the direct sum
        ts = np.linspace(0.2, 6.0, 96)
        for i in range(4):
            trial = random_single_trial(1000 + i)
            alpha = float(trial.alphas[0])
            denom = np.abs(np.exp(1j * numerics.LN2 * alpha * ts) - 1.0)
            levels = (1024, 4096)
            got = _level_sups(trial, levels, ts, denom)
            for m, sup in zip(levels, got):
                ls = np.arange(m + 1, dtype=float)
                exps = [float(b[0]) * ls + la
                        for b, la in zip(trial.betas, trial.log2_a)]
                h = _masked_bump_values(trial, exps, (m + 1,))
                live = np.nonzero(h)[0]
                want = (_sup_over_t(alpha * live, h[live], ts, denom)
                        if live.size else 0.0)
                assert sup == pytest.approx(want, rel=1e-9, abs=1e-12), (i, m)

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

    def test_plateau_is_flat_and_compact(self):
        z = np.array([-1.2, -1.0, -0.5, 0.0, 0.3, 0.5, 0.75, 1.0, 2.0])
        vals = smooth_plateau(z, flat=0.5)
        assert np.all(vals[np.abs(z) <= 0.5] == 1.0)
        assert np.all(vals[np.abs(z) >= 1.0] == 0.0)
        assert 0 < smooth_plateau(np.array([0.75]))[0] < 1


class TestDominance:
    def test_example_12_2_between_edges(self):
        phi = P("(x2 - x1^3)*(x2 - x1^4)^3")
        errs = dominance_decay(phi, (F(3), 3), [6, 7, 8, 9, 10], 0.1)
        assert errs[2] < 0.1
        for a, b in zip(errs, errs[1:]):
            assert b <= 0.75 * a

    def test_pure_power_exact(self):
        err = dominance_probe(P("x2^4"), (F(0), 4), 8, 0.1, horizontal_a=F(2))
        assert err == 0.0

    def test_three_term_fixture_scales_like_2_to_minus_m(self):
        phi = P("x2^4 + x1^3*x2^3 + x1^15")
        ms = [6, 8, 10, 12]
        errs = dominance_decay(phi, (F(3), 3), ms, 0.1)
        for m, e in zip(ms, errs):
            assert e <= 4.0 * 2.0 ** (-m)

    def test_incompatible_region_reported(self):
        phi = P("(x2 - x1^3)*(x2 - x1^4)^3")
        with pytest.raises(ValueError):
            dominance_probe(phi, (F(3), 3), 400, 0.1)


class TestKnappBox:
    def test_example_12_2_first_edge(self):
        phi = P("(x2 - x1^2 - x1^3)*(x2 - x1^2 - x1^4)^3")
        rep = critical_exponent(phi)
        certs = knapp_certificates_all(phi, rep.coords.psi)
        edge1 = [c for c in certs if c.target == "edge" and c.edge_index == 1][0]
        res = knapp_box_probe(phi, edge1)
        assert abs(res["beta"] - 1.0) <= 0.05
        assert res["min_ratio"] > 0.1

    def test_principal_line_box(self):
        phi = P("(x2 - x1^2)^2")
        rep = critical_exponent(phi)
        cert = [c for c in knapp_certificates_all(phi, rep.coords.psi)
                if c.target == "principal"][0]
        res = knapp_box_probe(phi, cert)
        assert abs(res["beta"] - 1.0) <= 0.05


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
