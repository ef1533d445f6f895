"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see them).

Exact criteria are checked with rational equality; numeric criteria pin the
tolerances stated in the project contract.
"""

import random
import time
from fractions import Fraction as F

import pytest

from nrestrict.adapted import classify_linear, is_adapted, linear_height
from nrestrict.exponents import (certificates_of_polyhedron,
                                 critical_exponent, h_f, h_r_tilde_sample)
from nrestrict.geometry import NewtonPolyhedron, r_height
from nrestrict.parser import parse_expression
from nrestrict.poly import PuiseuxPoly
from nrestrict.splitting import fine_splitting_trace, select_l_pr

from inputs import EX122, NORMAL_FORMS, POWER_CASES
from oracles import brute_hull_vertices


def P(text):
    return parse_expression(text).poly


def knapp_certificates(phi, jet):
    """Certificates of ``phi`` sheared by the whole of ``jet`` at once."""
    return certificates_of_polyhedron(
        jet, NewtonPolyhedron.of(phi.shear_substitute(jet)))


def report(number: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_power_family_regression():
    t0 = time.monotonic()
    for m, n in POWER_CASES:
        rep = critical_exponent(P(f"(x2 - x1^{m})^{n}"))
        d = F(n * m, m + 1)
        expect = 2 * d + 2 if n <= m + 1 else F(2 * n)
        assert NewtonPolyhedron.of(P(f"(x2 - x1^{m})^{n}")).distance() == d
        assert rep.h == n
        assert rep.p_c_prime == expect
    elapsed = time.monotonic() - t0
    report(1, elapsed < 1.0,
           f"power-family d, h, p_c' exact for {POWER_CASES} in {elapsed:.2f}s")


def test_criterion_2_example_12_2_regression():
    phi = P(EX122)
    n_in = NewtonPolyhedron.of(phi)
    assert n_in.distance() == F(8, 3)
    rep = critical_exponent(phi)
    na = NewtonPolyhedron.of(rep.coords.phi_a)
    # the published example prints the third vertex as (0, 15); the stated
    # second weight (1/15, 4/15) passes through (15, 0), which the expansion
    # confirms, so (0, 15) is recorded as a typo
    assert na.vertices == [(F(0), F(4)), (F(3), F(3)), (F(15), F(0))]
    assert [(e.weight.k1, e.weight.k2) for e in na.edges] == [
        (F(1, 12), F(1, 4)), (F(1, 15), F(4, 15))]
    rh = rep.r_height_detail
    h_values = dict(rh.edge_terms)
    assert h_values[F(3)] == F(11, 4) and h_values[F(4)] == F(13, 5)
    assert rep.h_r == F(11, 4)
    assert rep.p_c_prime == F(15, 2)
    sel = select_l_pr(na, rep.m)
    forest = fine_splitting_trace(rep.coords.phi_a, rep.coords.verdict, sel)
    br = forest.branches[0]
    shear = [s for s in br.steps if s.case == "Case3_shear"][0]
    assert shear.root == 1 and shear.multiplicity == 3
    assert br.terminal == "stop_12_9"
    full_jet = rep.coords.psi + br.factorization.jet
    cof_x = br.factorization.cofactor.shear_substitute(-full_jet)
    factor = PuiseuxPoly.x2() - full_jet
    assert (factor ** 3) * cof_x == phi
    assert full_jet == P("x1^2 + x1^4")
    report(2, True, "worked-example invariants, trace and exact factorization")


def test_criterion_3_normal_form_suite():
    checked = 0
    for text, fam, m, n in NORMAL_FORMS:
        phi = P(text)
        lh = linear_height(phi)
        rep = critical_exponent(phi)
        cls = classify_linear(lh, rep.h)
        assert cls.family == fam and cls.m == m, text
        assert cls.n == n, text
        d_expect = F(2 * m, m + 1) if fam == "A" else F(2 * m + 1, m + 1)
        assert lh.h_lin == d_expect, text
        assert rep.p_c_prime == 2 * d_expect + 2, text
        theta_expect = (F(m + 1, 3 * m + 1) if fam == "A"
                        else F(m + 1, 3 * m + 2))
        assert rep.theta == theta_expect, text
        assert F(1, 3) < rep.theta <= F(3, 7), text
        checked += 1
    report(3, checked == 20,
           f"{checked} constructed A/D inputs classified with exact d, p_c', theta")


def _random_support(rng, max_e=12, max_pts=6):
    # critical point at the origin: keep exponent sums >= 2
    pts = set()
    while not pts:
        pts = {(F(rng.randint(0, max_e)), rng.randint(0, 8))
               for _ in range(rng.randint(1, max_pts))}
        pts = {p for p in pts if p[0] + p[1] >= 2}
    return PuiseuxPoly({p: F(rng.choice([1, -1, 2, -2, 3]))
                        for p in pts})


def test_criterion_4_dual_r_height():
    t0 = time.monotonic()
    rng = random.Random(412)
    checked = 0
    for _ in range(100):
        phi = _random_support(rng)
        m = F(rng.randint(2, 4))
        # raises if the two routes disagree
        rh = r_height(NewtonPolyhedron.of(phi), m)
        formula = max([rh.distance_term, rh.horizontal_term]
                      + [h for (_a, h) in rh.edge_terms])
        assert rh.crossing[1] - 1 == formula == rh.value
        checked += 1
    for text in [EX122, "(x2 - x1^2)^5"]:
        rep = critical_exponent(P(text))
        rh = rep.r_height_detail
        assert rh.crossing[1] - 1 == rh.value
    # (1.12): pipeline h - 1 <= h_r < h on sheared non-adapted inputs
    nonadapted = 0
    for _ in range(60):
        base = _random_support(rng, max_e=6, max_pts=4)
        if not base.depends_on_x2():
            continue
        mm = rng.randint(2, 3)
        phi = base.shear_substitute(PuiseuxPoly.monomial(-1, mm, 0))
        try:
            rep = critical_exponent(phi)
        except ValueError:
            continue
        if rep.coords is None:
            continue
        assert rep.h - 1 <= rep.h_r < rep.h, phi
        nonadapted += 1
    elapsed = time.monotonic() - t0
    report(4, checked == 100 and nonadapted >= 20 and elapsed < 10.0,
           f"dual r-height on {checked} random inputs; (1.12) on "
           f"{nonadapted} non-adapted cases in {elapsed:.2f}s")


def test_criterion_5_hull_oracle():
    rng = random.Random(31415)
    for _ in range(500):
        support = sorted({(F(rng.randint(0, 30)), F(rng.randint(0, 30)))
                          for _ in range(rng.randint(1, 12))})
        phi = PuiseuxPoly({(e1, int(e2)): F(1) for (e1, e2) in support})
        assert NewtonPolyhedron.of(phi).vertices == \
            brute_hull_vertices(support)
    report(5, True, "staircase hull equals brute-force hull on 500 supports")


def _suite_inputs():
    texts = [f"(x2 - x1^{m})^{n}" for m, n in POWER_CASES] + [EX122]
    texts += [t for t, _fam, _m, _n in NORMAL_FORMS]
    return texts


def test_criterion_6_knapp_matches_sufficiency():
    checked = 0
    for text in _suite_inputs():
        rep = critical_exponent(P(text))
        assert rep.coords is not None, text
        got = max(c.derived_exponent for c in
                  knapp_certificates(rep.linear.transformed, rep.coords.psi))
        assert got == rep.p_c_prime, text
        checked += 1
    report(6, True,
           f"max Knapp certificate equals p_c' exactly on {checked} inputs")


def test_criterion_7_jet_sampling():
    for text in [EX122, "(x2 - x1^2)^5", "(x2 - x1^2)^2",
                 "(x2 - x1^3)^2 + x1^7"]:
        samp = h_r_tilde_sample(P(text))
        assert samp.bound_kind == "r_height"
        assert len(samp.samples) >= 50, text
        assert all(s.value <= samp.bound for s in samp.samples)
        assert samp.sup_found == samp.bound  # attained at psi by construction
    # adapted inputs: running sup over monomial jets x1^n is monotone and
    # approaches (or attains) the distance
    for text, attains in [("x2^2 + x1*x2^3", False), ("x1^4 + x2^2", True),
                          ("x2^3 + x1^2*x2^4", False)]:
        phi = P(text)
        d = NewtonPolyhedron.of(phi).distance()
        assert is_adapted(phi).adapted
        values = [h_f(phi, PuiseuxPoly.monomial(1, n)) for n in range(1, 13)]
        running = []
        acc = values[0]
        for v in values:
            acc = max(acc, v)
            running.append(acc)
        assert all(b >= a for a, b in zip(running, running[1:]))
        assert running[-1] <= d
        if attains:
            assert running[-1] == d
        else:
            assert d - running[-1] <= d / 6
    report(7, True, "h^f <= h_r with equality at psi; adapted monomial sups "
                    "approach d monotonically")


def test_criterion_8_decay_fits():
    from nrestrict.numerics import (airy_scaling_check, decay_catalogue,
                                    van_der_corput_fit)
    t0 = time.monotonic()
    fits = decay_catalogue()
    expected = {0: 0.5, 1: 0.2, 2: 1.0}
    for i, fit in enumerate(fits):
        assert fit.verdict == "pass", fit.phase
        assert abs(fit.fitted_exponent - expected[i]) <= 0.07
        assert fit.lambda_grid[0] == pytest.approx(1e2)
        assert fit.lambda_grid[-1] == pytest.approx(1e5)
    surface_elapsed = time.monotonic() - t0
    for m in (2, 3, 5):
        fit = van_der_corput_fit(m, [0] * m + [1])
        assert abs(fit.fitted_exponent - 1.0 / m) <= 0.05, m
    near = airy_scaling_check(0.0)
    assert abs(near.fitted_exponent - 1 / 3) <= 0.04
    off = airy_scaling_check(0.5)
    assert abs(off.fitted_exponent - 0.5) <= 0.05
    opp = airy_scaling_check(-0.5)
    assert opp.fitted_exponent >= 2.0
    elapsed = time.monotonic() - t0
    report(8, surface_elapsed < 120.0,
           f"catalogue/vdC/Airy exponents within tolerance "
           f"(surface {surface_elapsed:.1f}s, total {elapsed:.1f}s)")


def test_criterion_9_oscillatory_sum_bounds():
    from nrestrict.numerics import (oscillatory_sum_bound,
                                    random_double_trial, random_single_trial,
                                    reference_double_trial)
    worst = 1.0
    trials = 0
    for i in range(170):
        res = oscillatory_sum_bound(random_single_trial(1000 + i), seed=i,
                                    levels=[2 ** k for k in range(6, 15)])
        worst = max(worst, res.max_growth)
        assert res.max_growth <= 1.10, (i, res.sup_ratios)
        trials += 1
    for i in range(40):
        res = oscillatory_sum_bound(random_double_trial(2000 + i), seed=i,
                                    levels=[2 ** k for k in range(6, 13)])
        worst = max(worst, res.max_growth)
        assert res.max_growth <= 1.10, (i, res.sup_ratios)
        trials += 1
    ref = oscillatory_sum_bound(reference_double_trial(), seed=3)
    assert ref.max_growth <= 1.10
    assert ref.running_sup[-1] > 0  # non-vacuous
    trials += 1
    report(9, trials >= 200,
           f"{trials} trials (incl. published direction vectors), worst "
           f"running-sup growth {worst:.3f} <= 1.10")


def test_criterion_10_dominance_and_boxes():
    from nrestrict.numerics import dominance_probe, knapp_box_probe
    # transition-region dominance on the worked example and two fixtures
    for text, vertex, kw in [
        ("(x2 - x1^3)*(x2 - x1^4)^3", (F(3), 3), {}),
        ("x2^4 + x1^3*x2^3 + x1^15", (F(3), 3), {}),
        ("x2^4 + x1^2*x2^2", (F(2), 2), {"horizontal_a": F(3)}),
    ]:
        errs = [dominance_probe(P(text), vertex, m, 0.1, **kw)
                for m in [6, 7, 8, 9, 10]]
        assert errs[2] < 0.1, text
        for a, b in zip(errs, errs[1:]):
            assert b <= 0.75 * a or (a == 0 and b == 0), text
    # box scaling on every certificate of the exact suite examples
    for text in [EX122, "(x2 - x1^2)^2", "(x2 - x1^2)^5"]:
        phi = P(text)
        rep = critical_exponent(phi)
        for cert in knapp_certificates(phi, rep.coords.psi):
            res = knapp_box_probe(phi, cert)
            assert abs(res["beta"] - 1.0) <= 0.05, (text, cert.target)
            assert res["min_ratio"] > 0.05, (text, cert.target)
    report(10, True, "dominance errors halve per M step; box sups scale "
                     "like eps within 0.05")
