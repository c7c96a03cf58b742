import math

import numpy as np
import pytest

from glome import chart, geodesics as geo
from glome import jetcalc as jc
from glome import reduction as red
from glome import symmetries as sym


# -------------------------------------------------------------- canonical

def test_canonical_on_axis():
    for x in (0.3, -0.8, 1.2):
        pair = red.canonical(x, 0.0)
        assert pair.tau == 0.0
        assert abs(pair.omega - math.cos(x)) < 1e-15


def test_canonical_quarter_point():
    pair = red.canonical(math.pi / 4, math.pi / 4)
    assert abs(pair.omega - 0.5) < 1e-15


def test_canonical_undefined_on_x_zero():
    with pytest.raises(jc.DomainError):
        red.canonical(0.0, 0.3)


def test_omega_invariant_under_generator_direction():
    # directional derivative of omega along (sin y, -tan x cos y) vanishes
    for p in chart.sample_domain(1000, 0.1, seed=0):
        _, d = jc.directional(
            red.omega_coordinate,
            (p.x, p.y),
            (math.sin(p.y), -math.tan(p.x) * math.cos(p.y)),
        )
        assert abs(d) < 1e-12


def test_canonical_pair_validation():
    with pytest.raises(ValueError):
        red.CanonicalPair(0.0, 0.0)
    with pytest.raises(ValueError):
        red.CanonicalPair(0.0, 1.5)


# ------------------------------------------------------------- global flow

def test_flow_identity_at_zero():
    for p in chart.sample_domain(100, 0.1, seed=1):
        X, Y = red.global_flow(p.x, p.y, 0.0)
        assert abs(X - p.x) < 1e-15
        assert abs(Y - p.y) < 1e-15


def test_flow_preserves_omega():
    rng = np.random.default_rng(2)
    for p in chart.sample_domain(1000, 0.1, seed=2):
        lam = float(rng.uniform(-1.0, 1.0))
        X, Y = red.global_flow(p.x, p.y, lam)
        drift = red.omega_coordinate(X, Y) - red.omega_coordinate(p.x, p.y)
        assert abs(drift) < 1e-12


def test_flow_shifts_tau_by_lambda():
    rng = np.random.default_rng(3)
    checked = 0
    for p in chart.sample_domain(1000, 0.1, seed=3):
        lam = float(rng.uniform(-1.0, 1.0))
        if abs(p.x) < 1e-6:
            continue
        X, Y = red.global_flow(p.x, p.y, lam)
        if abs(X) < 1e-6:
            continue
        delta = red.wrap_mod_pi(
            red.tau_coordinate(X, Y) - red.tau_coordinate(p.x, p.y) - lam
        )
        assert abs(delta) < 1e-9
        checked += 1
    assert checked > 900


def test_flow_group_property():
    rng = np.random.default_rng(4)
    for p in chart.sample_domain(500, 0.1, seed=4):
        lam1 = float(rng.uniform(-1.0, 1.0))
        lam2 = float(rng.uniform(-1.0, 1.0))
        X1, Y1 = red.global_flow(p.x, p.y, lam1)
        X2, Y2 = red.global_flow(X1, Y1, lam2)
        X12, Y12 = red.global_flow(p.x, p.y, lam1 + lam2)
        assert abs(X2 - X12) < 1e-9
        assert abs(Y2 - Y12) < 1e-9


def test_flow_branch_exit_at_pole_input():
    with pytest.raises(red.BranchExit):
        red.global_flow(math.pi / 2, 0.0, 0.0)


def test_flow_generator_check_residuals():
    for (x, y) in ((0.5, 0.3), (0.4, -0.6), (-0.8, 1.0), (1.1, 0.0)):
        r1, r2 = red.flow_generator_check(x, y)
        assert abs(r1) < 1e-10
        assert abs(r2) < 1e-10


def test_flow_generator_check_on_axis():
    # at y = 0 the x-velocity of the orbit vanishes
    r1, _ = red.flow_generator_check(0.7, 0.0)
    _, dX = jc.directional(lambda lam: red.global_flow(0.7, 0.0, lam)[0], (0.0,), (1.0,))
    assert abs(dX) < 1e-15
    assert abs(r1) < 1e-15


# -------------------------------------------------------------- omega prime

def test_omega_prime_matches_finite_differences():
    j = chart.jet1(0.5, 0.2, 0.0, 0.7, 0.0)

    def along(t, f):
        return f(j.x + t, j.y + j.y_x * t)

    h = 1e-6
    d_omega = (along(h, red.omega_coordinate) - along(-h, red.omega_coordinate)) / (2 * h)
    d_tau = (along(h, red.tau_coordinate) - along(-h, red.tau_coordinate)) / (2 * h)
    assert abs(red.omega_prime(j) - d_omega / d_tau) < 1e-8


def test_omega_prime_stationary_tau_raises():
    # pick a jet with tau_x + tau_y y_x = 0
    x, y = 0.6, 0.4
    g = jc.gradn(lambda a, b, c: red.tau_coordinate(a, b), (x, y, 0.0))
    y_x = -g[0] / g[1]
    with pytest.raises(red.InversionDomain):
        red.omega_prime(chart.jet1(x, y, 0.0, y_x, 0.0))


# ------------------------------------------------------------ alpha inversion

def test_alpha_trivial_stationary_sample():
    # omega' = 0 with theta ~ 0 (tau near pi/2): alpha = S * k / omega^2
    tau = math.pi / 2 - 1e-9
    omega, k = 0.7, 0.3
    alpha = float(red.alpha_from_sample(tau, omega, 0.0, k))
    S = omega**2 * math.cos(tau) ** 2 + math.sin(tau) ** 2
    assert abs(alpha - S * k / omega**2) < 1e-9 * abs(alpha)


def test_alpha_round_trip_reproduces_omega_prime():
    rng = np.random.default_rng(5)
    count = 0
    while count < 100:
        tau = float(rng.uniform(-1.4, 1.4))
        omega = float(rng.uniform(0.2, 0.95))
        w_prime = float(rng.uniform(-2.0, 2.0))
        k = float(rng.uniform(0.0, 1.0))
        if abs(math.tan(tau)) < 1e-3:
            continue
        alpha = red.alpha_from_sample(tau, omega, w_prime, k)
        reproduced = [
            red.reduced_omega_prime(tau, omega, alpha, k, branch)
            for branch in ("+", "-")
        ]
        assert min(abs(r - w_prime) for r in reproduced) < 1e-9 * (1.0 + abs(w_prime))
        count += 1


def test_alpha_branch_symmetry():
    # the inversion takes no branch: omega' from either branch of the
    # forward relation inverts to the same alpha (cos^2 of an odd flip)
    alpha = float(red.alpha_from_sample(0.8, 0.6, 1.3, 0.4))
    for branch in ("+", "-"):
        w_prime = red.reduced_omega_prime(0.8, 0.6, alpha, 0.4, branch)
        assert abs(float(red.alpha_from_sample(0.8, 0.6, w_prime, 0.4)) - alpha) < 1e-12


def test_alpha_domain_errors():
    with pytest.raises(red.InversionDomain):
        red.alpha_from_sample(0.8, 1.0, 0.5, 0.3)
    with pytest.raises(red.InversionDomain):
        red.alpha_from_sample(0.8, 0.0, 0.5, 0.3)
    with pytest.raises(red.InversionDomain):
        red.alpha_from_sample(0.0, 0.5, 0.5, 0.3)  # tan tau = 0
    with pytest.raises(red.InversionDomain):
        red.alpha_from_sample(0.8, 0.5, math.inf, 0.3)
    for branch in ("x", 1, -1.0, "plus", "minus"):
        with pytest.raises(ValueError):
            red.reduced_omega_prime(0.8, 0.5, 0.3, 0.3, branch=branch)


def test_reduced_omega_prime_rejects_bad_arccos_argument():
    # alpha far above the admissible band makes the arccos argument > 1
    with pytest.raises(red.InversionDomain):
        red.reduced_omega_prime(0.8, 0.5, 100.0, 0.9)


# ------------------------------------------------- alpha along trajectories

def test_alpha_constant_along_geodesic(standard_trajectory):
    k = geo.infer_k(standard_trajectory.jet(0))
    alphas, excluded = red.alpha_series(standard_trajectory, float(k))
    assert len(alphas) > 700
    rel_dev = (alphas.max() - alphas.min()) / abs(alphas.mean())
    assert rel_dev < 1e-5
    assert excluded + len(alphas) == len(standard_trajectory)


def test_reduction_report_structure(standard_trajectory):
    report = red.reduction_report(standard_trajectory)
    assert set(report) == {"k", "branch", "alpha_mean", "alpha_rel_dev",
                           "samples", "excluded_rows"}
    assert report["branch"] == "+"
    assert report["alpha_rel_dev"] < 1e-5
    assert report["samples"] > 0


def test_reduction_report_planar_k_zero(planar_trajectory):
    report = red.reduction_report(planar_trajectory)
    assert report["k"] == 0.0


# ------------------------------------------------------------- sphere slice

def test_s2_residual_rest():
    assert red.s2_residual(0.7, 0.1, 0.0, 0.0) == 0.0


def test_s2_residual_closed_form():
    x, y, y_x, y_xx = 0.4, -0.2, 1.3, 0.9
    expected = y_xx - 2 * y_x * math.tan(x) - y_x**3 * math.sin(x) * math.cos(x)
    assert red.s2_residual(x, y, y_x, y_xx) == expected


def test_prolong2_chi3_annihilates_sphere_equation_on_shell():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(200):
        x = float(rng.uniform(-1.2, 1.2))
        y = float(rng.uniform(-1.2, 1.2))
        y_x = float(rng.uniform(-2.0, 2.0))
        if abs(x) < 0.05:
            continue
        y_xx = 2 * y_x * math.tan(x) + y_x**3 * math.sin(x) * math.cos(x)
        j2 = chart.jet2(x, y, 0.0, y_x, 0.0, y_xx, 0.0)
        worst = max(worst, abs(sym.prolong2_apply(sym.chi(3), red.s2_fn, j2)))
    assert worst < 1e-8
