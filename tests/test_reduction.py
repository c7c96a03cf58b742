import math

import numpy as np
import pytest

from glome import chart, geodesics as geo
from glome import jetcalc as jc
from glome import reduction as red
from glome import symmetries as sym
from glome.cli import main
from reference import InversionDomain, alpha_from_sample, omega_prime, reduced_omega_prime


# -------------------------------------------------------------- canonical

def test_canonical_on_axis():
    for x in (0.3, -0.8, 1.2):
        assert red.tau_defined(x)
        assert red.tau_coordinate(x, 0.0) == 0.0
        assert abs(red.omega_coordinate(x, 0.0) - math.cos(x)) < 1e-15


def test_canonical_quarter_point():
    assert red.tau_defined(math.pi / 4)
    assert abs(red.omega_coordinate(math.pi / 4, math.pi / 4) - 0.5) < 1e-15


def test_canonical_undefined_on_x_zero():
    assert not red.tau_defined(0.0)
    with pytest.raises(jc.DomainError):
        jc.directional(red.tau_coordinate, (0.0, 0.3), (1.0, 0.0))


def test_omega_invariant_under_generator_direction():
    # directional derivative of omega along (sin y, -tan x cos y) vanishes
    for p in chart.sample_domain(1000, 0.1, seed=0):
        _, d = jc.directional(
            red.omega_coordinate,
            (p.x, p.y),
            (math.sin(p.y), -math.tan(p.x) * math.cos(p.y)),
        )
        assert abs(d) < 1e-12


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


def flow_generator_check(x, y):
    """Residuals at lambda = 0 of dX/dlam = -sin Y and dY/dlam = tan X cos Y,
    the ODE of the closed-form orbit (chi3's integral curve, parameter reversed)."""
    _, dX = jc.directional(lambda lam: red.global_flow(x, y, lam)[0], (0.0,), (1.0,))
    _, dY = jc.directional(lambda lam: red.global_flow(x, y, lam)[1], (0.0,), (1.0,))
    return (dX + math.sin(y), dY - math.tan(x) * math.cos(y))


def test_flow_generator_check_residuals():
    for (x, y) in ((0.5, 0.3), (0.4, -0.6), (-0.8, 1.0), (1.1, 0.0)):
        r1, r2 = flow_generator_check(x, y)
        assert abs(r1) < 1e-10
        assert abs(r2) < 1e-10


def test_flow_generator_check_on_axis():
    # at y = 0 the x-velocity of the orbit vanishes
    r1, _ = flow_generator_check(0.7, 0.0)
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
    assert abs(omega_prime(j) - d_omega / d_tau) < 1e-8


def test_omega_prime_stationary_tau_raises():
    # pick a jet with tau_x + tau_y y_x = 0
    x, y = 0.6, 0.4
    g = jc.gradn(lambda a, b, c: red.tau_coordinate(a, b), (x, y, 0.0))
    y_x = -g[0] / g[1]
    with pytest.raises(InversionDomain):
        omega_prime(chart.jet1(x, y, 0.0, y_x, 0.0))


def test_omega_prime_near_x_zero_raises_domain_error():
    # tau's derivative squares sin x, which underflows for 0 < |x| < 1.5e-154
    for x in (1e-200, -1e-160, 5e-324):
        with pytest.raises(jc.DomainError, match="squared denominator underflows"):
            omega_prime(chart.jet1(x, 0.3, 0.0, 0.2, 0.3))
    cols = chart.JetColumns(np.array([0.4, 1e-200]), np.array([0.3, 0.3]), 0.0, np.array([0.2, 0.2]))
    with pytest.raises(jc.DomainError, match=r"at index \(1,\)"):
        omega_prime(cols)


def test_tau_defined_is_where_omega_prime_evaluates():
    tiny = jc._SQUARE_UNDERFLOW
    xs = [0.4, -0.3, 1e-150, tiny, math.nextafter(tiny, 0.0), -1e-160, 5e-324, 0.0]
    for x in xs:
        j = chart.jet1(x, 0.3, 0.0, 0.2, 0.3)
        if red.tau_defined(x):
            assert math.isfinite(omega_prime(j))
        else:
            with pytest.raises(jc.DomainError):
                omega_prime(j)
    assert red.tau_defined(np.array(xs)).tolist() == [True] * 4 + [False] * 4


# ------------------------------------------------------------ alpha inversion

def test_alpha_trivial_stationary_sample():
    # omega' = 0 with theta ~ 0 (tau near pi/2): alpha = S * k / omega^2
    tau = math.pi / 2 - 1e-9
    omega, k = 0.7, 0.3
    alpha = float(alpha_from_sample(tau, omega, 0.0, k))
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
        alpha = alpha_from_sample(tau, omega, w_prime, k)
        reproduced = [
            reduced_omega_prime(tau, omega, alpha, k, branch)
            for branch in ("+", "-")
        ]
        assert min(abs(r - w_prime) for r in reproduced) < 1e-9 * (1.0 + abs(w_prime))
        count += 1


def test_alpha_branch_symmetry():
    # the inversion takes no branch: omega' from either branch of the
    # forward relation inverts to the same alpha (cos^2 of an odd flip)
    alpha = float(alpha_from_sample(0.8, 0.6, 1.3, 0.4))
    for branch in ("+", "-"):
        w_prime = reduced_omega_prime(0.8, 0.6, alpha, 0.4, branch)
        assert abs(float(alpha_from_sample(0.8, 0.6, w_prime, 0.4)) - alpha) < 1e-12


def test_alpha_domain_errors():
    with pytest.raises(InversionDomain):
        alpha_from_sample(0.8, 1.0, 0.5, 0.3)
    with pytest.raises(InversionDomain):
        alpha_from_sample(0.8, 0.0, 0.5, 0.3)
    with pytest.raises(InversionDomain):
        alpha_from_sample(0.0, 0.5, 0.5, 0.3)  # tan tau = 0
    with pytest.raises(InversionDomain):
        alpha_from_sample(0.8, 0.5, math.inf, 0.3)
    for branch in ("x", 1, -1.0, "plus", "minus"):
        with pytest.raises(ValueError):
            reduced_omega_prime(0.8, 0.5, 0.3, 0.3, branch=branch)


def test_reduced_omega_prime_rejects_bad_arccos_argument():
    # alpha far above the admissible band makes the arccos argument > 1
    with pytest.raises(InversionDomain):
        reduced_omega_prime(0.8, 0.5, 100.0, 0.9)


# ------------------------------------------------- alpha along trajectories

def test_alpha_constant_along_geodesic(standard_trajectory):
    k = geo.infer_k(standard_trajectory.jet(0))
    alphas, rows = red.alpha_series(standard_trajectory, k)
    assert len(alphas) > 700
    rel_dev = (alphas.max() - alphas.min()) / abs(alphas.mean())
    assert rel_dev < 1e-5
    assert rows.shape == alphas.shape and np.all(np.diff(rows) > 0)
    assert rows[0] > 0 and rows[-1] == len(standard_trajectory) - 1  # row 0 sits at x = 0


def test_alpha_series_takes_one_pass_and_one_tan_sweep(standard_trajectory, monkeypatch):
    calls = {"_tan": 0, "directional": 0}

    def counted(name):
        real = getattr(red, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(red, name, wrapper)

    counted("_tan")
    counted("directional")
    alphas, _ = red.alpha_series(standard_trajectory, 0.3)
    assert len(alphas) > 700
    assert calls == {"_tan": 1, "directional": 1}
    for name in ("omega_prime", "_sample_terms", "alpha_from_sample", "InversionDomain"):
        assert not hasattr(red, name)


@pytest.mark.parametrize("plant", ["alpha", "omega_prime"])
def test_a_nan_at_an_admissible_row_fails_the_report(standard_trajectory, monkeypatch, tmp_path,
                                                      plant):
    _, rows = red.alpha_series(standard_trajectory, 0.3)
    if plant == "alpha":
        real_alpha = red._alpha

        def planted(*args):
            alpha = real_alpha(*args)
            alpha[3] = math.nan
            return alpha

        monkeypatch.setattr(red, "_alpha", planted)
    else:  # d omega is nan where d tau is not 0: omega' is nan, no stationary tau
        real_directional = red.directional

        def planted(f, args, direction):
            values, (d_omega, d_tau) = real_directional(f, args, direction)
            d_omega = d_omega.copy()
            d_omega[rows[3] - 1] = math.nan  # the pass skips row 0, where x = 0
            return values, (d_omega, d_tau)

        monkeypatch.setattr(red, "directional", planted)
    row = int(rows[3])
    report = red.reduction_report(standard_trajectory)
    assert report["alpha_mean"] is None and report["alpha_rel_dev"] is None
    assert report["alpha_reason"] == (f"alpha is nan at admissible row {row}"
                                      f" (x = {float(standard_trajectory.x[row])!r})")
    assert (report["samples"], report["excluded_rows"]) == (rows.size, len(standard_trajectory)
                                                            - rows.size)
    path = tmp_path / "trajectory.csv"
    standard_trajectory.to_csv(path)
    assert main(["reduce", str(path), "--out", str(tmp_path / "reduction.json")]) == 1


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
        s2 = sym.prolong2_apply(sym.chi(3), lambda x, y, v, y_x, v_x, y_xx, v_xx:
                                red.s2_residual(x, y, y_x, y_xx), j2)
        worst = max(worst, abs(s2))
    assert worst < 1e-8
