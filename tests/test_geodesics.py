import io
import math

import numpy as np
import pytest

from glome import chart, geodesics as geo
from glome import jetcalc as jc, tape
from glome import reduction as red
from reference import el_expression_v, el_expression_y


def d1(f, x0):
    """f'(x0): one dual seeded with direction 1."""
    return jc.directional(f, (x0,), (1.0,))[1]


def jets_of(columns):
    """One validated float jet (chart.jet1) for each sample of n columns."""
    return [chart.jet1(*row) for row in zip(*(c.tolist() for c in columns[:5]))]


# ------------------------------------------------------------------- el_rhs

def test_el_rhs_rest_states_are_fixed_points():
    for p in chart.sample_domain(30, 0.1, seed=0):
        y_xx, v_xx = geo.el_rhs(p)
        assert abs(y_xx) < 1e-15
        assert abs(v_xx) < 1e-15


def test_el_rhs_reduces_to_sphere_equation_on_slice():
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = float(rng.uniform(-1.2, 1.2))
        v = float(rng.uniform(0.0, 6.28))
        y_x = float(rng.uniform(-2.0, 2.0))
        j = chart.jet1(x, 0.0, v, y_x, 0.0)
        y_xx, v_xx = geo.el_rhs(j)
        expected = 2.0 * y_x * math.tan(x) + y_x**3 * math.sin(x) * math.cos(x)
        assert abs(y_xx - expected) < 1e-12 * (1.0 + abs(expected))
        assert abs(v_xx) < 1e-13


def arc_acceleration_oracle(j):
    """Ambient acceleration in arclength parametrization at the jet.

    Builds the curve t -> embed(x+t, y(t), v(t)) with curvatures from
    el_rhs, then converts the x-parametrized derivatives to arclength:
    a_s = (gamma'' L - gamma' L') / L^3.  On a unit sphere a geodesic
    satisfies a_s = -gamma.
    """
    y_xx, v_xx = geo.el_rhs(j)

    def pos(i):
        def f(t):
            x = j.x + t
            y = j.y + j.y_x * t + 0.5 * y_xx * t * t
            v = j.v + j.v_x * t + 0.5 * v_xx * t * t
            return chart.ambient_coords(x, y, v)[i]

        return f

    def speed(t):
        total = 0.0
        for i in range(4):
            d = d1(pos(i), t)
            total = total + d * d
        return jc.sqrt(total)

    lam = speed(0.0)
    lam_prime = d1(speed, 0.0)
    gamma = [pos(i)(0.0) for i in range(4)]
    accel = []
    for i in range(4):
        vel = d1(pos(i), 0.0)
        acc = d1(lambda t, i=i: d1(pos(i), t), 0.0)
        accel.append((acc * lam - vel * lam_prime) / lam**3)
    return np.array(accel), np.array(gamma)


def test_el_rhs_ambient_acceleration_is_radial():
    j = chart.jet1(0.2, 0.1, 0.5, 0.4, -0.6)
    a_s, gamma = arc_acceleration_oracle(j)
    assert np.max(np.abs(a_s + gamma)) < 1e-8


def test_el_rhs_ambient_acceleration_random_states():
    slopes = np.random.default_rng(2 + 0x9E3779B9).uniform(-1.5, 1.5, (25, 2))
    c = chart.domain_columns(25, 0.15, seed=2)._replace(y_x=slopes[:, 0], v_x=slopes[:, 1])
    for j in jets_of(c):
        a_s, gamma = arc_acceleration_oracle(j)
        assert np.max(np.abs(a_s + gamma)) < 1e-8


def test_el_rhs_singular_far_outside_conditioning():
    with pytest.raises(geo.SingularSystem):
        geo.el_rhs(chart.jet1(0.5, 0.5, 0.0, 1e8, 1e8))


def test_lone_kernel_divides_by_a_zero_determinant_as_an_array_does():
    # slopes of 1e154 underflow the determinant to 0.0: Cramer's rule on a
    # float state gives numpy's quotients, not a ZeroDivisionError
    state = (0.5, 0.5, 1e154, 1e154)
    with np.errstate(all="ignore"):
        lone = geo._curvatures(*state)
        column = geo._curvatures(*(np.array([a]) for a in state))
    assert lone[2] == 0.0
    assert np.array(lone).tobytes() == np.concatenate(column).tobytes()
    with pytest.raises(geo.SingularSystem, match=r"det = 0\)"):
        geo.el_rhs(chart.jet1(0.5, 0.5, 0.0, 1e154, 1e154))


class _ShapeRecorder(np.ndarray):
    """An ndarray that notes the shapes of the array operands of every ufunc
    call it takes part in, and passes the notes on to its results."""

    calls: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        self.calls.append(tuple(a.shape for a in inputs if isinstance(a, np.ndarray)))
        plain = (a.view(np.ndarray) if isinstance(a, _ShapeRecorder) else a for a in inputs)
        result = getattr(ufunc, method)(*plain, **kwargs)
        return result.view(_ShapeRecorder) if isinstance(result, np.ndarray) else result


def test_lone_kernel_pass_broadcasts_nothing(monkeypatch):
    # every array of a float state's nested pass descends from the lone seed
    # rows, so viewing them as recorders sees every numpy call the pass
    # makes: the dual pass that records the tape (reset here) and the
    # tape's replay
    state = (0.1, 0.2, 0.3, 0.4)
    want = np.array(geo._curvatures(*state)).tobytes()
    monkeypatch.setattr(geo, "_LONE_SEEDS", tuple(s.view(_ShapeRecorder) for s in geo._LONE_SEEDS))
    monkeypatch.setattr(geo, "_kernel_tape", None)
    monkeypatch.setattr(_ShapeRecorder, "calls", [])
    got = geo._curvatures(*state)
    assert len(_ShapeRecorder.calls) > 50
    assert {shape for call in _ShapeRecorder.calls for shape in call} == {(9,)}
    assert np.array(got).tobytes() == want


def test_wide_seeds_are_cut_from_the_seed_table():
    # each broadcast seed, spread over the (3, 3) grid and the batch, is its
    # _GRID_SEEDS row as a grid, with y_x in y's outer D_x row
    rng = np.random.default_rng(44)
    for shape in ((5,), (3, 4)):
        y, y_x = rng.uniform(-1.0, 1.0, (2,) + shape)
        ones = (1,) * len(shape)
        seeds = geo._seeds(y, y_x)
        assert len(seeds) == 8
        for row, seed in enumerate(seeds):
            want = np.empty((3, 3) + shape)
            want[...] = geo._GRID_SEEDS[row].reshape((3, 3) + ones)
            if row == 5:
                want[0] = y_x
            got = np.broadcast_to(seed, (3, 3) + shape)
            assert got.tobytes() == want.tobytes(), (shape, row)


def test_a_narrow_batch_pass_broadcasts_nothing(monkeypatch):
    # every array of a narrow batch's replay descends from the grid seeds,
    # so viewing them as recorders sees every numpy call the replay makes:
    # each is elementwise on the 9 * 11 stacked grid cells, and the Cramer
    # solve after it on the batch's own 11 columns
    rng = np.random.default_rng(43)
    state = (0.3, *rng.uniform(-1.0, 1.0, (3, 11)))
    want = np.array(geo._curvatures(*state)).tobytes()  # records the tape
    replay, replayed = geo._kernel_tape, []

    def watched(*args):
        result = replay(*args)
        replayed.append(len(_ShapeRecorder.calls))
        return result

    monkeypatch.setattr(geo, "_GRID_SEEDS", geo._GRID_SEEDS.view(_ShapeRecorder))
    monkeypatch.setattr(geo, "_kernel_tape", watched)
    monkeypatch.setattr(_ShapeRecorder, "calls", [])
    got = geo._curvatures(*state)
    [end] = replayed
    assert end > 50
    assert {shape for call in _ShapeRecorder.calls[:end] for shape in call} == {(99,)}
    assert {shape for call in _ShapeRecorder.calls[end:] for shape in call} == {(11,)}
    assert np.array(got).tobytes() == want


def test_lone_states_replay_one_recording(monkeypatch):
    # the first kernel call, a float state's or a batch's, records the tape
    # in one nested pass (two directional calls); every later one, a whole
    # lone run's, a lockstep run's and a batch's, replays it
    counts = {"record": 0, "directional": 0}
    record, directional = tape.record, geo.directional

    def counted_record(*args):
        counts["record"] += 1
        return record(*args)

    def counted_directional(*args):
        counts["directional"] += 1
        return directional(*args)

    monkeypatch.setattr(tape, "record", counted_record)
    monkeypatch.setattr(geo, "directional", counted_directional)
    batch = (0.3, np.array([-0.2, 0.4]), np.array([0.7, 0.1]), np.array([-1.1, 0.5]))
    for first in ((0.3, -0.2, 0.7, -1.1), batch):
        counts.update(record=0, directional=0)
        monkeypatch.setattr(geo, "_kernel_tape", None)
        geo._curvatures(*first)
        assert counts == {"record": 1, "directional": 2}
        geo._curvatures(*batch)
        geo._curvatures(0.3, -0.2, 0.7, -1.1)
        traj = geo.integrate(chart.jet1(0.0, 0.2, 0.3, 0.1, 0.2), 0.5, 1e-3)
        assert len(traj) == 501
        runs = geo.integrate_batch([chart.jet1(0.0, 0.2, 0.3, 0.1, 0.2),
                                    chart.jet1(0.1, -0.3, 0.0, 0.2, -0.1)], 0.2, 1e-2)
        assert [len(r) for r in runs] == [21, 11]
        assert counts == {"record": 1, "directional": 2}


def test_el_expressions_vanish_on_shell():
    for j in jets_of(chart.jet_columns(50, 0.1, seed=3)):
        y_xx, v_xx = geo.el_rhs(j)
        args = (j.x, j.y, j.v, j.y_x, j.v_x, y_xx, v_xx)
        assert abs(el_expression_y(*args)) < 1e-13
        assert abs(el_expression_v(*args)) < 1e-13


# ----------------------------------------------------------- noether charge

def test_noether_charge_zero_when_v_frozen():
    j = chart.jet1(0.4, -0.3, 2.0, 1.2, 0.0)
    assert geo.noether_charge(j) == 0.0


def test_noether_charge_simple_value():
    j = chart.jet1(0.0, 0.0, 0.0, 0.0, 1.0)
    assert abs(geo.noether_charge(j) - 1.0 / math.sqrt(2.0)) < 1e-15


def test_noether_charge_matches_jet_partial():
    # cross-check the closed form against a dual-number partial of the integrand
    c = chart.jet_columns(100, 0.1, seed=4)
    _, slope = jc.directional(chart.arc_speed, (c.x, c.y, c.y_x, c.v_x), (0.0, 0.0, 0.0, 1.0))
    assert np.max(np.abs(geo.noether_charge(c) - slope)) < 1e-14


def test_noether_charge_conserved_along_trajectory(standard_trajectory):
    assert standard_trajectory.noether_drift() < 1e-8


# --------------------------------------------------------------- collapsed E

def test_collapsed_E_trivial_zero():
    for x in (0.3, -0.8, 1.1):
        for k in (0.0, 0.5, 1.0):
            assert geo.collapsed_E(x, 0.0, 0.0, 0.0, k) == 0.0


def test_collapsed_E_at_k_zero_factors_through_sphere_equation():
    # E(k=0) = cos^3x cos^3y * (y_xx - 2 y_x tan x - y_x^3 sin x cos x)
    rng = np.random.default_rng(5)
    for _ in range(200):
        x = float(rng.uniform(-1.2, 1.2))
        y = float(rng.uniform(-1.2, 1.2))
        y_x = float(rng.uniform(-2.0, 2.0))
        y_xx = float(rng.uniform(-2.0, 2.0))
        e = geo.collapsed_E(x, y, y_x, y_xx, 0.0)
        factor = math.cos(x) ** 3 * math.cos(y) ** 3
        expected = factor * red.s2_residual(x, y, y_x, y_xx)
        assert abs(e - expected) <= 1e-12 * (1.0 + abs(expected))


def test_collapsed_E_linear_in_k():
    x, y, y_x, y_xx = 0.4, -0.3, 1.1, 0.6
    e0 = geo.collapsed_E(x, y, y_x, y_xx, 0.0)
    e1 = geo.collapsed_E(x, y, y_x, y_xx, 1.0)
    for k in (0.25, 0.5, 0.9):
        direct = geo.collapsed_E(x, y, y_x, y_xx, k)
        assert abs(direct - (e0 + k * (e1 - e0))) < 1e-14


def test_collapsed_E_vanishes_along_trajectory(standard_trajectory):
    k = geo.infer_k(standard_trajectory.jet(0))
    worst = 0.0
    for i in range(len(standard_trajectory)):
        j = standard_trajectory.jet(i)
        y_xx, _ = geo.el_rhs(j)
        worst = max(worst, abs(geo.collapsed_E(j.x, j.y, j.y_x, y_xx, k)))
    assert worst < 1e-7


# ------------------------------------------------------------------ infer_k

def test_infer_k_planar_geodesic_gives_zero(planar_trajectory):
    k = geo.infer_k(planar_trajectory.jet(0))
    assert type(k) is float and k == 0.0
    # with k = 0 the collapsed equation holds along the whole planar run
    worst = 0.0
    for i in range(len(planar_trajectory)):
        j = planar_trajectory.jet(i)
        y_xx, _ = geo.el_rhs(j)
        worst = max(worst, abs(geo.collapsed_E(j.x, j.y, j.y_x, y_xx, 0.0)))
    assert worst < 1e-7


def test_infer_k_against_grid_search_oracle(standard_trajectory):
    from glome.suites import grid_search_k

    k = geo.infer_k(standard_trajectory.jet(0))
    k_star = grid_search_k(standard_trajectory)
    assert abs(k - k_star) < 1e-3


def test_infer_k_simple_state():
    # c = 1/sqrt(2) at this state, so the constant is exactly one half
    k = geo.infer_k(chart.jet1(0.0, 0.0, 0.0, 0.0, 1.0))
    assert abs(k - 0.5) < 1e-15


def test_infer_k_simple_state_grid_cross_check():
    # Same state, integrated short of its turning point at x = pi/4.  This
    # geodesic keeps y identically zero, so the collapsed equation vanishes
    # for every k and the grid argmin is arbitrary; the meaningful oracle
    # statement is that the inferred k achieves the grid optimum.
    traj = geo.integrate(chart.jet1(0.0, 0.0, 0.0, 0.0, 1.0), 0.7, 1e-3)
    k = geo.infer_k(traj.jet(0))
    assert abs(k - 0.5) < 1e-15

    # the curvature RK4 kept at each sample equals el_rhs there bitwise
    # (test_integrate_keeps_rk4_curvature_bitwise)
    y_xx = traj.curvature[:, 0].tolist()

    def max_E(kv):
        worst = 0.0
        for i in range(len(traj)):
            j = traj.jet(i)
            worst = max(worst, abs(geo.collapsed_E(j.x, j.y, j.y_x, y_xx[i], kv)))
        return worst

    grid_best = min(max_E(kv) for kv in np.linspace(0.0, 1.0, 101))
    assert max_E(k) < 1e-7
    assert max_E(k) <= grid_best + 1e-12


def test_infer_k_constant_along_geodesic(standard_trajectory):
    k0 = geo.infer_k(standard_trajectory.jet(0))
    for i in (100, 400, 799):
        ki = geo.infer_k(standard_trajectory.jet(i))
        assert abs(ki - k0) < 1e-6


def test_k_constant_range_validation(monkeypatch):
    j = chart.jet1(0.0, 0.0, 0.0, 0.0, 1.0)
    assert type(geo.infer_k(j)) is float
    # a planted charge whose square escapes [0, 1] or is nan
    for charge, shown in ((1.1, "1.21"), (math.nan, "nan")):
        monkeypatch.setattr(geo, "noether_charge", lambda j, c=charge: c)
        with pytest.raises(geo.OutOfRange, match=rf"k must lie in \[0, 1\], got {shown}"):
            geo.infer_k(j)


# ---------------------------------------------------------------- integrate

def test_integrate_rest_state_is_constant():
    traj = geo.integrate(chart.jet1(0.0, 0.2, 1.0, 0.0, 0.0), 0.5, 1e-3)
    assert np.max(np.abs(traj.samples[:, 1] - 0.2)) < 1e-12
    assert np.max(np.abs(traj.samples[:, 2] - 1.0)) < 1e-12
    assert np.max(np.abs(traj.samples[:, 3:5])) < 1e-12


def test_integrate_unit_norm_residual():
    traj = geo.integrate(chart.jet1(0.1, -0.2, 0.5, 0.3, 0.6), 0.6, 1e-3)
    assert np.max(traj.ambient_norm_residual) < 1e-12


def test_integrate_monotone_x_both_directions():
    fwd = geo.integrate(chart.jet1(0.0, 0.1, 0.0, 0.2, 0.1), 0.4, 1e-3)
    assert np.all(np.diff(fwd.x) > 0)
    bwd = geo.integrate(chart.jet1(0.0, 0.1, 0.0, 0.2, 0.1), -0.4, 1e-3)
    assert np.all(np.diff(bwd.x) < 0)


def test_integrate_endpoint_matches_great_circle(standard_trajectory):
    assert geo.endpoint_error_vs_great_circle(standard_trajectory) < 1e-7


def test_integrate_backward_matches_great_circle():
    traj = geo.integrate(chart.jet1(0.3, 0.2, 0.4, -0.3, 0.5), -0.5, 1e-3)
    assert geo.endpoint_error_vs_great_circle(traj) < 1e-7


def test_integrate_observed_order_is_four():
    # each halving of the step divides the endpoint error by about 2^4 = 16
    # (15.6 and 15.9 here); a third-order slip such as k4 taken from k2
    # gives about 8, under every tolerance of the report
    j0 = chart.jet1(0.0, 0.0, 0.0, 0.4, 0.7)
    errors = [geo.endpoint_error_vs_great_circle(geo.integrate(j0, 0.8, step))
              for step in (1e-2, 5e-3, 2.5e-3)]
    ratios = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
    assert all(14.0 <= r <= 18.0 for r in ratios), (errors, ratios)


def _harmonic(x, u):
    """Slopes of y'' = -y, v'' = -v at a state (y, v, y_x, v_x) in either form."""
    if isinstance(u, tuple):
        y, v, y_x, v_x = u
        return y_x, v_x, -y, -v
    return np.array([u[2], u[3], -u[0], -u[1]])


def _rk4_steps(x, u, dx, steps):
    for _ in range(steps):
        u = geo._rk4_step(_harmonic, x, u, dx, _harmonic(x, u))
        x = x + dx
    return u


def test_rk4_core_is_fourth_order_and_each_column_repeats_its_lone_step():
    # from (y, v, y_x, v_x) = (a, b, c, d) at x = 0 the exact solution is
    # y = a cos x + c sin x, v = b cos x + d sin x, so halving the step
    # divides the endpoint error by about 2^4
    a, b, c, d = start = (0.3, -0.2, 0.5, 0.1)
    cos, sin = math.cos(1.0), math.sin(1.0)
    exact = (a * cos + c * sin, b * cos + d * sin, c * cos - a * sin, d * cos - b * sin)
    errors = [max(abs(p - q) for p, q in zip(_rk4_steps(0.0, start, h, round(1.0 / h)), exact))
              for h in (0.05, 0.025)]
    assert 15.0 <= errors[0] / errors[1] <= 17.0, errors
    # a (4, m) array with one abscissa and one step per column gives each
    # column its lone float run bitwise
    rng = np.random.default_rng(5)
    starts = rng.uniform(-1.0, 1.0, (4, 6))
    x0, dx = rng.uniform(-0.5, 0.5, 6), rng.uniform(-0.05, 0.05, 6)
    batch = _rk4_steps(x0, starts, dx, 7)
    for col in range(6):
        lone = _rk4_steps(float(x0[col]), tuple(starts[:, col].tolist()), float(dx[col]), 7)
        assert all(type(s) is float for s in lone)
        assert batch[:, col].tobytes() == np.array(lone).tobytes()


def test_integrate_step_validation():
    j0 = chart.jet1(0.0, 0.0, 0.0, 0.1, 0.1)
    with pytest.raises(ValueError):
        geo.integrate(j0, 0.5, 0.5)
    with pytest.raises(ValueError):
        geo.integrate(j0, 0.5, 0.0)


def test_integrate_domain_exit_carries_partial_trajectory():
    j0 = chart.jet1(1.4, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(geo.DomainExit) as err:
        geo.integrate(j0, 1.55, 1e-3)
    exc = err.value
    assert exc.trajectory is not None and len(exc.trajectory) > 1
    assert exc.trajectory.curvature is None
    assert exc.x <= 1.55
    assert abs(exc.x) > math.pi / 2 - 0.05 - 1e-9
    # a breach stops at the step's end x, one step past the last row (1.52)
    assert exc.trajectory.x[-1] == pytest.approx(1.52, abs=1e-12)
    assert exc.x == pytest.approx(exc.trajectory.x[-1] + 1e-3, abs=1e-12)


def test_integrate_stage_off_chart_is_domain_exit():
    # the first RK4 stage lands at y = 1.5 + 0.5 * 1e-2 * 20 = 1.6 > pi/2
    with pytest.raises(geo.DomainExit) as err:
        geo.integrate(chart.jet1(0.0, 1.5, 0.0, 20.0, 0.0), 0.5, 1e-2)
    assert len(err.value.trajectory) == 1


def test_stage_abscissae_stay_on_the_chart(monkeypatch):
    # _stage tests only the state: every row has |x| <= pi/2 - POLE_MARGIN and a
    # stage lies at most one step ahead of its row, so this keeps |x| < pi/2
    assert geo.MAX_STEP < geo.POLE_MARGIN
    real, seen = geo._stage, []

    def recording(x, u, stopped, at):
        seen.append(float(np.max(np.abs(x))))
        return real(x, u, stopped, at)

    monkeypatch.setattr(geo, "_stage", recording)
    lim = chart.HALF_PI - geo.POLE_MARGIN
    jets = [chart.jet1(x0, 0.0, 0.0, 0.0, 0.0) for x0 in (1.3, -1.3, 1.3, -1.3)]
    results = geo.integrate_batch(jets, [lim, -lim, 1.6, -1.6],
                                  [geo.MAX_STEP, -geo.MAX_STEP, geo.MAX_STEP, -geo.MAX_STEP])
    assert [type(r) for r in results] == [geo.Trajectory] * 2 + [geo.DomainExit] * 2
    assert results[0].x[-1] == pytest.approx(lim, abs=1e-12)
    assert max(seen) > lim and max(seen) < chart.HALF_PI


_OFF_CHART = [pytest.param(slot, value, id=f"{name}-{label}")
              for slot, name in enumerate(["y", "v", "y_x", "v_x"])
              for value, label in [(math.inf, "inf"), (-math.inf, "neg_inf"), (math.nan, "nan")]]
_OFF_CHART += [pytest.param(0, chart.HALF_PI, id="y-half_pi"),
               pytest.param(0, -chart.HALF_PI, id="y-neg_half_pi"),
               pytest.param(0, math.nextafter(chart.HALF_PI, 0.0), id="y-below_half_pi")]


@pytest.mark.parametrize("slot, value", _OFF_CHART)
def test_stage_records_an_infinite_column_and_does_not_raise(slot, value):
    # a lone state's four floats, one column and two columns all record the
    # same outcome at the step start: a DomainExit naming the stage's
    # abscissa and state for a state off the open chart, or non-finite; the
    # last state y just below pi/2 passes the chart test and its kernel meets
    # a singular system.  The healthy column keeps its lone slopes.
    state = [0.0, 0.0, 0.1, 0.1]
    state[slot] = value
    healthy = [0.2, 0.0, 0.1, 0.1]
    forms = [(0.3, tuple(state), 0.25)]
    forms += [(np.full(len(u), 0.3), np.array(u).T, np.full(len(u), 0.25))
              for u in ([state], [state, healthy])]
    records = []
    for x, u, at in forms:
        stopped = {}
        with np.errstate(all="ignore"):
            k = geo._stage(x, u, stopped, at)
        assert list(stopped) == [0]
        if isinstance(u, tuple):
            assert k == (0.0, 0.0, 0.0, 0.0)
        else:
            assert np.all(k[:, 0] == 0.0)
        records.append((type(stopped[0]), stopped[0].x, str(stopped[0])))
    assert records[0] == records[1] == records[2]
    assert [type(x) for _, x, _ in records] == [float] * 3
    if abs(value) < chart.HALF_PI:
        assert records[0][:2] == (geo.SingularSystem, 0.25)
    else:
        assert records[0] == (geo.DomainExit, 0.25,
                              "an RK4 stage left the open chart in the step from x = 0.25"
                              f" (stage at x = 0.3 has (y, v, y_x, v_x) = {tuple(state)!r})")
    alone = geo._stage(0.3, tuple(healthy), {}, 0.25)
    assert all(type(s) is float for s in alone)
    assert k[:, 1].tobytes() == np.array(alone).tobytes()


@pytest.mark.parametrize("kernel", ["real", "raises_on_arrays"])
def test_a_stage_mixing_every_stop_kind_repeats_each_lone_column(monkeypatch, kernel):
    # one array stage holding a plain column, a column at y = pi/2, a nan
    # v_x, a singular column just below pi/2, a column its step already
    # marks complete and one it already stopped: every column's slopes and
    # new record are its lone state's, and the earlier records are kept
    real = geo._curvatures
    if kernel == "raises_on_arrays":
        def fragile(x, y, y_x, v_x):
            if isinstance(y, np.ndarray):
                raise jc.DomainError("sqrt", -1.0, "planted")
            return real(x, y, y_x, v_x)

        monkeypatch.setattr(geo, "_curvatures", fragile)
    states = [(0.2, 0.0, 0.1, 0.1), (chart.HALF_PI, 0.0, 0.1, 0.1), (0.0, 0.0, 0.1, math.nan),
              (math.nextafter(chart.HALF_PI, 0.0), 0.0, 0.1, 0.1), (0.1, 0.2, 0.3, -0.2),
              (-0.3, 0.1, -0.2, 0.4)]
    x = 0.3 + 0.01 * np.arange(6)
    at = 0.25 + 0.01 * np.arange(6)
    earlier = {4: None, 5: geo.DomainExit(0.3, "an earlier stop at")}
    stopped = dict(earlier)
    with np.errstate(all="ignore"):
        k = geo._stage(x, np.array(states).T, stopped, at)
    assert sorted(stopped) == [1, 2, 3, 4, 5]
    assert stopped[4] is None and stopped[5] is earlier[5]
    for c, state in enumerate(states):
        one = {0: earlier[c]} if c in earlier else {}
        with np.errstate(all="ignore"):
            alone = geo._stage(float(x[c]), state, one, float(at[c]))
        assert k[:, c].tobytes() == np.array(alone).tobytes()
        if c in (1, 2, 3):
            got, want = stopped[c], one[0]
            assert (type(got), got.x, str(got)) == (type(want), want.x, str(want))
    assert [type(stopped[c]) for c in (1, 2, 3)] == [geo.DomainExit] * 2 + [geo.SingularSystem]


def test_integrate_propagates_unrelated_value_error(monkeypatch):
    def broken(x, y, y_x, v_x):
        raise ValueError("not a domain problem")

    monkeypatch.setattr(geo, "_curvatures", broken)
    with pytest.raises(ValueError, match="not a domain problem"):
        geo.integrate(chart.jet1(0.0, 0.1, 0.0, 0.2, 0.3), 0.1, 1e-3)
    jets = [chart.jet1(0.0, 0.1, 0.0, 0.2, 0.3), chart.jet1(0.0, -0.2, 1.0, 0.1, 0.0)]
    with pytest.raises(ValueError, match="not a domain problem"):
        geo.integrate_batch(jets, 0.1, 1e-3)


def _same_trajectory(a, b):
    assert a.samples.tobytes() == b.samples.tobytes()
    for column in ("noether", "lagrangian", "ambient_norm_residual"):
        assert getattr(a, column).tobytes() == getattr(b, column).tobytes(), column
    if a.curvature is None or b.curvature is None:
        assert a.curvature is None and b.curvature is None
    else:
        assert a.curvature.tobytes() == b.curvature.tobytes()


def _lone(j0, x_end, step):
    """What scalar integrate gives for one jet: its trajectory or its exception."""
    try:
        return geo.integrate(j0, x_end, step)
    except (geo.DomainExit, geo.SingularSystem) as err:
        return err


def _same_outcome(got, want):
    assert type(got) is type(want)
    if isinstance(want, Exception):
        assert str(got) == str(want) and got.x == want.x
        if want.trajectory is None:
            assert got.trajectory is None
        else:
            _same_trajectory(got.trajectory, want.trajectory)
    else:
        _same_trajectory(got, want)


@pytest.mark.parametrize("x0, others, x_end, step", [
    # leaves the pole margin after a few steps
    (0.0, [(1.4, 0.0, 5.0, 0.0)], 0.5, 1e-3),
    # first RK4 stage at y = 1.5 + 0.5 * 1e-2 * 20 = 1.6: off the chart
    (0.0, [(1.5, 0.0, 20.0, 0.0)], 0.5, 1e-2),
    # singular Euler-Lagrange system at the first sample
    (0.5, [(0.5, 0.0, 1e8, 1e8)], 0.6, 1e-3),
    # singular at its only sample (x_end = x0): the failure wins over completion
    (0.5, [(0.5, 0.0, 1e8, 1e8)], 0.5, 1e-3),
    # already outside the margin, and a turning point (singular at x = pi/4)
    (0.0, [(1.54, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0)], 0.8, 1e-3),
    # slopes whose integrand overflows: a row Trajectory refuses
    (0.0, [(0.3, 0.0, 1e200, 0.0)], 0.5, 1e-3),
], ids=["margin", "stage_off_chart", "singular", "singular_at_final_sample",
        "initial_and_turning_point", "initial_integrand_overflow"])
def test_integrate_batch_freezes_only_the_failing_jet(x0, others, x_end, step):
    healthy = [(0.1, 0.0, 0.2, 0.3), (-0.2, 1.0, -0.1, 0.0)]
    jets = [chart.jet1(x0, *healthy[0]), *(chart.jet1(x0, *o) for o in others),
            chart.jet1(x0, *healthy[1])]
    results = geo.integrate_batch(jets, x_end, step)
    assert len(results) == len(jets)
    assert isinstance(results[0], geo.Trajectory) and isinstance(results[-1], geo.Trajectory)
    assert all(isinstance(r, (geo.DomainExit, geo.SingularSystem)) for r in results[1:-1])
    for j0, got in zip(jets, results):
        _same_outcome(got, _lone(j0, x_end, step))


def _overflowing_v_xx(x, y, y_x, v_x):
    """A stand-in kernel: zero y_xx, a unit determinant, and v_xx = 1e308 at
    abscissae from 0.0525 on, so the weighted sum of the step from x = 0.05
    overflows while each of its stages stays finite."""
    return 0.0 * y, 0.0 * y + 1e308 * (x >= 0.0525), 1.0 + 0.0 * y


@pytest.mark.parametrize("stopper, x_end, step, kernel, kind, cause", [
    ((0.0, 1.4, 0.0, 5.0, 0.0), 0.5, 1e-3, None, geo.DomainExit,
     "trajectory breached the pole margin near x = 0.025"),
    ((0.0, 0.5, 0.0, 8.0, 0.0), 0.5, 1e-2, None, geo.DomainExit,
     "an RK4 stage left the open chart in the step from x = 0.1 "),
    ((0.0, 0.0, 0.0, 0.0, 1.0), 0.8, 1e-3, None, geo.SingularSystem,
     "Euler-Lagrange system singular"),
    ((0.0, 0.1, 0.0, 0.2, 0.0), 0.5, 1e-2, _overflowing_v_xx, geo.DomainExit,
     "trajectory state became non-finite at x = 0.06"),
    ((0.0, 0.1, 0.0, 0.2, 0.3), 0.3, 1e-3, None, geo.Trajectory, None),
], ids=["margin", "stage_off_chart", "singular", "non_finite_state", "complete"])
def test_the_last_live_jet_goes_on_as_a_lone_run(monkeypatch, stopper, x_end, step, kernel, kind,
                                                 cause):
    # two healthy jets complete at x = 0.02; the stopper goes on alone, its
    # state as four floats, and stops exactly as a lone run of it does
    if kernel is not None:
        monkeypatch.setattr(geo, "_curvatures", kernel)
    real, lone = geo._stage, []

    def recording(x, u, stopped, at):
        lone.append(isinstance(u, tuple))
        return real(x, u, stopped, at)

    jets = [chart.jet1(0.0, 0.1, 0.0, 0.2, 0.3), chart.jet1(0.0, -0.2, 1.0, -0.1, 0.0),
            chart.jet1(*stopper)]
    x_ends = [0.02, 0.02, x_end]
    monkeypatch.setattr(geo, "_stage", recording)
    results = geo.integrate_batch(jets, x_ends, step)
    healthy_steps = round(0.02 / step) + 1  # each of them runs its final sample's step too
    assert lone[:4 * healthy_steps] == [False] * (4 * healthy_steps)
    assert lone[4 * healthy_steps:] == [True] * (len(lone) - 4 * healthy_steps) != []
    assert [type(r) for r in results] == [geo.Trajectory, geo.Trajectory, kind]
    if cause is not None:
        assert str(results[-1]).startswith(cause)
    for j0, e, got in zip(jets, x_ends, results):
        _same_outcome(got, _lone(j0, e, step))


def test_integrate_batch_completion_wins_over_a_later_stage_failure():
    # x_end = x0 makes the first sample final (realized step 0); the last jet's
    # final step starts at y = 1.50 with slope 20, so its stage 2 lands at
    # y = 1.60, off the chart, after stage 1 found it complete
    jets = [chart.jet1(0.0, 0.1, 0.0, 0.2, 0.3), chart.jet1(0.0, 1.5, 0.0, 20.0, 0.0),
            chart.jet1(0.0, -0.2, 1.0, 0.1, 0.0), chart.jet1(0.0, 1.3, 0.0, 20.0, 0.0)]
    x_end = [0.0, 0.0, 0.01, 0.01]
    results = geo.integrate_batch(jets, x_end, 1e-2)
    assert all(isinstance(r, geo.Trajectory) for r in results)
    assert [len(r) for r in results] == [1, 1, 2, 2]
    for j0, e, got in zip(jets, x_end, results):
        assert got.curvature is not None
        _same_outcome(got, _lone(j0, e, 1e-2))


_STAGE_STOPS = [
    # off the chart at stage 2: y = 1.5 + 0.5 * 1e-2 * 20 = 1.6
    ((0.0, 1.5, 0.0, 20.0, 0.0), 0.5, 1e-2, geo.DomainExit, 0.0),
    # singular at the turning point x = pi/4
    ((0.0, 0.0, 0.0, 0.0, 1.0), 0.8, 1e-3, geo.SingularSystem, 0.785),
]


def _assert_stops_at_step_start(err, kind, x):
    assert type(err) is kind
    assert err.x == err.trajectory.x[-1]
    assert err.x == pytest.approx(x, abs=1e-12)


def test_a_stage_failure_stops_at_its_step_start():
    # a stage abscissa (x_i + h/2 or x_i + h) recorded in place of x_i
    # would still agree between batch and lone runs; pin x_i itself
    for state, x_end, step, kind, x in _STAGE_STOPS:
        with pytest.raises(kind) as err:
            geo.integrate(chart.jet1(*state), x_end, step)
        _assert_stops_at_step_start(err.value, kind, x)
    # one batch, so the step starts are an array with a step per jet
    results = geo.integrate_batch([chart.jet1(*s[0]) for s in _STAGE_STOPS],
                                  [s[1] for s in _STAGE_STOPS], [s[2] for s in _STAGE_STOPS])
    for got, (_, _, _, kind, x) in zip(results, _STAGE_STOPS):
        _assert_stops_at_step_start(got, kind, x)


def test_a_stopped_lone_state_skips_the_kernel(monkeypatch):
    # a lone state already in its step's stop record gets zero slopes without
    # a kernel call: a completing run of s steps makes four calls a step and
    # one at its final sample, and a run stopped by its first stage makes one
    real, calls = geo._curvatures, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(geo, "_curvatures", counted)
    traj = geo.integrate(chart.jet1(0.0, 0.2, 0.3, 0.1, 0.2), 0.5, 1e-3)
    assert len(traj) == 501 and len(calls) == 4 * 500 + 1
    calls.clear()
    with pytest.raises(geo.SingularSystem) as err:  # singular at its first sample
        geo.integrate(chart.jet1(0.5, 0.5, 0.0, 1e8, 1e8), 0.6, 1e-3)
    assert len(err.value.trajectory) == 1 and len(calls) == 1


def test_integrate_batch_isolates_a_domain_error(monkeypatch):
    real = geo._curvatures

    def fragile(x, y, y_x, v_x):
        if np.any(np.asarray(y) > 0.5):
            raise jc.DomainError("sqrt", -1.0, "planted")
        return real(x, y, y_x, v_x)

    jets = [chart.jet1(0.0, 0.1, 0.0, 0.2, 0.3), chart.jet1(0.0, 0.45, 0.0, 0.5, 0.0),
            chart.jet1(0.0, -0.2, 1.0, 0.1, 0.0)]
    want = [geo.integrate(jets[0], 0.2, 1e-2), None, geo.integrate(jets[2], 0.2, 1e-2)]
    monkeypatch.setattr(geo, "_curvatures", fragile)
    results = geo.integrate_batch(jets, 0.2, 1e-2)
    _same_trajectory(results[0], want[0])
    _same_trajectory(results[2], want[2])
    err = results[1]
    assert str(err) == ("an RK4 stage failed a domain guard in the step from x = 0.09"
                        " (sqrt evaluated at -1.0 (planted))")
    _assert_stops_at_step_start(err, geo.DomainExit, 0.09)


def test_a_domain_guard_reads_the_same_alone_and_in_a_batch(monkeypatch):
    # a lone state's guard becomes its DomainExit directly, and a batch that
    # meets a guard evaluates each column again as a lone state's floats, so
    # a lone run, a batch's last live jet and a jet stopped inside a batch
    # all record the guard's float message, which names no index
    real = geo._curvatures

    def guarded(x, y, y_x, v_x):
        jc.sqrt(0.45 - y)
        return real(x, y, y_x, v_x)

    monkeypatch.setattr(geo, "_curvatures", guarded)
    healthy, rising = chart.jet1(0.0, 0.1, 0.0, 0.2, 0.3), chart.jet1(0.0, 0.4, 0.0, 0.5, 0.0)
    lone = _lone(rising, 0.5, 1e-2)
    assert isinstance(lone, geo.DomainExit) and len(lone.trajectory) > 3
    assert str(lone).startswith("an RK4 stage failed a domain guard in the step from x = ")
    assert str(lone).endswith(" (negative radicand))")
    for healthy_end in (0.02, 0.5):  # rising stops as the last live jet, then among two
        results = geo.integrate_batch([healthy, rising], [healthy_end, 0.5], 1e-2)
        _same_outcome(results[1], lone)


def test_integrate_batch_arguments():
    assert geo.integrate_batch([], 0.5, 1e-3) == []
    pair = [chart.jet1(0.0, 0.1, 0.0, 0.0, 0.0), chart.jet1(0.1, 0.1, 0.0, 0.0, 0.0)]
    with pytest.raises(ValueError, match="step"):  # one jet's step outside [MIN_STEP, MAX_STEP]
        geo.integrate_batch(pair, 0.5, [1e-3, 0.02])
    with pytest.raises(ValueError, match="x_end holds 3 values for 2 jets"):
        geo.integrate_batch(pair, [0.5, 0.6, 0.7], 1e-3)
    with pytest.raises(ValueError, match="step holds 1 values for 2 jets"):
        geo.integrate_batch(pair, 0.5, [1e-3])
    with pytest.raises(ValueError):
        geo.integrate_batch([chart.jet1(0.0, 0.1, 0.0, 0.0, 0.0)], 0.5, 0.02)
    with pytest.raises(ValueError, match="step"):
        geo.integrate_batch([chart.jet1(0.0, 0.1, 0.0, 0.0, 0.0)], 0.5, 0.5 * geo.MIN_STEP)
    with pytest.raises(ValueError, match="x_end must not be nan, got nan"):
        geo.integrate_batch([chart.jet1(0.0, 0.1, 0.0, 0.2, 0.0)], math.nan, 1e-2)
    with pytest.raises(ValueError, match=r"x_end must not be nan, got \[0.5, nan\]"):
        geo.integrate_batch(pair, [0.5, math.nan], 1e-3)


def test_integrate_far_x_end_stops_at_the_margin():
    # the grid of x_end = 1e9 has 1e12 steps; only those inside the margin get rows
    near = geo.integrate_batch([chart.jet1(0.0, 0.1, 0.0, 0.2, 0.0)], 2.0, 1e-2)[0]
    far = geo.integrate_batch([chart.jet1(0.0, 0.1, 0.0, 0.2, 0.0)], 1e9, 1e-2)[0]
    for err in (near, far):
        assert isinstance(err, geo.DomainExit)
        assert abs(err.trajectory.x[-1]) <= chart.HALF_PI - geo.POLE_MARGIN
    assert len(far.trajectory) == len(near.trajectory)


def test_trajectory_rejects_off_chart_and_non_finite_rows():
    good = [0.1, 0.2, 0.0, 0.3, 0.4]
    # off the chart, non-finite, and slopes whose integrand overflows
    for bad in ([2.0, 0.2, 0.0, 0.3, 0.4], [0.1, 0.2, 0.0, math.nan, 0.4],
                [0.1, 0.2, 0.0, 1e200, 0.4]):
        with pytest.raises(chart.ChartError, match="trajectory row 1 "):
            geo.Trajectory(np.array([good, bad, good]))


def test_integrate_keeps_rk4_curvature_bitwise(standard_trajectory):
    backward = geo.integrate(chart.jet1(0.3, 0.2, 0.4, -0.3, 0.5), -0.5, 1e-3)
    single = geo.integrate(chart.jet1(0.3, 0.2, 0.4, -0.3, 0.5), 0.3, 1e-3)
    for traj in (standard_trajectory, backward, single):
        assert traj.curvature.shape == (len(traj), 2)
        for i in range(len(traj)):
            assert tuple(traj.curvature[i]) == geo.el_rhs(traj.jet(i))


def test_integrate_initial_state_outside_margin():
    with pytest.raises(geo.DomainExit):
        geo.integrate(chart.jet1(1.53, 0.0, 0.0, 0.0, 0.0), 1.54, 1e-3)


def test_diagnostics_recomputed_not_integrated(standard_trajectory):
    # spot-check: diagnostics columns equal fresh evaluations of the state
    for i in (0, 123, 790):
        j = standard_trajectory.jet(i)
        assert standard_trajectory.noether[i] == geo.noether_charge(j)
        assert standard_trajectory.lagrangian[i] == chart.lagrangian(j)


# ------------------------------------------------------------- great-circle oracle

def test_endpoint_error_of_a_one_row_trajectory_is_zero():
    traj = geo.Trajectory(np.array([[0.3, -0.4, 1.1, 0.2, -0.5]]))
    assert geo.endpoint_error_vs_great_circle(traj) == 0.0


def test_ambient_state_speed_equals_lagrangian():
    for j in jets_of(chart.jet_columns(100, 0.1, seed=7)):
        _, w, speed = geo.ambient_state(j)
        assert abs(speed - chart.lagrangian(j)) < 1e-12
        assert abs(np.linalg.norm(w) - 1.0) < 1e-12


# ---------------------------------------------------------------- CSV round trip

def test_trajectory_csv_round_trip(tmp_path, standard_trajectory):
    path = tmp_path / "traj.csv"
    standard_trajectory.to_csv(path)
    loaded = geo.Trajectory.from_csv(path)
    assert np.array_equal(loaded.samples, standard_trajectory.samples)
    for column in ("noether", "lagrangian", "ambient_norm_residual"):
        stored = getattr(standard_trajectory, column)
        assert getattr(loaded, column).tobytes() == stored.tobytes(), column
    assert loaded.curvature is None  # not part of the CSV form
    first = path.read_text().splitlines()
    assert first[0] == "x,y,v,y_x,v_x,noether_c,lagrangian,ambient_norm_residual"


def _csv_lines(traj):
    buf = io.StringIO()
    traj.to_csv(buf)
    return buf.getvalue().splitlines()


@pytest.mark.parametrize("column", [5, 6, 7])
def test_trajectory_csv_rejects_forged_diagnostic(column):
    traj = geo.Trajectory(np.array([[0.1, 0.2, 0.0, 0.3, 0.4], [0.2, 0.25, 0.1, 0.3, 0.4]]))
    header, first, second = _csv_lines(traj)
    cells = second.split(",")
    cells[column] = repr(float(cells[column]) + 1e-6)
    with pytest.raises(ValueError, match="trajectory row 1: "):
        geo.Trajectory.from_csv(io.StringIO("\n".join([header, first, ",".join(cells)])))


@pytest.mark.parametrize("column, value", [
    (1, "nan"),  # a non-finite cell
    (6, "2.5"),  # a forged diagnostic
    (1, "1.58"),  # a state off the open chart
], ids=["non_finite", "forged_diagnostic", "off_chart"])
def test_trajectory_csv_faults_name_the_same_row(column, value):
    """Every fault the loader meets on the second data row names it as
    trajectory row 1, the 0-based sample index that alpha_reason also uses."""
    traj = geo.Trajectory(np.array([[0.1, 0.2, 0.0, 0.3, 0.4], [0.2, 0.25, 0.1, 0.3, 0.4]]))
    header, first, second = _csv_lines(traj)
    cells = second.split(",")
    cells[column] = value
    with pytest.raises(ValueError, match=r"^trajectory row 1\b"):
        geo.Trajectory.from_csv(io.StringIO("\n".join([header, first, ",".join(cells)])))


def test_trajectory_csv_admits_few_ulp_diagnostics():
    traj = geo.Trajectory(np.array([[0.1, 0.2, 0.0, 0.3, 0.4]]))
    header, row = _csv_lines(traj)
    cells = row.split(",")
    cells[6] = repr(float(np.nextafter(float(cells[6]), 2.0)))  # one ulp off
    loaded = geo.Trajectory.from_csv(io.StringIO("\n".join([header, ",".join(cells)])))
    assert loaded.lagrangian.tobytes() == traj.lagrangian.tobytes()


def test_trajectory_csv_rejects_empty():
    with pytest.raises(ValueError):
        geo.Trajectory.from_csv(io.StringIO(""))


def test_trajectory_csv_rejects_bad_header():
    with pytest.raises(ValueError):
        geo.Trajectory.from_csv(io.StringIO("a,b,c\n1,2,3\n"))


def test_trajectory_csv_rejects_non_monotone():
    header = "x,y,v,y_x,v_x,noether_c,lagrangian,ambient_norm_residual"
    rows = "\n".join([header, "0,0,0,0,0,0,1,0", "0.1,0,0,0,0,0,1,0", "0.05,0,0,0,0,0,1,0"])
    with pytest.raises(ValueError):
        geo.Trajectory.from_csv(io.StringIO(rows))


# ----------------------------------------------------- totally geodesic run

def test_planar_geodesic_stays_planar(planar_trajectory):
    assert np.max(np.abs(planar_trajectory.samples[:, 4])) < 1e-10


def test_planar_geodesic_satisfies_sphere_equation(planar_trajectory):
    worst = 0.0
    for i in range(len(planar_trajectory)):
        j = planar_trajectory.jet(i)
        y_xx, _ = geo.el_rhs(j)
        worst = max(worst, abs(red.s2_residual(j.x, j.y, j.y_x, y_xx)))
    assert worst < 1e-8
