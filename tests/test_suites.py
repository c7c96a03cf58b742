import collections
import dataclasses
import math

import numpy as np
import pytest

from glome import chart
from glome import geodesics as geo
from glome import reduction, suites, symmetries

import reference


@pytest.mark.parametrize("samples, start, end", [
    (100, -0.125, 0.125),
    (1000, -1.25, 1.25),
    (1217, -1.25, 1.25),
    (1300, -1.25, 1.25),
    (5000, -1.25, 1.25),
])
def test_long_run_is_capped_at_ten_thousand_steps(monkeypatch, samples, start, end):
    calls = []
    real = geo.integrate_batch

    def record(jets, x_end, step):
        calls.append(len(jets))
        return real(jets, x_end, step)

    def straight(x, y, y_x, v_x):  # zero curvatures: each RK4 step is cheap
        zero = 0.0 * y
        return zero, zero, zero + 1.0

    monkeypatch.setattr(geo, "integrate_batch", record)
    monkeypatch.setattr(geo, "integrate", None)  # make_batch makes no lone run
    monkeypatch.setattr(geo, "_curvatures", straight)
    cfg = suites.RunConfig(samples=samples, trajectories=1, step=0.01)
    batch = suites.make_batch(cfg)
    assert calls == [7]  # one random, five planar and the long run, in one batch
    long_run = batch.long_run
    assert long_run.x[0] == start and long_run.x[-1] == pytest.approx(end, abs=1e-12)
    assert len(long_run) - 1 == round((end - start) / suites.LONG_RUN_STEP)
    assert round((end - start) / suites.LONG_RUN_STEP) == min(10 * samples, 10_000)
    assert len(batch.trajectories) == 1 and len(batch.planar) == 5


def test_jet1_validates_only_the_drawn_starts(monkeypatch):
    # a run validates numbers once, where they become a jet: the 5 trajectories,
    # 5 totally geodesic runs and the long run of make_batch; rows that a
    # Trajectory already holds are read as they are
    real, calls = chart.jet1, []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(chart, "jet1", counting)
    suites.run_all(suites.RunConfig(samples=50, trajectories=5, step=5e-3))
    assert len(calls) == 11


def test_make_batch_raises_the_first_failure_in_draw_order(monkeypatch):
    def failing(jets, x_end, step):
        return [geo.DomainExit(0.1 * i, f"run {i} stopped at") if i in (2, 4) else None
                for i, _ in enumerate(jets)]

    monkeypatch.setattr(geo, "integrate_batch", failing)
    with pytest.raises(geo.DomainExit, match="run 2"):
        suites.make_batch(suites.RunConfig(samples=10, trajectories=3, step=0.01))


def test_run_size_bounds():
    suites.RunConfig(samples=suites.MAX_SAMPLES)
    with pytest.raises(suites.ConfigError, match="samples must lie in"):
        suites.RunConfig(samples=suites.MAX_SAMPLES + 1)
    # trajectories x round(TRAJECTORY_SPAN / step) rows, at most MAX_TRAJECTORY_ROWS
    for step, most in ((1e-3, 10_000), (1e-5, 100), (0.01, 100_000)):
        suites.RunConfig(trajectories=most, step=step)
        with pytest.raises(suites.ConfigError, match=r"trajectories x steps \(\d+ x \d+\)"):
            suites.RunConfig(trajectories=most + 1, step=step)


def test_margin_leaves_the_onshell_sampler_clear_of_x_zero():
    # past pi/2 - 0.1 the on-shell sampler's x-clearance would reject more than half of
    # the draws, and past about 1.52 every draw, so the sampler would never end; the
    # margin is a constant that no configuration can set
    assert chart.DEFAULT_MARGIN <= chart.HALF_PI - 2 * suites._X_CLEARANCE
    with pytest.raises(TypeError):
        suites.RunConfig(margin=0.2)
    cfg = suites.RunConfig(samples=50)
    assert cfg.margin == chart.DEFAULT_MARGIN
    for f in dataclasses.fields(cfg):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, f.name, getattr(cfg, f.name))
    assert [c.name for c in suites.suite_collapsed_prolongation(cfg)] == ["collapsed_prolongation"]


def test_report_config_records_every_field_with_the_fixed_margin():
    # the sha pins of the report skip where numpy's trig differs from math's; this does not
    config = suites.run_all(suites.RunConfig(samples=50, trajectories=5, step=5e-3))["config"]
    assert list(config) == ["seed", "samples", "margin", "step", "trajectories"]
    assert config == {"seed": 0, "samples": 50, "margin": 0.1, "step": 5e-3, "trajectories": 5}


def test_grid_search_k_does_not_depend_on_its_block_size(monkeypatch):
    traj = geo.integrate(chart.jet1(0.0, 0.2, 0.3, 0.15, 0.2), 0.8, 1e-2)
    k = suites.grid_search_k(traj)
    for block in (1, 3 * len(traj.samples), 1000 * len(traj.samples) + 1):
        monkeypatch.setattr(suites, "_GRID_BLOCK", block)
        assert suites.grid_search_k(traj) == k


def test_grid_search_k_equals_the_plain_brute_force_sweep():
    starts = [(0.0, 0.2, 0.3, 0.15, 0.2), (0.3, -0.4, 1.0, 0.3, -0.45), (-0.2, 0.1, 2.0, -0.2, 0.0),
              (0.1, 0.5, 0.0, 0.05, 0.7)]
    for start in starts:
        traj = geo.integrate(chart.jet1(*start), start[0] + 0.5, 1e-2)
        e0 = suites._collapsed_along(traj, 0.0)
        e1 = suites._collapsed_along(traj, 1.0) - e0
        assert suites.grid_search_k(traj) == reference.plain_k_sweep(e0, e1)


def test_grid_search_k_reads_the_whole_grid_when_a_window_edge_does_not_rise(monkeypatch):
    sizes = []
    real = suites._max_abs_E

    def counted(ks, e0, e1):
        sizes.append(ks.size)
        return real(ks, e0, e1)

    monkeypatch.setattr(suites, "_max_abs_E", counted)
    suites.grid_search_k(geo.integrate(chart.jet1(0.0, 0.2, 0.3, 0.15, 0.2), 0.8, 5e-3))
    assert sizes == [157, 129]  # every 64th row, then 64 rows either side: 286 of 10,001
    # equal E at k = 0 and k = 1 in every row: max |E| is constant, the window's
    # upper edge does not rise, and the whole grid is read once
    sizes.clear()
    assert suites.grid_search_k(reference.rows_with_collapsed_E([1e-9, -2e-9], [1e-9, -2e-9])) == 0.0
    assert sizes == [157, 65, 10001]


def test_a_nan_curvature_fails_the_k_oracle():
    # k is 3.6e-4 here, so an oracle that read 0.0 off an all-nan sweep passed
    traj = geo.integrate(chart.jet1(0.0, 0.2, 0.3, 0.15, 0.02), 0.8, 5e-3)
    assert geo.infer_k(traj.jet(0)) < 1e-3
    traj.curvature[3, 0] = math.nan
    assert math.isnan(suites.grid_search_k(traj))
    checks = {c.name: c.as_dict() for c in
              suites.suite_reduction(suites.TrajectoryBatch([traj], traj, []))}
    oracle = checks["k_grid_agreement"]
    assert (oracle["passed"], oracle["max_residual"]) == (False, None)
    assert oracle["error"] == "max_residual evaluated to nan"


def test_swapped_gradient_components_fail_the_determining_and_bracket_checks(monkeypatch):
    # a planted seed-axis defect: every gradient returns its x and y parts swapped
    from glome import jetcalc, symmetries

    def swap(grad):
        g_x, g_y, *rest = grad
        return (g_y, g_x, *rest)

    cfg = suites.RunConfig(seed=0, samples=200)
    checks = suites.suite_determining(cfg) + suites.suite_bracket_table(cfg)
    assert [(c.name, c.passed) for c in checks] == [("determining_equations", True),
                                                   ("bracket_table", True)]
    def value_and_swapped_gradn(f, args):
        value, grads = jetcalc.value_and_gradn(f, args)  # one gradient per coefficient
        return value, tuple(map(swap, grads))

    monkeypatch.setattr(symmetries, "value_and_gradn", value_and_swapped_gradn)
    checks = suites.suite_determining(cfg) + suites.suite_bracket_table(cfg)
    assert [(c.name, c.passed) for c in checks] == [("determining_equations", False),
                                                   ("bracket_table", False)]


def test_flow_checks_pass_at_points_next_to_x_zero(monkeypatch):
    # tau is defined wherever sin x squares to a normal float, so these
    # points enter the tau-shift check; chi3 is regular at x = 0 itself
    real = chart.domain_columns
    near = [1e-8, -1e-8, 1e-100, 0.0]

    def with_near_zero(n, margin, seed):
        c = real(n, margin, seed)
        x = c.x.copy()
        x[:len(near)] = near
        return c._replace(x=x)

    monkeypatch.setattr(chart, "domain_columns", with_near_zero)
    checks = suites.suite_flow(suites.RunConfig(samples=50))
    assert [c.name for c in checks] == ["flow_omega_invariance", "flow_tau_shift",
                                        "flow_group_property", "omega_chi3_directional"]
    assert all(c.passed for c in checks), [c.as_dict() for c in checks]


def _once(*generators):
    return dict.fromkeys(generators, 1)


@pytest.mark.parametrize("suite, evaluations", [
    (suites.suite_determining, _once(1, 2, 3, 4, 5)),
    (suites.suite_variational, _once(1, 2, 3, 4, 5, 6)),
    (suites.suite_bracket_table, _once(1, 2, 3, 4, 5, 6)),
    (suites.suite_collapsed_prolongation, _once(3)),
    (suites.suite_flow, _once(3)),
], ids=["determining", "variational", "bracket_table", "collapsed_prolongation", "flow"])
def test_each_symmetry_check_evaluates_each_generator_once(monkeypatch, suite, evaluations):
    calls = collections.Counter()

    def counted(i, g):  # chi_i's one definition, counting its evaluations by generator index
        def coefficients(factors):
            calls[i] += 1
            return g(factors)

        return coefficients

    monkeypatch.setattr(symmetries, "_GENERATORS",
                        tuple(counted(i, g) for i, g in enumerate(symmetries._GENERATORS, 1)))
    checks = suite(suites.RunConfig(samples=100))
    assert all(c.passed for c in checks)
    assert dict(calls) == evaluations


def test_suite_flow_takes_the_two_orbits_from_a_point_in_one_call(monkeypatch):
    # the orbits by lambda1 and by lambda1 + lambda2 from (x, y) share one
    # call; the orbit by lambda2 from their (X, Y) image takes the second
    calls, real = [], reduction.global_flow

    def counted(x, y, lam):
        calls.append((np.shape(x), np.shape(lam)))
        return real(x, y, lam)

    monkeypatch.setattr(reduction, "global_flow", counted)
    assert all(c.passed for c in suites.suite_flow(suites.RunConfig(samples=100)))
    assert calls == [((100,), (2, 100)), ((100,), (100,))]


def test_a_nan_residual_is_the_worst():
    nan = float("nan")
    assert np.isnan(suites._worst(0.0, np.array([1e-20, nan])))
    for pair in ((0.0, nan), (nan, 1.0)):
        assert np.isnan(suites._worse(*pair))
    assert suites._worse(0.5, 1.0) == suites._worse(1.0, 0.5) == 1.0


def test_a_nan_endpoint_error_fails_the_oracle(monkeypatch):
    # the nan comes second, where Python's max(worst, nan) would drop it
    cfg = suites.RunConfig(samples=50, trajectories=5, step=5e-3)
    batch = suites.make_batch(cfg)
    errors = iter([1e-12, float("nan"), 1e-12, 1e-12, 1e-12])
    monkeypatch.setattr(geo, "endpoint_error_vs_great_circle", lambda traj: next(errors))
    (check,) = suites.suite_oracle(batch)
    assert not check.passed and check.as_dict()["max_residual"] is None
