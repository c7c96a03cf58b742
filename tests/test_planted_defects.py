"""Planted defects: each row breaks one computed quantity by a small amount
and names the checks that must fail.  No tolerance is moved; a row shows
that its checks' margins do not hide a defect of that size."""

import itertools
import json
import math

import numpy as np
import pytest

from glome import chart, geodesics as geo
from glome import reduction, suites, symmetries
from glome.cli import main

CFG = suites.RunConfig(samples=100, trajectories=5)
SIZE = 1e-6  # relative size of a planted defect where a row names no other


def _plant(monkeypatch, owner, name: str, index: int, defect) -> None:
    """Replace ``owner.name`` by the function whose output ``index`` is
    ``defect`` of the real one's; its other outputs are the real ones."""
    real = getattr(owner, name)

    def planted(*args):
        out = list(real(*args))
        out[index] = defect(out[index])
        return tuple(out)

    monkeypatch.setattr(owner, name, planted)


def _scaled(size: float):
    return lambda value: value * (1.0 + size)


def _dynamics_failures(cfg: suites.RunConfig) -> set[str]:
    batch = suites.make_batch(cfg)
    checks = (suites.suite_noether(batch) + suites.suite_oracle(batch)
              + suites.suite_reduction(batch))
    return {c.name for c in checks if not c.passed}


# component 0 of the RK4 kernel is y_xx, 1 is v_xx
@pytest.mark.parametrize("component, defect, failing", [
    (None, None, set()),
    (0, _scaled(SIZE), {"collapsed_equation", "noether_drift", "totally_geodesic_s2"}),
    (1, _scaled(SIZE), {"noether_drift"}),
    # v_xx is 0 on the planar runs, so only a shift moves them:
    # totally_geodesic_vx reads 1.6e-9 against 1e-10
    (1, lambda v_xx: v_xx + 1e-9, {"totally_geodesic_vx"}),
], ids=["none", "y_xx", "v_xx", "v_xx_shift"])
def test_dynamics_checks_fail_on_a_planted_curvature(monkeypatch, component, defect, failing):
    if component is not None:
        _plant(monkeypatch, geo, "_curvatures", component, defect)
    assert _dynamics_failures(CFG) == failing


@pytest.mark.parametrize("owner, name, index, size, failing", [
    # the first ambient coordinate: ambient_norm_residual reads 9.3e-12 against 1e-12
    (chart, "ambient_coords", 0, 1e-11, {"ambient_norm_residual"}),
    # the ambient speed: tangent_norm_identity reads 1.0e-9 against 1e-10
    (geo, "ambient_state", 2, 1e-9, {"tangent_norm_identity"}),
], ids=["ambient_coords", "ambient_speed"])
def test_embedding_checks_fail_on_a_planted_ambient_quantity(monkeypatch, owner, name, index,
                                                             size, failing):
    _plant(monkeypatch, owner, name, index, _scaled(size))
    assert _dynamics_failures(CFG) == failing


def test_flow_checks_fail_on_a_planted_orbit(monkeypatch):
    # the image's Y: flow_omega_invariance reads 1.4e-8 against 1e-12,
    # flow_group_property 2.9e-8 and flow_tau_shift 4.6e-9 against 1e-9
    _plant(monkeypatch, reduction, "global_flow", 1, _scaled(1e-8))
    assert {c.name for c in suites.suite_flow(CFG) if not c.passed} == {
        "flow_omega_invariance", "flow_group_property", "flow_tau_shift"}


def test_dynamics_checks_fail_on_a_planted_rk4_stage(monkeypatch):
    # stage 3 of each step gets stage 2's input, so k3 comes from u + h/2 k1:
    # noether_drift reads 1.7e-7 against 1e-8, oracle_endpoint 2.5e-7 against 1e-7
    real, stage, held = geo._stage, itertools.count(), {}

    def planted(x, u, stopped, at):
        n = next(stage) % 4  # every step calls its four stages in order
        if n == 1:
            held["u"] = u
        elif n == 2:
            u = held["u"]
        return real(x, u, stopped, at)

    monkeypatch.setattr(geo, "_stage", planted)
    assert _dynamics_failures(CFG) == {"noether_drift", "oracle_endpoint"}
    # the plant ran at every stage of every step of the one batch: the long
    # run is its longest member, and it takes its last steps alone
    long_steps = min(10 * CFG.samples, suites.LONG_RUN_MAX_STEPS)
    assert round(suites.TRAJECTORY_SPAN / CFG.step) < long_steps
    assert next(stage) == 4 * (long_steps + 1)


def test_verify_exits_1_on_a_planted_curvature(monkeypatch, tmp_path):
    _plant(monkeypatch, geo, "_curvatures", 0, _scaled(SIZE))
    out = tmp_path / "report.json"
    args = ["verify", "--samples", str(CFG.samples), "--trajectories", str(CFG.trajectories)]
    assert main([*args, "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["passed"] is False
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert failed == {"collapsed_equation", "noether_drift", "totally_geodesic_s2"}


def _symmetry_failures(cfg: suites.RunConfig) -> set[str]:
    checks = (suites.suite_determining(cfg) + suites.suite_variational(cfg)
              + list(suites._bracket_checks(cfg)) + suites.suite_collapsed_prolongation(cfg)
              + suites.suite_flow(cfg))
    return {c.name for c in checks if not c.passed}


def _plant_coefficient(monkeypatch, generator: int, index: int, factor: float) -> None:
    """Multiply chi_generator's coefficient ``index`` (0 xi, 1 phi, 2 eta) by
    ``factor`` in its one definition, symmetries._GENERATORS, which a lone
    chi(i), a combination and the stacked pass of all six all read; the
    factors it reads, which other generators share, stay as they are."""
    real = symmetries._GENERATORS[generator - 1]

    def planted(factors):
        out = list(real(factors))
        out[index] = out[index] * factor
        return tuple(out)

    generators = list(symmetries._GENERATORS)
    generators[generator - 1] = planted
    monkeypatch.setattr(symmetries, "_GENERATORS", tuple(generators))


@pytest.mark.parametrize("cfg, planted, failing", [
    (CFG, None, set()),
    (CFG, (3, 1, 1.0 + SIZE), {"determining_equations", "variational_criterion", "bracket_table",
                               "subgroup_closure", "collapsed_prolongation",
                               "omega_chi3_directional"}),
    # chi4's eta, sin v tan y: the checks that read chi4 fail, and the two
    # that read chi3 alone, whose factors it shares none of, pass
    (CFG, (4, 2, 1.0 + SIZE), {"determining_equations", "variational_criterion", "bracket_table",
                               "subgroup_closure"}),
    # a nan coefficient makes those residuals nan, which must fail their checks;
    # Python's max once dropped them, and the variational and determining checks
    # passed at 1.8e-15 and 6.7e-16
    (suites.RunConfig(samples=50), (1, 2, math.nan),
     {"determining_equations", "variational_criterion", "bracket_table", "subgroup_closure"}),
], ids=["none", "chi3_phi", "chi4_eta", "chi1_eta_nan"])
def test_symmetry_checks_fail_on_a_planted_generator_coefficient(monkeypatch, cfg, planted,
                                                                 failing):
    if planted:
        _plant_coefficient(monkeypatch, *planted)
    assert _symmetry_failures(cfg) == failing


def test_a_planted_coefficient_moves_only_its_own_entries_of_the_stacked_pass(monkeypatch):
    p = chart.domain_columns(20, 0.1, 3)
    clean = symmetries._generator_jets(p.x, p.y, p.v)
    _plant_coefficient(monkeypatch, 4, 2, 1.0 + SIZE)
    planted = symmetries._generator_jets(p.x, p.y, p.v)
    moved = np.any(planted != clean, axis=-1)  # per generator, coefficient, value or partial
    # chi4's eta and its y and v partials move (sin v tan y reads no x); its
    # shared factors tan y and sin v reach chi5 and chi2 unplanted
    assert np.argwhere(moved).tolist() == [[3, 2, 0], [3, 2, 2], [3, 2, 3]]
    assert np.array_equal(planted[3, 2, 0], clean[3, 2, 0] * (1.0 + SIZE))
    lone = symmetries.chi(4)(p.x, p.y, p.v)[2]
    assert lone.tobytes() == planted[3, 2, 0].tobytes()


def test_a_nan_residual_is_reported_as_null_with_its_error(monkeypatch):
    _plant_coefficient(monkeypatch, 1, 2, math.nan)
    cfg = suites.RunConfig(samples=50)
    for check in suites.suite_determining(cfg) + suites.suite_variational(cfg):
        entry = check.as_dict()
        assert (entry["passed"], entry["max_residual"]) == (False, None)
        assert entry["error"] == "max_residual evaluated to nan"



TAU_SIZE = 1e-4  # at 1e-6 alpha_constancy reads 1.2e-5, too near its 1e-5 tolerance


def _reduction_failures(cfg: suites.RunConfig) -> set[str]:
    checks = suites.suite_flow(cfg) + suites.suite_reduction(suites.make_batch(cfg))
    return {c.name for c in checks if not c.passed}


@pytest.mark.parametrize("planted, failing", [
    (False, set()),
    (True, {"flow_tau_shift", "alpha_constancy"}),
], ids=["none", "tau"])
def test_reduction_checks_fail_on_a_planted_tau(monkeypatch, planted, failing):
    if planted:
        real = reduction.tau_coordinate
        monkeypatch.setattr(reduction, "tau_coordinate",
                            lambda x, y: real(x, y) * (1.0 + TAU_SIZE))
    assert _reduction_failures(CFG) == failing


def _nan_alphas(monkeypatch, rows: slice) -> None:
    """Plant nan at the given admissible rows of every trajectory's alpha series."""
    real = reduction._alpha

    def planted(*args):
        alpha = real(*args)
        alpha[rows] = math.nan
        return alpha

    monkeypatch.setattr(reduction, "_alpha", planted)


@pytest.mark.parametrize("rows, failing", [
    # nan alphas used to be excluded rows: with every second one nan, alpha_constancy
    # passed at 5.7e-11 under RunConfig(samples=50, trajectories=5, step=5e-3)
    (slice(1, None, 2), {"alpha_constancy"}),
    (slice(3, 4), {"alpha_constancy"}),
], ids=["alpha_half_nan", "alpha_one_nan"])
def test_reduction_checks_fail_on_planted_nan_alphas(monkeypatch, batch, rows, failing):
    _nan_alphas(monkeypatch, rows)
    assert {c.name for c in suites.suite_reduction(batch) if not c.passed} == failing


@pytest.fixture(scope="module")
def batch():
    """The trajectory batch at CFG; infer_k does not enter it, so the k rows share it."""
    return suites.make_batch(CFG)


@pytest.mark.parametrize("size, failing", [
    (None, set()),
    # alpha_constancy reads 6.4e-7 against 1e-5
    (1e-5, {"collapsed_equation"}),
    # k_grid_agreement reads 4.9e-3 against 1e-3 (at 1e-2 it reads 9.6e-4, too near)
    (5e-2, {"collapsed_equation", "alpha_constancy", "k_grid_agreement"}),
], ids=["none", "k_1e-5", "k_5e-2"])
def test_reduction_checks_fail_on_a_planted_k(monkeypatch, batch, size, failing):
    if size is not None:
        real = geo.infer_k
        monkeypatch.setattr(geo, "infer_k", lambda j: real(j) * (1.0 + size))
    assert {c.name for c in suites.suite_reduction(batch) if not c.passed} == failing
