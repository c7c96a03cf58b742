"""Planted defects: each row breaks one computed quantity by a small relative
amount and names the checks that must fail.  No tolerance is moved; a row
shows that its checks' margins do not hide a defect of that size."""

import json

import pytest

from glome import geodesics as geo
from glome import suites
from glome.cli import main

CFG = suites.RunConfig(samples=100, trajectories=5)
SIZE = 1e-6  # relative size of every planted defect


def _plant_curvature(monkeypatch, component: int) -> None:
    """Scale the RK4 kernel's y_xx (component 0) or v_xx (1) by 1 + SIZE."""
    real = geo._curvatures

    def planted(x, y, y_x, v_x):
        out = list(real(x, y, y_x, v_x))
        out[component] = out[component] * (1.0 + SIZE)
        return tuple(out)

    monkeypatch.setattr(geo, "_curvatures", planted)


def _dynamics_failures(cfg: suites.RunConfig) -> set[str]:
    batch = suites.make_batch(cfg)
    checks = (suites.suite_noether(cfg, batch) + suites.suite_oracle(cfg, batch)
              + suites.suite_reduction(cfg, batch))
    return {c.name for c in checks if not c.passed}


@pytest.mark.parametrize("component, failing", [
    (None, set()),
    (0, {"collapsed_equation", "noether_drift", "totally_geodesic_s2"}),
    (1, {"noether_drift"}),
], ids=["none", "y_xx", "v_xx"])
def test_dynamics_checks_fail_on_a_planted_curvature(monkeypatch, component, failing):
    if component is not None:
        _plant_curvature(monkeypatch, component)
    assert _dynamics_failures(CFG) == failing


def test_verify_exits_1_on_a_planted_curvature(monkeypatch, tmp_path):
    _plant_curvature(monkeypatch, 0)
    out = tmp_path / "report.json"
    args = ["verify", "--samples", str(CFG.samples), "--trajectories", str(CFG.trajectories)]
    assert main([*args, "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["passed"] is False
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert failed == {"collapsed_equation", "noether_drift", "totally_geodesic_s2"}
