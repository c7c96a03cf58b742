import math
import re

import numpy as np
import pytest

import glome
from glome import chart, geodesics, symmetries
from glome import jetcalc as jc


def test_embed_origin():
    p = np.array(chart.ambient_coords(0.0, 0.0, 0.0))
    assert p.shape == (4,)
    assert (p[0], p[1], p[2], p[3]) == (1.0, 0.0, 0.0, 0.0)


def test_embed_quarter_turn():
    p = np.array(chart.ambient_coords(0.0, 0.0, math.pi / 2))
    assert np.allclose(p, [0.0, 1.0, 0.0, 0.0], atol=1e-15)


def test_embed_unit_norm_sampled():
    for p in chart.sample_domain(1000, 0.1, seed=5):
        a = np.array(chart.ambient_coords(p.x, p.y, p.v))
        assert abs(np.linalg.norm(a) - 1.0) < 1e-12


def _raises(message, *args):
    with pytest.raises(chart.ChartError, match=f"^{re.escape(message)}$"):
        chart.jet1(*args)


def test_chart_point_validation():
    _raises(f"(x, y) = ({math.pi / 2}, 0.0) lies outside the open chart |x|, |y| < pi/2",
            math.pi / 2, 0.0, 0.0, 0.0, 0.0)
    _raises(f"(x, y) = (0.0, {-math.pi / 2}) lies outside the open chart |x|, |y| < pi/2",
            0.0, -math.pi / 2, 0.0, 0.0, 0.0)
    _raises("x must be finite, got nan", math.nan, 0.0, 0.0, 0.0, 0.0)
    _raises("y must be finite, got inf", 0.0, math.inf, 0.0, 0.0, 0.0)
    _raises("v must be finite, got -inf", 0.0, 0.0, -math.inf, 0.0, 0.0)
    # the checks run in order: finiteness, then the domain, then the slopes
    _raises("v must be finite, got nan", 2.0, 0.0, math.nan, math.nan, 0.0)
    _raises("(x, y) = (2.0, 0.3) lies outside the open chart |x|, |y| < pi/2",
            2.0, 0.3, 0.0, math.inf, 0.0)
    # v is stored unnormalized: any finite real is accepted
    assert chart.jet1(0.1, 0.2, 31.4, 0.0, 0.0).v == 31.4


def test_jet_validation():
    _raises("slopes (y_x, v_x) = (inf, 0.0) must be finite", 0.0, 0.0, 0.0, math.inf, 0.0)
    _raises("slopes (y_x, v_x) = (0.0, nan) must be finite", 0.0, 0.0, 0.0, 0.0, math.nan)
    with pytest.raises(chart.ChartError,
                       match=r"^curvatures \(y_xx, v_xx\) = \(nan, 0\.0\) must be finite$"):
        chart.jet2(0.0, 0.0, 0.0, 0.0, 0.0, math.nan, 0.0)


def test_one_float_jet_type():
    j = chart.jet1(0.1, -0.2, 3, 0.4, -0.5)
    assert j == chart.JetColumns(0.1, -0.2, 3.0, 0.4, -0.5, 0.0, 0.0)
    assert all(type(slot) is float for slot in j)
    assert chart.jet2(0.1, -0.2, 3.0, 0.4, -0.5, 0.6, -0.7) == j._replace(y_xx=0.6, v_xx=-0.7)
    traj = geodesics.integrate(j, 0.15, 1e-2)
    last = traj.jet(len(traj) - 1)
    assert type(last) is chart.JetColumns and all(type(slot) is float for slot in last)
    assert last[:5] == tuple(traj.samples[-1].tolist()) and last[5:] == (0.0, 0.0)
    assert not hasattr(glome, "ChartPoint") and not hasattr(glome, "Jet1")
    assert not hasattr(chart, "ChartPoint") and not hasattr(chart, "Jet1")
    assert not hasattr(glome, "VectorField3") and not hasattr(symmetries, "VectorField3")
    assert not hasattr(glome, "__all__")


def test_lagrangian_at_rest_is_one():
    for p in chart.sample_domain(20, 0.1, seed=1):
        assert chart.lagrangian(p) == 1.0


def test_lagrangian_simple_value():
    j = chart.jet1(0.0, 0.0, 2.0, 1.0, 0.0)
    assert abs(chart.lagrangian(j) - math.sqrt(2.0)) < 1e-15


def test_lagrangian_lower_bound():
    c = chart.jet_columns(1000, 0.1, seed=2)
    lam = chart.lagrangian(c)
    assert np.all(lam >= 1.0)
    moving = (c.y_x != 0.0) | (c.v_x != 0.0)
    assert np.all(lam[moving] > 1.0)


def ambient_speed_oracle(j):
    """|d/dt ambient_coords(x+t, y + y_x t, v + v_x t)| at t = 0, via dual numbers.

    Independent of the closed-form integrand: differentiates the embedding
    itself along a curve matching the jet.
    """
    def component(i):
        def f(t):
            return chart.ambient_coords(j.x + t, j.y + j.y_x * t, j.v + j.v_x * t)[i]

        return f

    vel = [jc.directional(component(i), (0.0,), (1.0,))[1] for i in range(4)]
    return np.sqrt(sum(c * c for c in vel))


def test_lagrangian_matches_ambient_chain_rule_oracle():
    j = chart.jet1(0.5, 0.3, 1.0, 0.7, -0.4)
    assert abs(chart.lagrangian(j) - ambient_speed_oracle(j)) < 1e-10


def test_lagrangian_oracle_over_random_jets():
    c = chart.jet_columns(1000, 0.1, seed=3)
    assert np.max(np.abs(chart.lagrangian(c) - ambient_speed_oracle(c))) < 1e-10


def test_sample_domain_deterministic():
    a = chart.sample_domain(1, 0.1, seed=0)
    b = chart.sample_domain(1, 0.1, seed=0)
    assert a == b
    many_a = chart.sample_domain(50, 0.2, seed=9)
    many_b = chart.sample_domain(50, 0.2, seed=9)
    assert many_a == many_b
    assert chart.sample_domain(1, 0.1, seed=1) != a


def test_sample_domain_bounds():
    lim = math.pi / 2 - 0.1
    for p in chart.sample_domain(100, 0.1, seed=11):
        assert abs(p.x) <= lim and abs(p.y) <= lim
        assert 0.0 <= p.v < 2.0 * math.pi


def test_sample_domain_coverage():
    pts = chart.sample_domain(1000, 0.1, seed=7)
    lim = math.pi / 2 - 0.1
    xs = np.array([p.x for p in pts])
    ys = np.array([p.y for p in pts])
    vs = np.array([p.v for p in pts])
    assert xs.max() - xs.min() >= 0.8 * 2 * lim
    assert ys.max() - ys.min() >= 0.8 * 2 * lim
    assert vs.max() - vs.min() >= 0.8 * 2 * math.pi


def test_sample_domain_invalid_arguments():
    with pytest.raises(ValueError):
        chart.sample_domain(10, 0.0, seed=0)
    with pytest.raises(ValueError):
        chart.sample_domain(10, math.pi, seed=0)
    with pytest.raises(ValueError):
        chart.sample_domain(0, 0.1, seed=0)
