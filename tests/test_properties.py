"""Property tests: the array-valued dual core against its scalar self and mpmath."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
mpmath = pytest.importorskip("mpmath")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from glome import chart, geodesics as geo  # noqa: E402
from glome import jetcalc as jc  # noqa: E402

mpmath.mp.dps = 50


def _numpy_trig_is_math() -> bool:
    draws = np.random.default_rng(0).uniform(-2.0, 2.0, 20000)
    return all(np.array_equal(f(draws), np.array([g(v) for v in draws]))
               for f, g in ((np.sin, math.sin), (np.cos, math.cos)))


# Batch results equal lone results bitwise only where numpy's sin and cos
# round exactly like the platform's libm (they do on the reference machine).
bitwise = pytest.mark.skipif(
    not _numpy_trig_is_math(),
    reason="numpy's sin/cos differ from math's here; batch and lone runs agree only to rounding",
)

angle = st.floats(-1.3, 1.3)
slope = st.floats(-2.0, 2.0)
state = st.tuples(angle, angle, slope, slope)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@bitwise
@settings(max_examples=60, deadline=None)
@given(st.lists(state, min_size=1, max_size=20))
def test_curvatures_batch_equals_el_rhs_bitwise(states):
    x, y, y_x, v_x = (np.array(col) for col in zip(*states))
    with np.errstate(all="ignore"):
        y_xx, v_xx, det = geo._curvatures(x, y, y_x, v_x)
    for i, (xi, yi, sxi, svi) in enumerate(states):
        try:
            want = geo.el_rhs(chart.jet1(xi, yi, 0.0, sxi, svi))
        except geo.SingularSystem:
            assert abs(det[i]) < geo.DET_FLOOR
            continue
        assert _bits([y_xx[i], v_xx[i]]) == _bits(want)


@bitwise
@settings(max_examples=15, deadline=None)
@given(
    x0=st.floats(-1.2, 1.2),
    rest=st.lists(st.tuples(st.floats(-1.4, 1.4), st.floats(0.0, 6.0), slope, slope),
                  min_size=1, max_size=4),
    span=st.floats(-0.03, 0.03),
    step=st.sampled_from([1e-2, 3e-3]),
)
def test_integrate_batch_equals_lone_runs_bitwise(x0, rest, span, step):
    jets = [chart.jet1(x0, *r) for r in rest]
    for j0, got in zip(jets, geo.integrate_batch(jets, x0 + span, step)):
        try:
            want = geo.integrate(j0, x0 + span, step)
        except (geo.DomainExit, geo.SingularSystem) as err:
            assert type(got) is type(err) and str(got) == str(err) and got.x == err.x
            if err.trajectory is None:
                assert got.trajectory is None
                continue
            got, want = got.trajectory, err.trajectory
        assert isinstance(got, geo.Trajectory)
        assert got.samples.tobytes() == want.samples.tobytes()
        for column in ("noether", "lagrangian", "ambient_norm_residual"):
            assert getattr(got, column).tobytes() == getattr(want, column).tobytes()
        assert _bits(got.curvature if got.curvature is not None else []) == _bits(
            want.curvature if want.curvature is not None else [])


# ------------------------------------------------ array branches vs mpmath

def _ulps(got, exact, scale=None) -> float:
    """Largest error of ``got`` in units of the last place of ``scale`` (default: exact)."""
    worst = 0.0
    scale = exact if scale is None else scale
    for g, e, s in zip(np.ravel(got), exact, scale):
        ulp = math.ulp(float(abs(s))) or math.ulp(0.0)
        worst = max(worst, float(abs(mpmath.mpf(float(g)) - e)) / ulp)
    return worst


points = st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=12)
positive = st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=12)
nonzero = st.lists(st.floats(0.1, 5.0) | st.floats(-5.0, -0.1), min_size=1, max_size=12)


@settings(max_examples=60, deadline=None)
@given(points)
def test_sin_cos_array_branches_match_mpmath(xs):
    u = np.array(xs)
    mp = [mpmath.mpf(v) for v in xs]
    sin_exact = [mpmath.sin(v) for v in mp]
    cos_exact = [mpmath.cos(v) for v in mp]
    assert _ulps(jc.sin(u), sin_exact) <= 1
    assert _ulps(jc.cos(u), cos_exact) <= 1
    # first derivative (seed 1) and second derivative (nested seeds 1, 1)
    assert _ulps(jc.sin(jc.DualScalar(u, 1.0)).derivative, cos_exact) <= 1
    assert _ulps(jc.cos(jc.DualScalar(u, 1.0)).derivative, [-c for c in sin_exact]) <= 1
    nested = jc.DualScalar(jc.DualScalar(u, 1.0), 1.0)
    assert _ulps(jc.sin(nested).derivative.derivative, [-s for s in sin_exact]) <= 1
    assert _ulps(jc.cos(nested).derivative.derivative, [-c for c in cos_exact]) <= 1


@settings(max_examples=60, deadline=None)
@given(positive)
def test_sqrt_array_branch_matches_mpmath(xs):
    u = np.array(xs)
    roots = [mpmath.sqrt(mpmath.mpf(v)) for v in xs]
    assert _ulps(jc.sqrt(u), roots) <= 0.5  # IEEE square root is correctly rounded
    d1 = [1 / (2 * r) for r in roots]
    d2 = [-1 / (4 * r**3) for r in roots]
    nested = jc.sqrt(jc.DualScalar(jc.DualScalar(u, 1.0), 1.0))
    assert _ulps(jc.sqrt(jc.DualScalar(u, 1.0)).derivative, d1) <= 2
    assert _ulps(nested.derivative.value, d1) <= 2
    assert _ulps(nested.derivative.derivative, d2) <= 4


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_division_array_branch_matches_mpmath(data):
    bs = data.draw(nonzero)
    n = len(bs)
    a, da, db = (np.array(data.draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n)))
                 for _ in range(3))
    b = np.array(bs)
    q = jc.DualScalar(a, da) / jc.DualScalar(b, db)
    A, DA, B, DB = ([mpmath.mpf(float(v)) for v in arr] for arr in (a, da, b, db))
    assert _ulps(q.value, [p / r for p, r in zip(A, B)]) <= 0.5
    exact = [(dp * r - p * dr) / (r * r) for p, dp, r, dr in zip(A, DA, B, DB)]
    # (da b - a db) / b^2 may cancel: bound the error by the size of its terms
    scale = [(abs(dp * r) + abs(p * dr)) / (r * r) for p, dp, r, dr in zip(A, DA, B, DB)]
    assert _ulps(q.derivative, exact, scale) <= 4
    # a plain array divisor and a scalar numerator over an array-valued dual
    assert _ulps((jc.DualScalar(a, da) / b).derivative,
                 [dp * (1 / r) for dp, r in zip(DA, B)], [abs(dp / r) for dp, r in zip(DA, B)]) <= 2
    inv = 1.0 / jc.DualScalar(b, db)
    assert _ulps(inv.value, [1 / r for r in B]) <= 0.5
    assert _ulps(inv.derivative, [-dr / (r * r) for r, dr in zip(B, DB)]) <= 3
