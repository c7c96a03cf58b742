"""Property tests: the array-valued dual core against its scalar self and mpmath."""

import math
import re

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


def _per_sample(batched, n) -> bytes:
    """_bits of an array result over n samples; a constant float counts for each."""
    return _bits(np.broadcast_to(batched, (n,)))


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


# ------------------------------------------ tan, sec and ** array branches

interior = st.lists(st.floats(-1.4, 1.4), min_size=1, max_size=12)
bases = st.lists(st.floats(0.1, 5.0) | st.floats(-5.0, -0.1), min_size=1, max_size=12)
exponents = st.sampled_from([-3, -2, -1, 1, 2, 3, 4])


def _nested(u):
    return jc.DualScalar(jc.DualScalar(u, 1.0), 1.0)


@bitwise
@settings(max_examples=60, deadline=None)
@given(interior, slope)
def test_tan_sec_array_branches_equal_scalar_bitwise(xs, d):
    u = np.array(xs)
    for f in (jc.tan, jc.sec):
        assert _bits(f(u)) == _bits([f(v) for v in xs])
        arr = f(jc.DualScalar(u, d))
        one = [f(jc.DualScalar(v, d)) for v in xs]
        assert _bits(arr.value) == _bits([o.value for o in one])
        assert _bits(arr.derivative) == _bits([o.derivative for o in one])
        arr = f(_nested(u)).derivative
        one = [f(_nested(v)).derivative for v in xs]
        assert _bits(arr.value) == _bits([o.value for o in one])
        assert _bits(arr.derivative) == _bits([o.derivative for o in one])


@settings(max_examples=60, deadline=None)
@given(bases, exponents, slope)
def test_integer_power_array_branch_equals_scalar_bitwise(xs, n, d):
    u = np.array(xs)
    arr = jc.DualScalar(u, d) ** n
    one = [jc.DualScalar(v, d) ** n for v in xs]
    assert _bits(arr.value) == _bits([o.value for o in one])
    assert _per_sample(arr.derivative, len(xs)) == _bits([o.derivative for o in one])
    arr = (_nested(u) ** n).derivative
    one = [(_nested(v) ** n).derivative for v in xs]
    assert _bits(arr.value) == _bits([o.value for o in one])
    assert _per_sample(arr.derivative, len(xs)) == _bits([o.derivative for o in one])


@settings(max_examples=60, deadline=None)
@given(interior)
def test_tan_sec_array_branches_match_mpmath(xs):
    u = np.array(xs)
    mp = [mpmath.mpf(v) for v in xs]
    tan = [mpmath.tan(v) for v in mp]
    sec = [mpmath.sec(v) for v in mp]
    tan_d1 = [s * s for s in sec]
    tan_d2 = [2 * t * s * s for t, s in zip(tan, sec)]
    sec_d1 = [s * t for s, t in zip(sec, tan)]
    sec_d2 = [s * (t * t + s * s) for s, t in zip(sec, tan)]
    assert _ulps(jc.tan(u), tan) <= 1
    assert _ulps(jc.sec(u), sec) <= 2
    assert _ulps(jc.tan(jc.DualScalar(u, 1.0)).derivative, tan_d1) <= 4
    assert _ulps(jc.sec(jc.DualScalar(u, 1.0)).derivative, sec_d1) <= 4
    for f, d1, d2, bound in ((jc.tan, tan_d1, tan_d2, 8), (jc.sec, sec_d1, sec_d2, 6)):
        nested = f(_nested(u)).derivative
        assert _ulps(nested.value, d1) <= 4
        assert _ulps(nested.derivative, d2) <= bound


@settings(max_examples=60, deadline=None)
@given(bases, exponents)
def test_integer_power_array_branch_matches_mpmath(xs, n):
    u = np.array(xs)
    mp = [mpmath.mpf(v) for v in xs]
    nested = _nested(u) ** n
    assert _ulps(nested.value.value, [v**n for v in mp]) <= 1
    assert _ulps(nested.derivative.value, [n * v ** (n - 1) for v in mp]) <= 2
    assert _ulps(nested.derivative.derivative, [n * (n - 1) * v ** (n - 2) for v in mp]
                 if n != 1 else [mpmath.mpf(0)] * len(mp)) <= 2


@settings(max_examples=40, deadline=None)
@given(interior, st.data())
def test_array_guards_name_the_first_offending_index(xs, data):
    bad = sorted(data.draw(st.sets(st.integers(0, len(xs) - 1), min_size=1)))
    first = f"index ({bad[0]},)"
    poles = np.array(xs)
    poles[bad] = math.pi / 2
    for f in (jc.tan, jc.sec):
        with pytest.raises(jc.DomainError, match="cosine of the argument vanishes") as err:
            f(jc.DualScalar(poles, 1.0))
        assert str(err.value).endswith(f"{first})") and err.value.index == (bad[0],)
    signed = np.abs(np.array(xs)) + 0.5
    signed[bad] = -1.0
    with pytest.raises(jc.DomainError,
                       match=re.escape(f"fractional power 0.5 of a negative base at {first}")):
        jc.DualScalar(signed, 1.0) ** 0.5
    signed[bad] = 0.0
    with pytest.raises(jc.DomainError, match=re.escape(f"negative power -2 of zero at {first}")):
        jc.DualScalar(signed, 1.0) ** -2


# ------------------------------- batched symmetry kernels vs per-point calls

from glome import symmetries as sym  # noqa: E402

chart_angle = st.floats(-1.4, 1.4)
jet = st.tuples(chart_angle, chart_angle, st.floats(0.0, 6.3), slope, slope)
jets = st.lists(jet, min_size=1, max_size=15)
weights = st.lists(st.floats(-2.0, 2.0), min_size=5, max_size=5)


def _columns(rows):
    return chart.JetColumns(*(np.array(c) for c in zip(*rows)))


@bitwise
@settings(max_examples=40, deadline=None)
@given(jets, weights)
def test_variational_and_determining_batch_equal_per_point_bitwise(rows, k):
    cols = _columns(rows)
    fields = [sym.chi(i) for i in range(1, 7)] + [sym.general_symmetry(k)]
    for V in fields:
        want = [sym.variational_residual(V, chart.jet1(*r)) for r in rows]
        assert _per_sample(sym.variational_residual(V, cols), len(rows)) == _bits(want)
        want = [sym.determining_residuals(V, chart.ChartPoint(*r[:3])) for r in rows]
        for got, column in zip(sym.determining_residuals(V, cols), zip(*want)):
            assert _per_sample(got, len(rows)) == _bits(column)


@bitwise
@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(chart_angle, chart_angle, st.floats(0.0, 6.3), slope, slope,
                          st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)),
                min_size=1, max_size=10),
       st.sampled_from([0.0, 0.25, 0.5, 0.9]))
def test_prolong2_batch_equals_per_point_bitwise(rows, k):
    cols = _columns(rows)
    F = geo.collapsed_fn(k)
    for i in range(1, 7):
        V = sym.chi(i)
        want = [sym.prolong2_apply(V, F, chart.jet2(*r)) for r in rows]
        assert _per_sample(sym.prolong2_apply(V, F, cols), len(rows)) == _bits(want)


@bitwise
@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(chart_angle, chart_angle, st.floats(0.0, 6.3)), min_size=10, max_size=20),
       st.integers(1, 6), st.integers(1, 6))
def test_bracket_identification_batch_equals_per_point_bitwise(rows, a, b):
    points = [chart.ChartPoint(*r) for r in rows]
    x, y, v = (np.array(c) for c in zip(*rows))
    W = sym.lie_bracket(sym.chi(a), sym.chi(b))
    per_point = {}
    for label, C in [("W", W)] + sym._candidate_fields():
        per_point[label] = np.array([C.at(p) for p in points])
        batched = C.coefficients(x, y, v)
        for got, column in zip(batched, per_point[label].T):
            assert _per_sample(got, len(rows)) == _bits(column)
    try:
        entry = sym.identify_field(W, points, 1e-8)
    except sym.AmbiguousIdentification:
        return
    want = float(np.max(np.abs(per_point["W"] - per_point[entry.identified])))
    assert _bits([entry.residual]) == _bits([want])
