"""Property tests: the array-valued dual core against its scalar self and mpmath."""

import hashlib
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
mpmath = pytest.importorskip("mpmath")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from glome import chart, geodesics as geo  # noqa: E402
from glome import jetcalc as jc  # noqa: E402
from glome import tape  # noqa: E402

import reference  # noqa: E402

mpmath.mp.dps = 50


# Batch results equal lone results bitwise only where numpy's sin and cos
# round exactly like the platform's libm (they do on the reference machine).
bitwise = pytest.mark.skipif(
    not reference.numpy_trig_is_math(),
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


# angles up to the pole margin, with draws close to it, and slopes with both zeros
margin = chart.HALF_PI - geo.POLE_MARGIN
kernel_angle = st.one_of(st.floats(-margin, margin), st.floats(margin - 1e-3, margin),
                         st.floats(-margin, 1e-3 - margin))
kernel_slope = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, -0.0]))
kernel_states = st.lists(st.tuples(kernel_angle, kernel_angle, kernel_slope, kernel_slope),
                         min_size=1, max_size=8)


@settings(max_examples=60, deadline=None)
@given(kernel_states)
# lone float states with signed zeros, and one at the pole margin
@example([(0.0, 0.0, 0.0, 0.0)])
@example([(0.0, 0.0, -0.0, -0.0)])
@example([(-0.0, 0.3, 0.0, -0.0)])
@example([(margin - 5e-4, 2e-4 - margin, 2.5, -3.0)])
def test_curvatures_equal_the_frozen_kernel_bitwise(states):
    columns = [np.array(c) for c in zip(*states)]
    with np.errstate(all="ignore"):
        assert _bits(geo._curvatures(*columns)) == _bits(reference.curvatures(*columns))
        shared_x = (float(columns[0][0]), *columns[1:])
        assert _bits(geo._curvatures(*shared_x)) == _bits(reference.curvatures(*shared_x))
        for s in states:
            assert _bits(geo._curvatures(*s)) == _bits(reference.curvatures(*s))


@settings(max_examples=30, deadline=None)
@given(kernel_states, st.integers(0, 7), st.sampled_from([0, 1]),
       st.sampled_from([math.inf, -math.inf]))
def test_curvatures_raise_the_frozen_kernels_domain_error(states, at, slot, value):
    columns = [np.array(c) for c in zip(*states)]
    at %= len(states)
    columns[slot][at] = value  # an infinite x or y
    for args in (columns, [float(c[at]) for c in columns]):
        messages = []
        for kernel in (geo._curvatures, reference.curvatures):
            with pytest.raises(jc.DomainError) as err:
                kernel(*args)
            messages.append(str(err.value))
        assert messages[0] == messages[1]


# lone states for the tape: the kernel's draws, and both zeros, subnormals,
# nan, the infinities, and slopes whose squares overflow the radicand to inf
tape_special = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-308, math.nan,
                                math.inf, -math.inf])
tape_angle = st.one_of(kernel_angle, tape_special)
tape_slope = st.one_of(kernel_slope, tape_special, st.sampled_from([1e200, -1e200]))


def _kernel_outcome(kernel, args):
    """_bits, the type and the shape of each part of a kernel pass's result,
    or its DomainError's message."""
    try:
        result = kernel(*args)
    except jc.DomainError as err:
        return str(err)
    return [(_bits(r), type(r), np.shape(r)) for r in result]


@settings(max_examples=300, deadline=None)
@given(st.tuples(tape_angle, tape_angle, tape_slope, tape_slope))
@example((math.inf, 0.3, 0.5, -0.5))  # sin of x raises inside the replay
@example((0.3, -math.inf, 0.5, -0.5))
@example((0.3, 0.2, 1e200, -1e200))  # the radicand overflows to inf
@example((0.5, 0.5, 1e154, 1e154))  # the determinant underflows to 0.0
@example((math.nan, -0.0, 5e-324, 0.0))
def test_lone_tape_replays_the_dual_pass(state):
    geo._curvatures(0.1, 0.2, 0.3, 0.4)  # records the tape
    args = (*state, *geo._seeds(state[1], state[2]))
    with np.errstate(all="ignore"):
        assert _kernel_outcome(geo._kernel_tape, args) == _kernel_outcome(geo._nested_pass, args)


def _batch_args(states, form: str) -> tuple:
    """The pass's arguments at a batch of states: one column each, the
    columns with x as one float (the first state's), or a 2-D batch."""
    x, y, y_x, v_x = (np.array(c) for c in zip(*states))
    if form == "float x":
        x = float(x[0])
    elif form == "2-D":
        x, y, y_x, v_x = (c.reshape(2 if len(states) % 2 == 0 else 1, -1) for c in (x, y, y_x, v_x))
    return (x, y, y_x, v_x, *geo._seeds(y, y_x))


batch_form = st.sampled_from(["columns", "float x", "2-D"])
tape_states = st.lists(st.tuples(tape_angle, tape_angle, tape_slope, tape_slope),
                       min_size=2, max_size=4)


@settings(max_examples=300, deadline=None)
@given(tape_states, batch_form)
@example([(math.inf, 0.3, 0.5, -0.5), (0.3, 0.2, 0.5, -0.5)], "columns")  # one column raises
@example([(0.3, 0.2, 1e200, -1e200), (0.5, 0.5, 1e154, 1e154)], "float x")
@example([(math.nan, -0.0, 5e-324, 0.0), (0.1, 0.2, 0.3, 0.4), (0.0, 0.0, 0.0, 0.0),
          (-0.4, 1.2, -2.5e-308, 3.0)], "2-D")
def test_kernel_tape_replays_the_dual_pass_on_batches(states, form):
    geo._curvatures(0.1, 0.2, 0.3, 0.4)  # records the tape
    args = _batch_args(states, form)
    with np.errstate(all="ignore"):
        assert _kernel_outcome(geo._kernel_tape, args) == _kernel_outcome(geo._nested_pass, args)


@pytest.mark.parametrize("form", ["columns", "float x", "2-D"])
def test_a_batch_records_the_lines_of_the_kernel_tape(form):
    # a jetcalc rule that branched on its operands' types would record other
    # lines at a batch's arrays than at _TAPE_STATE's floats and grids
    geo._curvatures(0.1, 0.2, 0.3, 0.4)  # records the tape
    states = [(0.1, 0.2, 0.3, 0.4), (-0.5, 0.7, -1.1, 0.6)]
    replay = tape.record(geo._nested_pass, _batch_args(states, form))

    def names(f):
        return {k: v for k, v in f.__globals__.items() if k not in ("__builtins__", "replay")}

    assert replay.__code__ == geo._kernel_tape.__code__
    assert names(replay).keys() == names(geo._kernel_tape).keys()
    assert all(v is names(geo._kernel_tape)[k] for k, v in names(replay).items())


# Relative to max(1, |exact|), over |x|, |y| <= 1.47 and slopes in [-3, 3].
# The largest error among 10^6 uniform states was 4.5e-14, at the example
# below; 2.1e-14 held over the first 3,000 of them but not over all.
CHRISTOFFEL_BOUND = 6e-14
chart_angle = st.floats(-1.47, 1.47)
chart_slope = st.floats(-3.0, 3.0)


@settings(max_examples=300, deadline=None)
@given(st.tuples(chart_angle, chart_angle, chart_slope, chart_slope))
@example((-0.3788560264645777, 0.7000630878383884, 2.9991636312133174, -2.5905903898601323))
def test_curvatures_match_the_christoffel_geodesic_equation(state):
    got = geo._curvatures(*state)[:2]
    for value, exact in zip(got, reference.christoffel_curvatures(*state)):
        assert abs(mpmath.mpf(float(value)) - exact) <= CHRISTOFFEL_BOUND * max(1, abs(exact))


# one jet: start x (some outside the pole margin), y, v, y_x, v_x, span to x_end, step
batch_jet = st.tuples(st.floats(-1.55, 1.55), st.floats(-1.5, 1.5), st.floats(0.0, 6.0), slope,
                      slope, st.floats(-0.05, 0.05), st.sampled_from([1e-2, 3e-3, 1e-3]))


@bitwise
@settings(max_examples=25, deadline=None)
@given(st.lists(batch_jet, min_size=1, max_size=5))
# a complete run, one outside the margin, a margin breach, a singular system and a
# backward run, each finishing at its own iteration
@example([(0.0, 0.1, 0.0, 0.2, 0.3, 0.03, 1e-2), (1.54, 0.0, 0.0, 0.0, 0.0, 0.01, 1e-2),
          (0.5, 1.5, 0.0, 2.0, 0.0, 0.05, 1e-3), (0.5, 0.5, 0.0, 1e8, 1e8, 0.02, 1e-3),
          (-0.3, 0.2, 1.0, -0.4, 0.1, -0.05, 3e-3)])
def test_integrate_batch_equals_lone_runs_bitwise(runs):
    jets = [chart.jet1(*r[:5]) for r in runs]
    x_end = [r[0] + r[5] for r in runs]
    step = [r[6] for r in runs]
    for j0, e, s, got in zip(jets, x_end, step, geo.integrate_batch(jets, x_end, step)):
        try:
            want = geo.integrate(j0, e, s)
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

def _ulps(got, exact, scale=None, absolute=None) -> float:
    """Largest error of ``got`` in units of the last place of ``scale``
    (default: exact), after an ``absolute`` allowance per element (default: none)."""
    worst = 0.0
    scale = exact if scale is None else scale
    absolute = [0] * len(exact) if absolute is None else absolute
    for g, e, s, a in zip(np.ravel(got), exact, scale, absolute):
        ulp = math.ulp(float(abs(s))) or math.ulp(0.0)
        worst = max(worst, float(max(abs(mpmath.mpf(float(g)) - e) - a, 0)) / ulp)
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


def _rounding_ulps(above: int, below: int) -> float:
    """Bound, in ulps of the exact result, on a float that equals the exact
    result times (1 + d_i) for ``above`` roundings d_i and divided by (1 + e_j)
    for ``below`` roundings e_j, every |d_i|, |e_j| <= u = 2**-53: the relative
    error is at most (1 + u)**above / (1 - u)**below - 1, and |exact| < ulp / u."""
    u = Fraction(1, 2**53)
    return float(((1 + u) ** above / (1 - u) ** below - 1) / u)


@settings(max_examples=60, deadline=None)
@given(positive)
@example([0.4031990837875522])  # 4.12 ulps off in the second derivative
def test_sqrt_array_branch_matches_mpmath(xs):
    u = np.array(xs)
    roots = [mpmath.sqrt(mpmath.mpf(v)) for v in xs]
    assert _ulps(jc.sqrt(u), roots) <= 0.5  # IEEE square root is correctly rounded
    d1 = [1 / (2 * r) for r in roots]
    d2 = [-1 / (4 * r**3) for r in roots]
    nested = jc.sqrt(jc.DualScalar(jc.DualScalar(u, 1.0), 1.0))
    # With r = sqrt(u)(1 + e1), the rule's first derivative is
    # q = fl(1 / (2 r)) = (1 + e2) / (2 sqrt(u) (1 + e1)), doubling being exact.
    # Differentiated again through __rtruediv__, it is
    # fl(fl(-q * 2q) / (2 r)) = -(1 + e2)^2 (1 + e3) (1 + e4) / (4 sqrt(u)^3 (1 + e1)^3):
    # four roundings above and three below, at most 7 ulps to first order.
    assert _ulps(jc.sqrt(jc.DualScalar(u, 1.0)).derivative, d1) <= _rounding_ulps(1, 1)
    assert _ulps(nested.derivative.value, d1) <= _rounding_ulps(1, 1)
    assert _ulps(nested.derivative.derivative, d2) <= _rounding_ulps(4, 3)


# half the subnormal spacing 2**-1074: the absolute error of a product or
# quotient that rounds into the subnormal range, which no ulp bound covers
_HALF_SUBNORMAL = mpmath.mpf(2) ** -1075


def _check_division(a, da, b, db):
    q = jc.DualScalar(a, da) / jc.DualScalar(b, db)
    A, DA, B, DB = ([mpmath.mpf(float(v)) for v in arr] for arr in (a, da, b, db))
    assert _ulps(q.value, [p / r for p, r in zip(A, B)]) <= 0.5
    exact = [(dp * r - p * dr) / (r * r) for p, dp, r, dr in zip(A, DA, B, DB)]
    # (da b - a db) / b^2 may cancel: bound the error by the size of its terms,
    # plus the subnormal rounding of both products (magnified by 1/b^2) and the quotient
    scale = [(abs(dp * r) + abs(p * dr)) / (r * r) for p, dp, r, dr in zip(A, DA, B, DB)]
    absolute = [_HALF_SUBNORMAL * (2 / (r * r) + 1) for r in B]
    assert _ulps(q.derivative, exact, scale, absolute) <= 4
    # a plain array divisor and a scalar numerator over an array-valued dual
    assert _ulps((jc.DualScalar(a, da) / b).derivative,
                 [dp * (1 / r) for dp, r in zip(DA, B)], [abs(dp / r) for dp, r in zip(DA, B)],
                 [_HALF_SUBNORMAL] * len(B)) <= 2
    inv = 1.0 / jc.DualScalar(b, db)
    assert _ulps(inv.value, [1 / r for r in B]) <= 0.5
    # -(1/b) db rounds once, then is divided by b
    assert _ulps(inv.derivative, [-dr / (r * r) for r, dr in zip(B, DB)], None,
                 [_HALF_SUBNORMAL * (1 / abs(r) + 1) for r in B]) <= 3


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_division_array_branch_matches_mpmath(data):
    bs = data.draw(nonzero)
    n = len(bs)
    a, da, db = (np.array(data.draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n)))
                 for _ in range(3))
    _check_division(a, da, np.array(bs), db)


def test_division_error_bound_covers_subnormal_terms():
    sub = 2.2250738585e-313  # da b rounds to the subnormal spacing, then 1/b^2 = 16 magnifies it
    _check_division(np.array([0.0, 5e-324, 1.5]), np.array([sub, -sub, 5e-324]),
                    np.array([0.25, -0.1, 0.1]), np.array([5e-324, 3e-320, -sub]))


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


# either side of the 0.1 rad margin by up to 1e-3, of either sign
_EDGE = chart.HALF_PI - chart.DEFAULT_MARGIN
near_margin = st.tuples(st.sampled_from([1.0, -1.0]), st.floats(-1e-3, 1e-3)).map(
    lambda se: se[0] * (_EDGE + se[1]))
sec_tan_angle = st.floats(-1.4, 1.4) | near_margin | st.sampled_from([0.0, -0.0])


def _lifted(u, d, depth: int):
    """``u`` under ``depth`` dual layers, each with derivative ``d``."""
    for _ in range(depth):
        u = jc.DualScalar(u, d)
    return u


@bitwise
@settings(max_examples=60, deadline=None)
@given(st.lists(sec_tan_angle, min_size=1, max_size=12), slope)
@example([0.0, -0.0, _EDGE, -_EDGE, _EDGE + 1e-3, -_EDGE - 1e-3], 1.0)
def test_sec_tan_equals_sec_and_tan_bitwise(xs, d):
    for u in (xs[0], np.array(xs)):
        for depth in (0, 1, 2):
            w = _lifted(u, d, depth)
            for first in ("sec", "tan"):
                _same_bits(jc.sec_tan(w, first), (reference.sec(w), reference.tan(w)))


@settings(max_examples=40, deadline=None)
@given(interior, st.data())
def test_sec_tan_raises_the_error_of_the_function_read_first(xs, data):
    bad = sorted(data.draw(st.sets(st.integers(0, len(xs) - 1), min_size=1)))
    poles = np.array(xs)
    poles[bad] = data.draw(st.sampled_from([math.pi / 2, -math.pi / 2, math.pi / 2 - 1e-13]))
    for u in (float(poles[bad[0]]), poles):
        for depth in (0, 1, 2):
            w = _lifted(u, 1.0, depth)
            for first, f in (("sec", reference.sec), ("tan", reference.tan)):
                want = _outcome_of(lambda: f(w))
                assert want[0] == "DomainError" and want[1].startswith(first)
                assert _outcome_of(lambda: jc.sec_tan(w, first)) == want


def test_sec_tan_raises_at_an_infinite_argument_as_tan_does():
    for u in (math.inf, np.array([0.3, -math.inf])):
        for depth in (0, 1, 2):
            w = _lifted(u, 1.0, depth)
            want = _outcome_of(lambda: reference.tan(w))
            assert want[0] == "DomainError"
            for first in ("sec", "tan"):
                assert _outcome_of(lambda: jc.sec_tan(w, first)) == want


@settings(max_examples=60, deadline=None)
@given(bases, exponents)
def test_power_helper_equals_python_power_bitwise(xs, n):
    u = np.array(xs)
    assert _bits(jc.power(u, n)) == _bits([v**n for v in xs])
    assert all(jc.power(v, n) == v**n for v in xs)
    arr = jc.power(_nested(u), n).derivative
    one = [jc.power(_nested(v), n).derivative for v in xs]
    assert _bits(arr.value) == _bits([o.value for o in one])
    assert _per_sample(arr.derivative, len(xs)) == _bits([o.derivative for o in one])


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


# --------------------------------------- arcsin, arctan and atan2 array branches

unit = st.lists(st.floats(-0.9, 0.9), min_size=1, max_size=12)


@settings(max_examples=60, deadline=None)
@given(unit, points, slope)
def test_inverse_trig_array_branches_equal_scalar_bitwise(us, ts, d):
    for f, xs in ((jc.arcsin, us), (jc.arctan, ts)):
        u = np.array(xs)
        assert _bits(f(u)) == _bits([f(v) for v in xs])
        arr = f(jc.DualScalar(u, d))
        assert _bits(arr.derivative) == _bits([f(jc.DualScalar(v, d)).derivative for v in xs])
        arr = f(_nested(u)).derivative
        one = [f(_nested(v)).derivative for v in xs]
        assert _bits(arr.value) == _bits([o.value for o in one])
        assert _bits(arr.derivative) == _bits([o.derivative for o in one])
    n = min(len(us), len(ts))
    y, x = np.array(us[:n]), np.array(ts[:n])
    defined = y * y + x * x != 0.0  # the dual rule divides by it
    y, x = y[defined], x[defined]
    assert _bits(jc.atan2(y, x)) == _bits([jc.atan2(a, b) for a, b in zip(y.tolist(), x.tolist())])
    arr = jc.atan2(jc.DualScalar(y, d), jc.DualScalar(x, 1.0))
    one = [jc.atan2(jc.DualScalar(a, d), jc.DualScalar(b, 1.0))
           for a, b in zip(y.tolist(), x.tolist())]
    assert _bits(arr.value) == _bits([o.value for o in one])
    assert _bits(arr.derivative) == _bits([o.derivative for o in one])


@settings(max_examples=60, deadline=None)
@given(unit, points)
def test_inverse_trig_array_branches_match_mpmath(us, ts):
    u, t = np.array(us), np.array(ts)
    U, T = [mpmath.mpf(v) for v in us], [mpmath.mpf(v) for v in ts]
    assert _ulps(jc.arcsin(u), [mpmath.asin(v) for v in U]) <= 1
    assert _ulps(jc.arctan(t), [mpmath.atan(v) for v in T]) <= 1
    nested = jc.arcsin(_nested(u)).derivative
    assert _ulps(nested.value, [1 / mpmath.sqrt(1 - v * v) for v in U]) <= 4
    assert _ulps(nested.derivative, [v / (1 - v * v) ** 1.5 for v in U],
                 [1 / (1 - v * v) ** 1.5 for v in U]) <= 8
    nested = jc.arctan(_nested(t)).derivative
    assert _ulps(nested.value, [1 / (1 + v * v) for v in T]) <= 4
    assert _ulps(nested.derivative, [-2 * v / (1 + v * v) ** 2 for v in T],
                 [1 / (1 + v * v) for v in T]) <= 8
    n = min(len(us), len(ts))
    y, x = u[:n] + 1.0, t[:n]
    Y, X = [mpmath.mpf(float(v)) for v in y], T[:n]
    assert _ulps(jc.atan2(y, x), [mpmath.atan2(a, b) for a, b in zip(Y, X)]) <= 1
    dy = jc.atan2(jc.DualScalar(y, 1.0), x).derivative
    dx = jc.atan2(y, jc.DualScalar(x, 1.0)).derivative
    assert _ulps(dy, [b / (a * a + b * b) for a, b in zip(Y, X)],
                 [1 / mpmath.sqrt(a * a + b * b) for a, b in zip(Y, X)]) <= 4
    assert _ulps(dx, [-a / (a * a + b * b) for a, b in zip(Y, X)],
                 [1 / mpmath.sqrt(a * a + b * b) for a, b in zip(Y, X)]) <= 4


def test_inverse_trig_array_guards_name_the_first_offending_index():
    with pytest.raises(jc.DomainError, match=r"argument outside \[-1, 1\] at index \(2,\)"):
        jc.arcsin(np.array([0.5, -1.0, 1.5, -2.0]))
    with pytest.raises(jc.DomainError, match=r"both arguments zero at index \(1,\)"):
        jc.atan2(np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 0.0]))
    with pytest.raises(jc.DomainError, match=r"x\^2 \+ y\^2 is zero at index \(0,\)"):
        jc.atan2(jc.DualScalar(np.array([0.0, 1.0]), 1.0), np.array([0.0, 1.0]))


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


def _outcome(f, w):
    """What ``f(w)`` did: its bits, or the error it raised (an array error's
    index suffix stripped, so that a float and a (1,)-array compare)."""
    try:
        with np.errstate(all="ignore"):  # numpy warns where a float overflows silently
            out = f(w)
    except jc.DomainError as err:
        return "DomainError", err.func, repr(err.argument), str(err).replace(" at index (0,)", "")
    if isinstance(out, jc.DualScalar):
        return "ok", _bits(out.value), _bits(out.derivative)
    return "ok", _bits(out)


@bitwise
@settings(max_examples=200, deadline=None)
@given(st.floats(), st.sampled_from([2, 3, -1, -2, 0.5, -0.5]))
@example(math.inf, 2)
@example(-math.inf, -0.5)
@example(0.0, -1)
@example(-0.0, -1)
@example(-0.0, -0.5)
@example(1.0, 0.5)
@example(-1.0, 0.5)
@example(float(math.pi / 2), 2)
@example(1e-160, -1)
@example(5e-324, -2)
@example(1e200, 2)
@example(-1e200, 3)
@example(math.nan, 2)
def test_floats_and_arrays_follow_the_same_domain_rule(t, e):
    cases = [
        ("sin", jc.sin), ("cos", jc.cos),
        ("tan", jc.tan), ("sec", jc.sec), ("sqrt", jc.sqrt), ("arcsin", jc.arcsin),
        ("atan2", lambda w: jc.atan2(w, w)), ("atan2 on the y axis", lambda w: jc.atan2(w, 0.0)),
        ("power", lambda w: jc.power(w, e)), ("divide", lambda w: jc.DualScalar(1.0, 1.0) / w),
        ("reciprocal", lambda w: 1.0 / w),
    ]
    for layer in ("plain", "dual"):
        lift = (lambda v: v) if layer == "plain" else (lambda v: jc.DualScalar(v, 1.0))
        for name, f in cases:
            # a plain reciprocal is float division, not a jetcalc domain rule
            if layer == "plain" and name == "reciprocal":
                continue
            assert _outcome(f, lift(np.array([t]))) == _outcome(f, lift(t)), f"{name}, {layer}"


# ------------------------------- batched symmetry kernels vs per-point calls

from glome import suites  # noqa: E402
from glome import symmetries as sym  # noqa: E402
from reference import scale  # noqa: E402

chart_angle = st.floats(-1.4, 1.4)
jet = st.tuples(chart_angle, chart_angle, st.floats(0.0, 6.3), slope, slope)
jets = st.lists(jet, min_size=1, max_size=15)
weights = st.lists(st.floats(-2.0, 2.0), min_size=5, max_size=5)


def _columns(rows):
    return chart.JetColumns(*(np.array(c) for c in zip(*rows)))


def _candidate_fields():
    """identify_field's 13 candidates as fields, labelled: zero, then chi_k
    and scale(-1.0, chi_k) for each generator."""
    def zero(x, y, v):
        return 0.0, 0.0, 0.0

    cands = [("zero", zero)]
    for i in range(1, 7):
        cands += [(f"+chi{i}", sym.chi(i)), (f"-chi{i}", scale(-1.0, sym.chi(i)))]
    return cands


@bitwise
@settings(max_examples=40, deadline=None)
@given(jets, weights)
def test_variational_and_determining_batch_equal_per_point_bitwise(rows, k):
    cols = _columns(rows)
    fields = [sym.chi(i) for i in range(1, 7)] + [sym.general_symmetry(k)]
    for V in fields:
        want = [reference.variational_residual(V, chart.jet1(*r)) for r in rows]
        assert _per_sample(reference.variational_residual(V, cols), len(rows)) == _bits(want)
        want = [sym.determining_residuals(V, chart.jet1(*r[:3], 0.0, 0.0)) for r in rows]
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
    points = [chart.jet1(*r, 0.0, 0.0) for r in rows]
    x, y, v = (np.array(c) for c in zip(*rows))
    W = sym.lie_bracket(sym.chi(a), sym.chi(b))
    per_point = {}
    for label, C in [("W", W)] + _candidate_fields():
        per_point[label] = np.array([C(p.x, p.y, p.v) for p in points])
        batched = C(x, y, v)
        for got, column in zip(batched, per_point[label].T):
            assert _per_sample(got, len(rows)) == _bits(column)
    try:
        entry = sym.identify_field(W, points, 1e-8)
    except sym.AmbiguousIdentification:
        return
    assert set(entry) == {"id", "residual"}
    want = float(np.max(np.abs(per_point["W"] - per_point[entry["id"]])))
    assert _bits([entry["residual"]]) == _bits([want])


points3 = st.lists(st.tuples(chart_angle, chart_angle, st.floats(0.0, 6.3)), min_size=1, max_size=12)


@bitwise
@settings(max_examples=20, deadline=None)
@given(points3)
def test_shared_jacobian_brackets_equal_lie_bracket_bitwise(rows):
    x, y, v = (np.array(c) for c in zip(*rows))
    generators, got = sym._bracket_values(x, y, v)
    for F, values in zip(sym._CHI, generators):  # the passes' values are plain evaluations
        assert values.tobytes() == sym._values(F, x, y, v).tobytes()
    for i in range(1, 7):
        for j in range(1, 7):
            want = sym._values(sym.lie_bracket(sym.chi(i), sym.chi(j)), x, y, v)
            assert got[i - 1][j - 1].tobytes() == want.tobytes()


def _match_reference(name, Wvals, x, y, v, tol):
    """identify_field's rule, one candidate at a time: (label, residual) or the message."""
    best = None
    deviations = []
    for label, C in _candidate_fields():
        diff = Wvals - sym._values(C, x, y, v)
        ssq = float(np.sum(diff * diff))
        maxdev = float(np.max(np.abs(diff)))
        deviations.append((label, ssq, maxdev))
        if best is None or ssq < best[1]:
            best = (label, ssq, maxdev)
    label, _, residual = best
    if residual >= tol:
        return f"no candidate matches {name}: best {label} deviates by {residual:g}"
    for other, _, maxdev in deviations:
        if other != label and maxdev <= 10.0 * tol:
            return f"{name} matches both {label} and {other} within {10*tol:g}"
    return label, residual


_MATCH_ROWS = [(0.3, -0.2, 1.0), (-0.7, 0.4, 2.5), (0.1, 1.1, 5.0)]
# a field a chi_i + b chi_j plus noise; a = 0.5, b = 0 plants 0.5 chi_i, halfway
# between zero and +chi_i; b = 1e-7 or noise near tol puts a second candidate
# within 10 tol of the best
planted = st.tuples(st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0, 0.999999, 0.3]), st.integers(1, 6),
                    st.sampled_from([0.0, 0.5, -1.0, 1e-7]), st.integers(1, 6),
                    st.sampled_from([0.0, 1e-13, 4e-9, 3e-8, 0.02]))
match_tols = st.sampled_from([1e-8, 1e-3, 0.05, 0.2, 1.0])


def _planted_values(x, y, v, a, i, b, j, noise):
    ramp = np.linspace(-1.0, 1.0, 3 * len(x)).reshape(-1, 3)
    return (a * sym._values(sym.chi(i), x, y, v) + b * sym._values(sym.chi(j), x, y, v)
            + noise * ramp)


def _candidate_values(x, y, v):
    return sym._candidates(np.stack([sym._values(F, x, y, v) for F in sym._CHI]))


@settings(max_examples=60, deadline=None)
@given(points3, planted, match_tols)
@example(_MATCH_ROWS, (0.5, 1, 0.0, 1, 0.0), 1e-8)  # 0.5 chi1: zero and +chi1 tie, both too far
@example(_MATCH_ROWS, (0.5, 1, 0.0, 1, 0.0), 1.0)  # 0.5 chi1 within tol of both
@example(_MATCH_ROWS, (1.0, 2, 0.0, 1, 1e-13), 0.2)  # near-tie: another candidate within 10 tol
@example(_MATCH_ROWS, (1.0, 2, 0.0, 1, 4e-9), 1e-8)  # a clean match
def test_stacked_match_equals_per_candidate_rule(rows, field, tol):
    x, y, v = (np.array(c) for c in zip(*rows))
    Wvals = _planted_values(x, y, v, *field)
    want = _match_reference("W", Wvals, x, y, v, tol)
    try:
        entry, = sym._match(["W"], Wvals[None], _candidate_values(x, y, v), tol)
    except sym.AmbiguousIdentification as err:
        assert str(err) == want
        return
    assert set(entry) == {"id", "residual"}
    assert (entry["id"], _bits([entry["residual"]])) == (want[0], _bits([want[1]]))


_CLEAN, _TIED = (1.0, 2, 0.0, 1, 4e-9), (0.5, 1, 0.0, 1, 0.0)


@settings(max_examples=60, deadline=None)
@given(points3, st.lists(planted, min_size=1, max_size=8), match_tols)
@example(_MATCH_ROWS, [_CLEAN, _TIED, (1.0, 3, 1e-7, 1, 0.0)], 1e-8)  # W1 and W2 fail: W1's message
@example(_MATCH_ROWS, [(1.0, 2, 0.0, 1, 1e-13), _TIED], 0.2)  # "matches both", then "no candidate"
@example(_MATCH_ROWS, [_CLEAN] * 8, 1e-8)  # all eight match
def test_match_over_a_stack_equals_the_per_field_rule(rows, fields, tol):
    x, y, v = (np.array(c) for c in zip(*rows))
    names = [f"W{t}" for t in range(len(fields))]
    stack = np.stack([_planted_values(x, y, v, *field) for field in fields])
    want = [_match_reference(name, W, x, y, v, tol) for name, W in zip(names, stack)]
    failures = [w for w in want if isinstance(w, str)]
    try:
        got = sym._match(names, stack, _candidate_values(x, y, v), tol)
    except sym.AmbiguousIdentification as err:
        assert failures and str(err) == failures[0]
        return
    assert not failures
    assert [(e["id"], _bits([e["residual"]])) for e in got] == [(w[0], _bits([w[1]])) for w in want]


trial_weights = st.lists(st.floats(-2.0, 2.0) | st.just(0.0), min_size=5, max_size=5)


@bitwise
@settings(max_examples=30, deadline=None)
@given(st.lists(trial_weights, min_size=1, max_size=5), st.integers(1, 8), st.data())
def test_determining_trials_in_one_pass_equal_lone_evaluations_bitwise(weights, n, data):
    weights = weights + [[0.7, 0.0, -1.1, 0.3, 1.9], [0.0] * 5]
    m = len(weights)
    x, y, v = (np.array(data.draw(st.lists(elems, min_size=m * n, max_size=m * n))).reshape(m, n)
               for elems in (chart_angle, chart_angle, st.floats(0.0, 6.3)))
    W = np.array(weights)
    V = sym.general_symmetry(W.T[:, :, None])
    got = sym.determining_residuals(V, chart.JetColumns(x, y, v))
    for t in range(m):
        want = sym.determining_residuals(sym.general_symmetry(W[t]),
                                         chart.JetColumns(x[t], y[t], v[t]))
        for g, w in zip(got, want):
            assert _bits(np.broadcast_to(g, (m, n))[t]) == _per_sample(w, n)


@bitwise
@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**16), st.integers(1, 60))
def test_suite_determining_equals_per_trial_reference(seed, samples):
    cfg = suites.RunConfig(seed=seed, samples=samples)
    rng = np.random.default_rng(seed + 101)
    worst = 0.0
    for trial in range(20):
        V = sym.general_symmetry(rng.uniform(-2.0, 2.0, 5))
        points = chart.domain_columns(max(1, samples // 10), chart.DEFAULT_MARGIN,
                                      seed + 300 + trial)
        for r in sym.determining_residuals(V, points):
            worst = max(worst, float(np.max(np.abs(r), initial=0.0)))
    (check,) = suites.suite_determining(cfg)
    assert _bits([check.max_residual]) == _bits([worst])


# --------------------------- one seeded gradient pass vs one pass per direction


def _extra(x, y, v):
    """A coefficient-like function through the other dual rules."""
    return (jc.atan2(jc.sin(x), jc.cos(y)) + jc.sqrt(1.0 + x * x) / (1.0 + y * y)
            + jc.power(x * y, 3) + jc.arcsin(jc.sin(v) * 0.5) + jc.arctan(x - v))


_COEFFICIENTS = [reference.component(F, i) for F in sym._CHI for i in range(3)] + [_extra]


def _tree(u):
    """``u`` as nested tuples, a dual as ("dual", value, derivative)."""
    if isinstance(u, jc.DualScalar):
        return ("dual", _tree(u.value), _tree(u.derivative))
    if isinstance(u, (tuple, list)):
        return tuple(map(_tree, u))
    return u


def _same_bits(got, want) -> None:
    """``got`` has ``want``'s structure and bits; an array may differ from
    its counterpart only by unit axes that broadcast away."""
    got, want = _tree(got), _tree(want)
    if isinstance(want, tuple):
        assert isinstance(got, tuple) and len(got) == len(want)
        for g, w in zip(got, want):
            _same_bits(g, w)
        return
    if isinstance(want, str):
        assert got == want
        return
    assert np.size(got) == np.size(want), (np.shape(got), np.shape(want))
    shape = np.broadcast_shapes(np.shape(got), np.shape(want))
    assert _bits(np.broadcast_to(got, shape)) == _bits(np.broadcast_to(want, shape))


def _floats_only(u) -> bool:
    """Every number in ``u``, through its dual layers, is a Python float."""
    u = _tree(u)
    if isinstance(u, tuple):
        return all(map(_floats_only, u))
    return isinstance(u, str) or type(u) is float


def _outcome_of(call):
    """("ok", result) or the DomainError's message, index and argument."""
    try:
        return "ok", call()
    except jc.DomainError as err:
        return "DomainError", str(err), err.index, repr(err.argument)


def _agree(got, want) -> None:
    """Two _outcome_of results: equal errors, or results with equal bits."""
    assert got[0] == want[0], (got, want)
    if got[0] == "ok":
        _same_bits(got[1], want[1])
    else:
        assert got == want


def _check_pass(f, args) -> None:
    """gradn and value_and_gradn at ``args`` against the per-direction
    oracle and the plain value, including at a domain failure."""
    want = _outcome_of(lambda: reference.gradn(f, args))
    _agree(_outcome_of(lambda: jc.gradn(f, args)), want)
    if want[0] == "ok":
        want = ("ok", (f(*args), want[1]))
    _agree(_outcome_of(lambda: jc.value_and_gradn(f, args)), want)


def _oracle_symmetries(monkeypatch) -> None:
    """Make the symmetry code take gradients one pass per direction and
    values from a plain evaluation, a tuple-valued function's component
    by component."""
    monkeypatch.setattr(sym, "value_and_gradn", reference.value_and_gradn)


pole_angle = chart_angle | st.sampled_from([math.pi / 2, -math.pi / 2])
point_at_poles = st.tuples(pole_angle, pole_angle, st.floats(0.0, 6.3))


@bitwise
@settings(max_examples=40, deadline=None)
@given(point_at_poles, st.lists(point_at_poles, min_size=1, max_size=8), weights)
@example((math.pi / 2, 0.2, 1.0), [(0.3, 0.2, 1.0), (0.1, -math.pi / 2, 2.0)], [1.0] * 5)
def test_seeded_gradient_equals_per_direction_oracle_at_floats_and_arrays(point, rows, k):
    V = sym.general_symmetry(k)
    columns = tuple(np.array(c) for c in zip(*rows))
    for f in _COEFFICIENTS + [reference.component(V, i) for i in range(3)]:
        _check_pass(f, point)
        _check_pass(f, columns)
        got = _outcome_of(lambda: jc.value_and_gradn(f, point))
        if got[0] == "ok":  # Python floats at a float point, as the oracle gives
            assert _floats_only(got[1])


@bitwise
@settings(max_examples=25, deadline=None)
@given(st.lists(trial_weights, min_size=1, max_size=4), st.integers(1, 6), st.data())
def test_seeded_gradient_equals_per_direction_oracle_on_grids(weights, n, data):
    m = len(weights)
    x, y, v = (np.array(data.draw(st.lists(elems, min_size=m * n, max_size=m * n))).reshape(m, n)
               for elems in (pole_angle, pole_angle, st.floats(0.0, 6.3)))
    V = sym.general_symmetry(np.array(weights).T[:, :, None])
    for f in _COEFFICIENTS + [reference.component(V, i) for i in range(3)]:
        _check_pass(f, (x, y, v))


@bitwise
@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(pole_angle, pole_angle, st.floats(0.0, 6.3), slope, slope),
                min_size=1, max_size=6), st.booleans())
def test_seeded_gradient_nested_in_a_directional_equals_the_oracle(rows, at_float):
    # the prolong2_apply case: the point is a dual along (1, y_x, v_x)
    x, y, v, y_x, v_x = rows[0] if at_float else (np.array(c) for c in zip(*rows))
    args = tuple(map(jc.DualScalar, (x, y, v), (1.0, y_x, v_x)))
    for f in _COEFFICIENTS:
        _check_pass(f, args)
        got = _outcome_of(lambda: jc.gradn(f, args))
        if at_float and got[0] == "ok":
            assert _floats_only(got[1])


@bitwise
@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(chart_angle, chart_angle, st.floats(0.0, 6.3)), min_size=1, max_size=6),
       st.integers(1, 6), st.integers(1, 6), st.integers(1, 6), st.booleans())
def test_seeded_gradient_nested_in_a_gradient_equals_the_oracle(rows, a, b, c, at_float):
    # a bracket of a bracket takes a gradient inside a gradient
    point = rows[0] if at_float else tuple(np.array(col) for col in zip(*rows))
    W = sym.lie_bracket(sym.lie_bracket(sym.chi(a), sym.chi(b)), sym.chi(c))
    got = W(*point)
    with pytest.MonkeyPatch.context() as mp:
        _oracle_symmetries(mp)
        want = W(*point)
    _same_bits(got, want)
    if at_float:
        assert _floats_only(got)
    assert all(np.ndim(c) <= np.ndim(point[0]) for c in got)  # no unit axis left over
    inner = sym.lie_bracket(sym.chi(a), sym.chi(b))
    for i in range(3):
        _check_pass(reference.component(inner, i), point)


def _stacked_passes(passes, shape) -> np.ndarray:
    """Six generators' (values, gradients) passes as _generator_jets lays them out."""
    return np.array([[[np.broadcast_to(c, shape) for c in (value, *grad)]
                      for value, grad in zip(*one)] for one in passes])


@bitwise
@settings(max_examples=40, deadline=None)
@given(point_at_poles, st.lists(point_at_poles, min_size=1, max_size=8))
# x within the tan guard of pi/2 at index (1,): chi1's tan x fails first
@example((0.3, 0.2, 1.0), [(0.3, 0.2, 1.0), (math.pi / 2 - 1e-13, 0.1, 2.0)])
# y there at a float point: chi1's sec y fails before chi4's tan y
@example((0.3, math.pi / 2 - 1e-13, 1.0), [(0.3, -0.2, 1.0)])
def test_stacked_generator_pass_equals_six_frozen_passes_bitwise(point, rows):
    for at in (point, tuple(np.array(c) for c in zip(*rows))):
        got = _outcome_of(lambda: sym._generator_jets(*at))
        want = _outcome_of(lambda: _stacked_passes(reference.generator_passes(*at),
                                                   np.shape(at[0])))
        _agree(got, want)
        if got[0] == "ok":  # 18 values and 54 partials
            assert got[1].shape == (6, 3, 4) + np.shape(at[0])


@bitwise
@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(pole_angle, pole_angle, st.floats(0.0, 6.3), slope, slope),
                min_size=1, max_size=8), st.booleans())
@example([(0.3, 0.2, 1.0, 0.1, 0.2), (math.pi / 2 - 1e-13, 0.2, 1.0, 0.1, 0.2)], False)
def test_stacked_variational_rows_equal_each_generators_residual_bitwise(rows, at_float):
    j = chart.JetColumns(*(rows[0] if at_float else (np.array(c) for c in zip(*rows))))
    got = _outcome_of(lambda: sym.variational_residuals(j))
    for generators in (sym._CHI, reference.GENERATORS):
        want = _outcome_of(lambda: np.array(
            [np.broadcast_to(reference.variational_residual(F, j), np.shape(j.x))
             for F in generators]))
        _agree(got, want)


@bitwise
@settings(max_examples=20, deadline=None)
@given(jets, st.sampled_from([0.0, 0.25, 0.5, 0.9]), weights)
def test_symmetry_kernels_equal_their_per_direction_versions(rows, k, w):
    cols = _columns(rows)
    jets2 = chart.JetColumns(*cols[:5], np.full(len(rows), 0.7), np.full(len(rows), -0.3))
    F = geo.collapsed_fn(k)
    calls = [
        lambda: [sym.determining_residuals(V, cols) for V in (sym.chi(3), sym.general_symmetry(w))],
        lambda: [reference.variational_residual(sym.chi(i), cols) for i in range(1, 7)],
        lambda: sym.variational_residuals(cols),
        lambda: [sym.prolong2_apply(sym.chi(i), F, jets2) for i in (1, 3, 5)],
        lambda: sym._bracket_values(cols.x, cols.y, cols.v),
    ]
    for call in calls:
        got = _outcome_of(call)
        with pytest.MonkeyPatch.context() as mp:
            _oracle_symmetries(mp)
            want = _outcome_of(call)
        _agree(got, want)


# chi6's coefficients (0, 0, 1) are positions 15 to 17
_CHI6 = [15, 16, 17]
assert [_COEFFICIENTS[i](0.3, 0.2, 1.0) for i in _CHI6] == [0.0, 0.0, 1.0]


@bitwise
@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, len(_COEFFICIENTS) - 1), min_size=1, max_size=5),
       st.lists(st.tuples(pole_angle, pole_angle, st.floats(0.0, 6.3)), min_size=1, max_size=6),
       st.sampled_from(["float", "array", "grid", "nested"]), st.tuples(slope, slope, slope))
@example(_CHI6, [(0.3, 0.2, 1.0)], "float", (1.0, 0.5, -0.5))
@example(_CHI6 + [0], [(0.3, 0.2, 1.0), (0.1, 0.4, 2.0)], "grid", (1.0, 0.5, -0.5))
# chi1's phi (its tan x) fails at index (1,) after _extra succeeded
@example([18, 1], [(0.3, 0.2, 1.0), (math.pi / 2, 0.1, 0.0)], "array", (1.0, 0.5, -0.5))
@example([3, 5, 18], [(0.3, -math.pi / 2, 1.0)], "nested", (1.0, 0.5, -0.5))
def test_tuple_results_equal_one_lone_pass_per_component(picks, rows, shape, direction):
    components = [_COEFFICIENTS[i] for i in picks]

    def f(*a):
        return tuple(g(*a) for g in components)

    cols = [np.array(c) for c in zip(*rows)]
    point = {
        "float": lambda: rows[0],
        "array": lambda: tuple(cols),
        "grid": lambda: tuple(np.stack([c, c[::-1]]) for c in cols),
        # inside an outer directional pass, as in prolong2_apply
        "nested": lambda: tuple(map(jc.DualScalar, cols, direction)),
    }[shape]()
    for call in (lambda g: jc.directional(g, point, direction),
                 lambda g: jc.value_and_gradn(g, point)):
        got = _outcome_of(lambda: call(f))
        # lone passes in component order: the first component that fails raises
        _agree(got, _outcome_of(lambda: tuple(zip(*map(call, components)))))
        if got[0] == "ok":
            for i, d in zip(picks, got[1][1]):
                if i in _CHI6:  # a constant's derivative is 0
                    assert type(d) is float and d == 0.0 or d == (0.0,) * 3
            if shape == "float":
                assert _floats_only(got[1])


@bitwise
@settings(max_examples=25, deadline=None)
@given(st.integers(0, 6), weights, st.sampled_from([0.0, 0.25, 0.5, 0.9]), st.integers(0, 2**16),
       st.lists(st.tuples(pole_angle, pole_angle, st.floats(0.0, 6.3), slope, slope),
                min_size=1, max_size=6), st.booleans())
@example(1, [1.0] * 5, 0.25, 0, [(0.3, 0.2, 1.0, 0.1, 0.2), (math.pi / 2, 0.2, 1.0, 0.1, 0.2)],
         False)
@example(4, [1.0] * 5, 0.5, 0, [(0.3, -math.pi / 2, 1.0, 0.1, 0.2)], True)
def test_prolong2_apply_equals_the_three_evaluation_oracle(i, w, k, seed, rows, at_float):
    V = sym.chi(i) if i else sym.general_symmetry(w)
    onshell = suites._onshell_collapsed_jets(suites.RunConfig(seed=seed), k, 12, seed)
    cols = rows[0] if at_float else [np.array(c) for c in zip(*rows)]
    at_poles = chart.JetColumns(*cols, 0.7, -0.3)
    for F in (geo.collapsed_fn(k), reference.el_expression_y):
        for j in (onshell, at_poles):
            _agree(_outcome_of(lambda: sym.prolong2_apply(V, F, j)),
                   _outcome_of(lambda: reference.prolong2_apply(V, F, j)))


# ------------------------- trajectory rows and flow samples vs per-row reference

from glome import reduction as red  # noqa: E402
from reference import InversionDomain, alpha_from_sample, omega_prime  # noqa: E402

row_x = st.sampled_from([0.0, -0.0, 1e-200, 1e-13, -2e-7]) | chart_angle
traj_row = st.tuples(row_x, chart_angle, st.floats(0.0, 6.3), slope, slope)
traj_rows = st.lists(traj_row, min_size=1, max_size=30)
# x = 0, omega within OMEGA_GUARD of 1, tan tau = 0 (y = 0), tau stationary along the jet
_GUARD_ROWS = [(0.0, 0.3, 0.0, 0.5, 0.1), (1e-3, 1e-3, 0.0, 0.5, 0.1), (0.6, 0.0, 0.0, 0.5, 0.1)]


def _stationary_tau_row():
    x, y = 0.6, 0.4
    g = jc.gradn(lambda a, b, c: red.tau_coordinate(a, b), (x, y, 0.0))
    return (x, y, 0.0, -g[0] / g[1], 0.2)


@bitwise
@settings(max_examples=40, deadline=None)
@given(traj_rows)
def test_trajectory_columns_equal_per_row_reference(rows):
    traj = geo.Trajectory(np.array(rows))
    want = []
    for r in rows:
        j = chart.jet1(*r)
        g = chart.ambient_coords(j.x, j.y, j.v)
        norm = math.sqrt(g[0] ** 2 + g[1] ** 2 + g[2] ** 2 + g[3] ** 2)
        want.append((geo.noether_charge(j), chart.lagrangian(j), abs(norm - 1.0)))
    got = np.column_stack([traj.noether, traj.lagrangian, traj.ambient_norm_residual])
    assert got.tobytes() == np.array(want).tobytes()


@bitwise
@settings(max_examples=40, deadline=None)
@given(traj_rows, st.floats(0.0, 1.0))
def test_alpha_series_equals_per_row_reference(rows, k):
    rows = rows + _GUARD_ROWS + [_stationary_tau_row()]
    alphas, kept = red.alpha_series(geo.Trajectory(np.array(rows)), k)
    want, want_rows = [], []
    for i, r in enumerate(rows):
        j = chart.jet1(*r)
        if not red.tau_defined(j.x):
            continue
        try:
            tau, omega = red.tau_coordinate(j.x, j.y), red.omega_coordinate(j.x, j.y)
            if 1.0 - omega < red.OMEGA_GUARD or abs(math.tan(tau)) < red.TAU_GUARD:
                continue
            w_prime = omega_prime(j)
        except (InversionDomain, jc.DomainError):  # tau undefined, or stationary (d tau = 0)
            continue
        if math.isinf(w_prime):  # omega' overflows: tau is stationary too
            continue
        # a non-finite alpha is no exclusion: alpha_from_sample raises on it
        want.append(alpha_from_sample(tau, omega, w_prime, k))
        want_rows.append(i)
    assert alphas.tobytes() == _bits(want)
    assert kept.tolist() == want_rows
    assert len(rows) - len(kept) >= len(_GUARD_ROWS)


@bitwise
@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(chart_angle, chart_angle, st.floats(0.0, 6.3), slope, slope,
                          st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)),
                min_size=1, max_size=20),
       st.floats(0.0, 1.0))
def test_collapsed_s2_and_grid_columns_equal_per_row_reference(rows, k):
    data = np.array(rows)
    traj = geo.Trajectory(data[:, :5], data[:, 5:])
    E = [geo.collapsed_E(r[0], r[1], r[3], r[5], k) for r in rows]
    assert _bits(suites._collapsed_along(traj, k)) == _bits(E)
    c = traj.columns
    s2 = [red.s2_residual(r[0], r[1], r[3], r[5]) for r in rows]
    assert _bits(red.s2_residual(c.x, c.y, c.y_x, c.y_xx)) == _bits(s2)
    e0 = np.array([geo.collapsed_E(r[0], r[1], r[3], r[5], 0.0) for r in rows])
    e1 = np.array([geo.collapsed_E(r[0], r[1], r[3], r[5], 1.0) for r in rows]) - e0
    assert suites.grid_search_k(traj) == reference.plain_k_sweep(e0, e1)


_C = 2.0**-28  # a column scale whose E(1) stays within reference.E1_BOUND
_K = reference.K_GRID
_ulp_under_C = 2.0**-81  # the spacing of floats just below _C


def _through_grid(draw):
    """One column |E| = |k - g| * _C: zero at the grid value g, or at the
    midpoint of two grid values, where it ties."""
    i, midpoint, sign = draw
    g = 0.5 * (_K[i] + _K[min(i + 1, _K.size - 1)]) if midpoint else _K[i]
    return [(-g * sign * _C, (1.0 - g) * sign * _C)]


def _plateau_and_dip(draw):
    """Two columns whose max |E| is _C, then dips below it for d - 1 rows,
    then rises: the first has E(1) j ulps under E(0) = _C, which rounds
    back to _C up to k = 0.5 / j; the second is |1 + s (k - k2)| * _C with
    k2 d grid rows past that, at most _C on [0, k2]."""
    j, d, s = draw
    k2 = _K[min(round(5000 / j) + d, _K.size - 1)]
    s = min(s, 1.0 / (1.0 - k2)) if k2 < 1.0 else s
    return [(_C, _C - j * _ulp_under_C), (_C * (1.0 - s * k2), _C * (1.0 + s * (1.0 - k2)))]


_small = st.floats(-reference.E1_BOUND, reference.E1_BOUND)
_subnormal = st.floats(-2.0**-1022, 2.0**-1022)
_oracle_columns = st.lists(st.one_of(
    st.tuples(st.floats(allow_nan=False, allow_infinity=False), _small).map(lambda c: [c]),
    _small.map(lambda e: [(e, e)]),  # e1 = 0: the column is constant in k
    st.sampled_from([0.0, -0.0]).map(lambda z: [(z, z)]),
    st.tuples(_subnormal, _subnormal).map(lambda c: [c]),
    st.tuples(st.sampled_from([1e300, -1e300, 1.7e308, -1.7e308]), _small).map(lambda c: [c]),
    st.tuples(st.integers(0, 10000), st.booleans(), st.sampled_from([1.0, -1.0])).map(_through_grid),
    st.tuples(st.integers(1, 4), st.integers(1, 200), st.floats(1.0, 2.0)).map(_plateau_and_dip),
), min_size=1, max_size=6).map(lambda parts: sum(parts, []))


@settings(max_examples=300, deadline=None)
@given(_oracle_columns)
@example([(0.0, 0.0)])
@example([(1e-9, 1e-9), (-3e-9, -3e-9)])
@example(_plateau_and_dip((1, 40, 1.5)))
@example(_through_grid((7000, True, 1.0)) + [(1e300, 0.0), (5e-324, -5e-324)])
def test_grid_search_k_equals_the_plain_sweep_on_adversarial_columns(columns):
    E0, E1 = np.array(columns).T
    traj = reference.rows_with_collapsed_E(E0, E1)
    e0 = suites._collapsed_along(traj, 0.0)
    assert np.array_equal(e0, E0) and np.array_equal(suites._collapsed_along(traj, 1.0), E1)
    e1 = E1 - e0
    assert suites.grid_search_k(traj) == reference.plain_k_sweep(e0, e1)


@bitwise
@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**16), st.integers(1, 40), st.sampled_from([0.0, 0.25, 0.5, 0.9]))
def test_onshell_sampler_equals_per_draw_reference(seed, n, k):
    rng = np.random.default_rng(seed)
    lim = chart.HALF_PI - chart.DEFAULT_MARGIN
    want = []
    while len(want) < n:
        x = float(rng.uniform(-lim, lim))
        y = float(rng.uniform(-lim, lim))
        y_x = float(rng.uniform(-2.0, 2.0))
        if abs(x) < 0.05:
            continue
        cx, cy = math.cos(x), math.cos(y)
        coeff = cx * cy * (cx * cx * cy * cy - k)
        if abs(coeff) < 0.05:
            continue
        y_xx = -geo.collapsed_E(x, y, y_x, 0.0, k) / coeff
        if abs(y_xx) > 50.0:
            continue
        want.append((x, y, y_x, y_xx))
    got = suites._onshell_collapsed_jets(suites.RunConfig(), k, n, seed)
    assert np.column_stack([got.x, got.y, got.y_x, got.y_xx]).tobytes() == np.array(want).tobytes()


@bitwise
@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(chart_angle, chart_angle, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                min_size=1, max_size=10))
@example([(0.0, -0.0, 0.0, -0.0), (1.4, -1.4, 1.0, -1.0)])
def test_global_flow_of_stacked_lambdas_equals_one_call_per_row_bitwise(rows):
    x, y, lam1, lam2 = (np.array(c) for c in zip(*rows))
    X, Y = red.global_flow(x, y, np.stack((lam1, lam2)))
    assert X.shape == Y.shape == (2, len(rows))
    for r, lam in enumerate((lam1, lam2)):
        want = red.global_flow(x, y, lam)
        assert (_bits(X[r]), _bits(Y[r])) == tuple(map(_bits, want))


@bitwise
@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**16), st.integers(1, 60))
def test_stacked_collapsed_prolongation_equals_one_pass_per_k_bitwise(seed, samples):
    # suite_collapsed_prolongation's (4, n) pass against one pass per k
    cfg = suites.RunConfig(seed=seed, samples=samples)
    n = max(1, samples // 5)
    ks = suites._COLLAPSED_KS
    draws = [suites._onshell_collapsed_jets(cfg, k, n, seed + 500 + i) for i, k in enumerate(ks)]
    want = [sym.prolong2_apply(sym.chi(3), geo.collapsed_fn(k), j) for k, j in zip(ks, draws)]
    stacked = chart.JetColumns(*(np.stack(c) if isinstance(c[0], np.ndarray) else c[0]
                                 for c in zip(*draws)))
    got = sym.prolong2_apply(sym.chi(3), geo.collapsed_fn(np.array(ks)[:, None]), stacked)
    assert _bits(got) == _bits(want)
    (check,) = suites.suite_collapsed_prolongation(cfg)
    assert _bits([check.max_residual]) == _bits([max(float(np.max(np.abs(w))) for w in want)])


@bitwise
@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**16), st.integers(1, 60))
def test_suite_flow_equals_per_point_reference(seed, samples):
    cfg = suites.RunConfig(seed=seed, samples=samples)
    rng = np.random.default_rng(seed + 23)
    worst = [0.0] * 4  # omega invariance, tau shift, group law, chi3 directional
    for p in chart.sample_domain(samples, chart.DEFAULT_MARGIN, seed + 23):
        x, y = p.x, p.y
        lam1 = float(rng.uniform(-1.0, 1.0))
        lam2 = float(rng.uniform(-1.0, 1.0))
        X, Y = red.global_flow(x, y, lam1)
        worst[0] = max(worst[0], abs(red.omega_coordinate(X, Y) - red.omega_coordinate(x, y)))
        if abs(x) > 1e-6 and abs(X) > 1e-6:
            delta = red.tau_coordinate(X, Y) - red.tau_coordinate(x, y) - lam1
            worst[1] = max(worst[1], abs(delta - math.pi * round(delta / math.pi)))
        X2, Y2 = red.global_flow(X, Y, lam2)
        X12, Y12 = red.global_flow(x, y, lam1 + lam2)
        worst[2] = max(worst[2], abs(X2 - X12), abs(Y2 - Y12))
        if abs(x) > 1e-6:
            _, d_omega = jc.directional(red.omega_coordinate, (x, y),
                                        (math.sin(y), -math.tan(x) * math.cos(y)))
            worst[3] = max(worst[3], abs(d_omega))
    got = [r.max_residual for r in suites.suite_flow(cfg)]
    assert _bits(got) == _bits(worst)


# ------------------------------------------------------------ report bytes

def _sha256(payload) -> str:
    return hashlib.sha256(json.dumps(payload, indent=2).encode()).hexdigest()


@bitwise
def test_default_report_bytes_are_pinned(default_report):
    # the bytes `glome verify` writes, less its trailing newline
    assert _sha256(default_report) == (
        "17725a37cc2a02b8e9b3a8f2f07f59841df311afa4f7a4e16a7d2e76b66da57c")


@bitwise
def test_run_all_small_configuration_report_bytes_are_pinned():
    cfg = suites.RunConfig(seed=0, samples=50, trajectories=5, step=5e-3)
    assert _sha256(suites.run_all(cfg)) == (
        "b285f8aca51ed53d3afcf9852bb6fae47a39dd2e034caa62105c8329f28d47df")


@bitwise
def test_run_all_long_run_shorter_than_the_span_runs_report_bytes_are_pinned():
    # the 100-step long run finishes before the 160-step span runs of its batch
    cfg = suites.RunConfig(seed=0, samples=10, trajectories=3, step=5e-3)
    assert _sha256(suites.run_all(cfg)) == (
        "7948c13e87c682f6e5a58fcc28c72e4a0a4cb304474d6a2ed4ae2a40f71c313d")


@bitwise
def test_symmetry_suites_report_bytes_are_pinned():
    cfg = suites.RunConfig(seed=0, samples=1000)
    checks = []
    for suite in (suites.suite_determining, suites.suite_variational, suites.suite_bracket_table,
                  suites.suite_subgroups, suites.suite_collapsed_prolongation, suites.suite_flow):
        checks += suite(cfg)
    assert _sha256([c.as_dict() for c in checks]) == (
        "12c2795cc8d492504b7d0a5fc8494c85340f39a8aa3fdff0d1923ce2e836852f")


# ------------------------------------------- CSV round trip and CLI input fuzz

import contextlib  # noqa: E402
import io  # noqa: E402

from glome.cli import main  # noqa: E402

_EDGE_NUMBERS = [0.0, -0.0, 5e-324, -5e-324, 1e-200, -1e-200, 1e308, -1e308, math.nan, math.inf,
                 -math.inf, chart.HALF_PI - geo.POLE_MARGIN, geo.POLE_MARGIN - chart.HALF_PI]
cli_token = st.one_of(st.sampled_from(_EDGE_NUMBERS).map(repr),
                      st.sampled_from(["", "abc", "1e", "0x1", "--"]))


def _valid_csv() -> list[str]:
    buf = io.StringIO()
    geo.Trajectory(np.array([[0.1, 0.2, 0.0, 0.3, 0.4], [0.15, 0.22, 0.05, 0.3, 0.4],
                             [0.2, 0.25, 0.1, 0.3, 0.4]])).to_csv(buf)
    return buf.getvalue().splitlines()


@st.composite
def _edited(draw, cells):
    """The cells with up to two of them replaced by an edge token, then cut
    short or padded, or left whole."""
    cells = list(cells)
    for i in draw(st.lists(st.integers(0, len(cells) - 1), max_size=2)):
        cells[i] = draw(cli_token)
    extra = draw(st.one_of(st.just(0), st.integers(-3, 2)))
    return ",".join(cells[:len(cells) + min(extra, 0)] + ["0"] * max(extra, 0))


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def _strict(text):
    """json.loads that rejects NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def _flow_argv(draw, tmp):
    point = draw(_edited([repr(draw(chart_angle)), repr(draw(chart_angle))]))
    lam = draw(st.one_of(st.floats(-3.0, 3.0).map(repr), cli_token))
    return ["flow", f"--point={point}", f"--lambda={lam}"]


def _integrate_argv(draw, tmp):
    initial = draw(st.tuples(chart_angle, chart_angle, st.floats(0.0, 6.3), slope, slope))
    x_end = repr(initial[0] + draw(st.floats(-0.05, 0.05)))  # at most 50 steps
    x_end = draw(st.one_of(st.just(x_end), st.sampled_from(["nan", "-inf", "abc"])))
    step = draw(st.one_of(st.sampled_from(["0.001", "0.01"]),
                          st.sampled_from(["0", "-0.001", "5e-324", "1e308", "nan", "abc"])))
    return ["integrate", f"--initial={draw(_edited(map(repr, initial)))}", f"--x-end={x_end}",
            f"--step={step}", "--out", str(tmp / "t.csv")]


def _reduce_argv(draw, tmp):
    header, *rows = _valid_csv()
    header = draw(st.one_of(st.just(header), st.sampled_from(
        ["", "x,y,v,y_x,v_x", header + ",z", header.replace("x,y", "y,x", 1)])))
    rows = [draw(st.one_of(st.just(r), _edited(r.split(",")))) for r in rows]
    lines = [header] * draw(st.sampled_from([1, 1, 0])) + rows
    for at in draw(st.lists(st.integers(0, len(lines)), max_size=2)):
        lines.insert(at, "")  # blank lines
    (tmp / "in.csv").write_text("".join(line + "\n" for line in lines))
    return ["reduce", str(tmp / "in.csv")]


@settings(max_examples=25, deadline=None)
@given(state, st.floats(0.0, 6.3), st.floats(-0.05, 0.05))
def test_csv_round_trip_is_bitwise_for_integrated_trajectories(s, v, span):
    x, y, y_x, v_x = s
    try:
        traj = geo.integrate(chart.jet1(x, y, v, y_x, v_x), x + span, 1e-3)
    except (geo.DomainExit, geo.SingularSystem) as err:
        traj = err.trajectory
    buf = io.StringIO()
    traj.to_csv(buf)
    buf.seek(0)
    loaded = geo.Trajectory.from_csv(buf)
    for column in ("samples", "noether", "lagrangian", "ambient_norm_residual"):
        assert getattr(loaded, column).tobytes() == getattr(traj, column).tobytes(), column


@settings(max_examples=600, deadline=None)
@given(st.sampled_from([_flow_argv, _integrate_argv, _reduce_argv]), st.data())
def test_cli_inputs_exit_with_a_documented_code_and_strict_json(tmp_path_factory, build, data):
    # every input exits 0, 1 or 2 without a traceback, and all JSON written is strict
    tmp = tmp_path_factory.mktemp("cli")
    argv = build(data.draw, tmp)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    hypothesis.event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    if out.getvalue() or code == 0:
        _strict(out.getvalue())
    if (tmp / "t.json").exists():
        _strict((tmp / "t.json").read_text())
