"""Isolated calls into each module's public functions, timed from outside.

Every figure is the median per-call time over several repeats, after one
untimed warm-up call.  Inputs are fixed points well inside the chart, so
the figures do not depend on the workload seed.
"""

from __future__ import annotations

import io
import statistics
import timeit

from glome import chart, geodesics, jetcalc, reduction, symmetries

POINT = (0.3, 0.2, 0.4, 0.5)  # x, y, y_x, v_x
JET = chart.jet1(0.3, 0.2, 0.1, 0.4, 0.5)
JET2 = chart.jet2(0.3, 0.2, 0.0, 0.4, 0.0, 0.1, 0.0)
START_800 = chart.jet1(0.0, 0.2, 0.3, 0.4, 0.3)
START_LONG = chart.jet1(-1.25, 0.2, 0.3, 0.15, 0.2)  # make_batch's long-run state
LONG_STEP = 2.5e-4


def _per_call(fn, number: int, repeat: int = 7) -> float:
    """Median seconds per call of ``fn()`` over ``repeat`` batches of ``number``."""
    fn()
    timer = timeit.Timer(fn)
    return statistics.median(timer.repeat(repeat=repeat, number=number)) / number


def measure(tiny: bool = False) -> dict[str, float]:
    """Per-layer isolated timings; ``tiny`` shrinks repeat counts and sizes."""
    scale = 10 if tiny else 1
    a = jetcalc.DualScalar(1.1, 0.3)
    b = jetcalc.DualScalar(0.7, -0.2)
    mul = timeit.Timer("a * b", globals={"a": a, "b": b})
    n_mul = 200000 // scale
    dual_mul = statistics.median(mul.repeat(repeat=7, number=n_mul)) / n_mul

    seeded = tuple(jetcalc.DualScalar(v, d) for v, d in zip(POINT, (0.0, 0.0, 1.0, 0.0)))
    arc_speed = _per_call(lambda: chart.arc_speed(*seeded), 20000 // scale)
    gradn = _per_call(lambda: jetcalc.gradn(chart.arc_speed, POINT), 2000 // scale)
    el_rhs = _per_call(lambda: geodesics.el_rhs(JET), 400 // scale)

    x_end = 0.08 if tiny else 0.8
    integrate = _per_call(lambda: geodesics.integrate(START_800, x_end, 1e-3), 1, repeat=3)
    steps = round(x_end / 1e-3)
    traj = geodesics.integrate(START_800, x_end, 1e-3)
    k = geodesics.infer_k(traj.jet(0))
    alpha = _per_call(lambda: reduction.alpha_series(traj, k), 1, repeat=5)

    points = chart.sample_domain(50, chart.DEFAULT_MARGIN, 17)
    bracket = symmetries.lie_bracket(symmetries.chi(1), symmetries.chi(2))
    identify = _per_call(lambda: symmetries.identify_field(bracket, points, 1e-8), 5)
    collapsed = geodesics.collapsed_fn(0.25)
    chi3 = symmetries.chi(3)
    prolong2 = _per_call(lambda: symmetries.prolong2_apply(chi3, collapsed, JET2), 400 // scale)

    long_end = START_LONG.x + (0.025 if tiny else 2.5)  # 10^4 steps at the long-run step
    long_run = geodesics.integrate(START_LONG, long_end, LONG_STEP)
    text = io.StringIO()
    long_run.to_csv(text)
    csv_text = text.getvalue()
    csv_write = _per_call(lambda: long_run.to_csv(io.StringIO()), 1, repeat=5)
    csv_read = _per_call(lambda: geodesics.Trajectory.from_csv(io.StringIO(csv_text)), 1, repeat=5)

    return {
        "jetcalc.dual_mul_ns": dual_mul * 1e9,
        "jetcalc.gradn_us": gradn * 1e6,
        "chart.arc_speed_dual_us": arc_speed * 1e6,
        "geodesics.el_rhs_us": el_rhs * 1e6,
        "geodesics.integrate_800_s": integrate,
        "geodesics.rk4_overhead_ratio": integrate / (4 * steps * el_rhs),
        "geodesics.csv_write_ms": csv_write * 1e3,
        "geodesics.csv_read_ms": csv_read * 1e3,
        "symmetries.identify_field_ms": identify * 1e3,
        "symmetries.prolong2_apply_us": prolong2 * 1e6,
        "reduction.alpha_series_ms": alpha * 1e3,
    }
