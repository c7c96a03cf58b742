"""One workload in one fresh process; started by ``run.py``, not by hand.

Protocol on stdout: the line ``PERFBENCH_READY`` once the imports are done
and the seed's inputs are drawn (``run.py`` times process start to this
line as set-up), then, unless ``--probe`` is given, one line
``PERFBENCH_RESULT <json>``.  Everything else the workload prints is
captured, so these two lines are the whole protocol.

With ``--trace 0`` the worker runs a closed loop, one caller and one
operation at a time, cycling through the workload's input variants until
``--seconds`` have passed, every variant has run and the first has run
twice.  With ``--trace 1``
it runs one operation untraced and once traced (their difference is the
tracing overhead), the full-size traced run where the workload has one,
and the isolated-call timings of ``layers.py``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from hostspeed import HostSpeed

READY = "PERFBENCH_READY"
RESULT = "PERFBENCH_RESULT"


def _gate_summary(outcomes, identical: bool) -> dict:
    return {
        "attempted": sum(len(o.checks) for o in outcomes),
        "failed": sum(len(o.failed) for o in outcomes),
        "failures": sorted({name for o in outcomes for name in o.failed}),
        "sha256": outcomes[0].sha256,
        "identical": identical,
    }


def timed_loop(workload, seconds: float, speed) -> dict:
    """Closed loop cycling through the workload's input variants; every
    variant runs, and the first one twice, so repeats can be compared."""
    from workloads import VARIANTS as n

    spans, outcomes = [], []
    start = perf_counter()
    while len(spans) <= n or perf_counter() - start < seconds:
        variant = len(spans) % n
        t0 = perf_counter()
        outcome = workload.run(variant)
        spans.append((t0, perf_counter()))
        outcomes.append(outcome)
    identical = all(len({o.sha256 for o in outcomes[v::n]}) == 1 for v in range(n))
    result = _gate_summary(outcomes, identical)
    # per variant the closest call; the median over variants damps the
    # heavy tails of single residuals (flow rounding, k-grid quantization)
    headrooms = [h for h in (o.headroom_decades() for o in outcomes[:n]) if h is not None]
    result["headroom_decades"] = statistics.median(headrooms) if headrooms else None
    result["op_wall_s"] = [b - a for a, b in spans]
    result["op_corrected_s"] = [speed.corrected(a, b) for a, b in spans]
    result["fastest_probe_s"] = speed.fastest()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def traced_run(workload, tiny: bool) -> dict:
    """Variant 0 untraced, then traced (same bytes expected; both times
    host-speed corrected), then the full-size traced run where the workload
    has one, then the isolated calls (raw times)."""
    import layers
    from tracer import Tracer

    with HostSpeed() as speed:  # the overhead is a small difference of noisy times
        t0 = perf_counter()
        plain = workload.run(0)
        t1 = perf_counter()
        tracer = Tracer()
        with tracer:
            small = workload.run(0)
        t2 = perf_counter()
    untraced = speed.corrected(t0, t1)
    traced_wall = speed.corrected(t1, t2)
    outcomes, traced = [plain, small], small
    full_tracer = Tracer()
    with full_tracer:
        full = workload.run_full()
    if full is not None:  # the full-size run's spans replace the small one's
        tracer, traced = full_tracer, full
        outcomes.append(full)
    leftover = tracer.installed()
    if leftover:
        raise RuntimeError(f"tracer left wrappers installed: {leftover}")

    metrics = layers.measure(tiny)
    metrics.update(layer_metrics(tracer, traced))
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.traced_wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced
    result = _gate_summary(outcomes, plain.sha256 == small.sha256)
    result["metrics"] = metrics
    result["trace_table"] = tracer.table()
    return result


SUITE_SPANS = (
    "suite_determining",
    "suite_variational",
    "suite_bracket_table",
    "suite_subgroups",
    "suite_collapsed_prolongation",
    "suite_flow",
    "make_batch",
    "suite_noether",
    "suite_oracle",
    "suite_reduction",
)
SELF_TIMED = (
    "geodesics.el_rhs",
    "geodesics.integrate",
    "symmetries.identify_field",
    "symmetries.lie_bracket",
    "reduction.alpha_series",
)
COUNTED = ("jetcalc.directional", "jetcalc.gradn", "chart.arc_speed")


def layer_metrics(tracer, outcome) -> dict:
    from workloads import TOLERANCES

    m = {}
    for suite in SUITE_SPANS:
        m[f"suites.{suite}_s"] = tracer.total_s(f"suites.{suite}")
    m["cli.integrate_s"] = tracer.total_s("cli.cmd_integrate")
    m["cli.reduce_s"] = tracer.total_s("cli.cmd_reduce")
    for name in SELF_TIMED:
        m[f"{name}.self_s"] = tracer.self_s.get(name, 0.0)
        m[f"{name}.calls"] = tracer.counts[name]
    for name in COUNTED:
        m[f"{name}.calls"] = tracer.counts[name]
    m["geodesics.rk4_steps"] = tracer.rk4_steps
    m["geodesics.el_rhs.unique_ratio"] = tracer.el_rhs_unique_ratio()
    above = tracer.ancestors("geodesics.el_rhs")
    m["geodesics.el_rhs.calls.make_batch"] = above["suites.make_batch"]
    m["geodesics.el_rhs.calls.suite_reduction"] = above["suites.suite_reduction"]
    residuals = {c.name: c.residual for c in outcome.checks if c.residual is not None}
    for name in TOLERANCES:  # 0 where this workload does not run the check
        m[f"check.{name}.max_residual"] = residuals.get(name, 0.0)
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    protocol = sys.stdout
    sys.stdout = sys.stderr  # anything else printed goes to stderr
    with HostSpeed() as speed:  # opened first, so set-up is sampled too
        workload = _setup(args)
        print(READY, speed.rate(), file=protocol, flush=True)
        if args.probe:
            return 0
        result = None if args.trace else timed_loop(workload, args.seconds, speed)
    if args.trace:
        result = traced_run(workload, args.tiny)
    print(RESULT, json.dumps(result, allow_nan=False), file=protocol, flush=True)
    return 0


def _setup(args):
    """Import glome from the checkout and draw the seed's inputs."""
    sys.path.insert(0, str(args.src))
    import glome
    import workloads

    if Path(glome.__file__).resolve().parent != (args.src / "glome").resolve():
        raise RuntimeError(f"imported glome from {glome.__file__}, not from {args.src}")
    return workloads.build(args.workload, args.seed, args.tmp / args.workload, args.tiny)


if __name__ == "__main__":
    sys.exit(main())
