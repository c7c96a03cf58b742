"""Fast self-test of the benchmark at a tiny size (about a minute).

    python3 perfbench/selftest.py

Checks that every workload, traced and untraced, emits exactly the metric
names of BENCHMARK.json as strict JSON with a passing gate; that the
tracer's el_rhs counts equal the closed-form count for the configuration
(4 per RK4 step in make_batch, plus one per trajectory sample that
suite_reduction recomputes); that the tracer leaves no wrapper behind,
also when the traced code raises; and that the benchmark fails without
a result where the glome sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))

import glome  # noqa: E402
from glome import geodesics, suites  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import VerifyDefault  # noqa: E402

FAILURES = []


def check(label: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {label}" + (f"  ({detail})" if detail and not ok else ""))
    if not ok:
        FAILURES.append(label)


def _reject_constant(token):
    raise ValueError(f"non-finite JSON value {token}")


def closed_form_el_rhs(cfg) -> tuple[int, int]:
    """(el_rhs calls in make_batch, in suite_reduction) for a RunConfig."""
    n = round(suites.TRAJECTORY_SPAN / cfg.step)
    planar = max(5, cfg.trajectories // 5)
    rk4_steps = cfg.trajectories * n + 10 * cfg.samples + planar * n
    rows = n + 1
    recomputed = (cfg.trajectories + min(5, cfg.trajectories) + planar) * rows
    return 4 * rk4_steps, recomputed


def test_names_and_json() -> dict:
    spec = run.load_spec()
    traced = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} trace={trace}"
            result, _ = run.run_benchmark(workload, seed=3, seconds=1, trace=trace, tiny=True)
            line = json.dumps(result, allow_nan=False)
            parsed = json.loads(line, parse_constant=_reject_constant)
            check(f"{label}: strict JSON with the contract's keys",
                  sorted(parsed) == ["attempted", "correct", "failed", "metrics"])
            expected = [m["name"] for m in spec[section]]
            check(f"{label}: metric names equal BENCHMARK.json", list(parsed["metrics"]) == expected)
            check(f"{label}: gate passes", parsed["correct"] and parsed["failed"] == 0,
                  f"{parsed['failed']} of {parsed['attempted']} failed")
            if trace:
                traced[workload] = {k: v["value"] for k, v in parsed["metrics"].items()}
    return traced


def test_el_rhs_counts(traced: dict) -> None:
    cfg = VerifyDefault(3, Path("."), tiny=True).configs[0]  # the traced variant
    in_batch, in_reduction = closed_form_el_rhs(cfg)
    m = traced["verify_default"]
    check("verify_default: el_rhs calls under make_batch = 4 x RK4 steps (closed form)",
          m["geodesics.el_rhs.calls.make_batch"] == in_batch == 4 * m["geodesics.rk4_steps"],
          f"{m['geodesics.el_rhs.calls.make_batch']} vs {in_batch}, steps {m['geodesics.rk4_steps']}")
    check("verify_default: el_rhs calls under suite_reduction (closed form)",
          m["geodesics.el_rhs.calls.suite_reduction"] == in_reduction,
          f"{m['geodesics.el_rhs.calls.suite_reduction']} vs {in_reduction}")
    check("verify_default: el_rhs total = make_batch + suite_reduction",
          m["geodesics.el_rhs.calls"] == in_batch + in_reduction)
    check("symmetry_sweep: no el_rhs calls, no RK4 steps",
          traced["symmetry_sweep"]["geodesics.el_rhs.calls"] == 0
          and traced["symmetry_sweep"]["geodesics.rk4_steps"] == 0)
    default_batch, default_reduction = closed_form_el_rhs(suites.RunConfig())
    check("closed form at the default configuration is 232000 + 52065",
          (default_batch, default_reduction) == (232000, 52065))


def _bindings() -> dict:
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "glome" or name.startswith("glome."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
    out[("Trajectory", "from_csv")] = geodesics.Trajectory.__dict__["from_csv"]
    out[("Trajectory", "to_csv")] = geodesics.Trajectory.__dict__["to_csv"]
    return out


def test_tracer_restores() -> None:
    before = _bindings()
    tracer = Tracer()
    try:
        with tracer:
            check("tracer installs wrappers on every binding",
                  glome.el_rhs is geodesics.el_rhs and hasattr(geodesics.el_rhs, "__perfbench_original__")
                  and hasattr(geodesics.directional, "__perfbench_original__"))
            j = glome.Jet1(glome.ChartPoint(0.1, 0.2, 0.0), 0.3, 0.4)
            glome.el_rhs(j)
            geodesics.integrate(j, 0.105, 1e-3)
            raise KeyError("raised inside the traced region")
    except KeyError:
        pass
    after = _bindings()
    changed = [k for k in before if after.get(k) is not before[k]]
    check("tracer restores every binding after a raise", not changed and not tracer.installed(),
          f"changed: {changed[:5]}")
    check("tracer counted the calls made through the package and the RK4 closure",
          tracer.counts["geodesics.el_rhs"] == 1 + 4 * 5 and tracer.rk4_steps == 5,
          f"el_rhs {tracer.counts['geodesics.el_rhs']}, steps {tracer.rk4_steps}")


def test_fails_without_sources() -> None:
    bare = run.TMP / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.SPEC, bare / "BENCHMARK.json")
    for path in run.HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench" / path.name)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "verify_default", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            run.TMP.rmdir()
        except OSError:
            pass  # a benchmark run still uses it
    check("without src/glome the benchmark exits non-zero and prints no result",
          proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stderr.strip())


def main() -> int:
    for test in (test_tracer_restores, test_fails_without_sources):
        test()
    try:
        test_el_rhs_counts(test_names_and_json())
    except run.BenchError:
        traceback.print_exc()
        FAILURES.append("benchmark run")
    print(f"{'FAILED: ' + ', '.join(FAILURES) if FAILURES else 'all self-tests passed'}")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
