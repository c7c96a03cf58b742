"""Benchmark of the glome package: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workload runs in a fresh Python
process (``worker.py``) that imports ``glome`` from ``src/`` with every
thread pool pinned to one thread.  Set-up time is taken over several
further fresh processes that only import and draw the seed's inputs.
Times of the untraced run are corrected for the host's momentary speed
(``hostspeed.py``); the raw times are printed in the summary.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json,
``--trace 1`` the per-layer ones.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it are a readable summary.  Any error exits non-zero without that
line.  See NOTES.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from hostspeed import NOMINAL_PROBE_S

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
SPEC = ROOT / "BENCHMARK.json"
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"
SETUP_PROBES = 9  # measured set-up processes, after one untimed warm-up
RUN_LIMIT_S = 170.0  # whole run, all processes included
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

READY = "PERFBENCH_READY"
RESULT = "PERFBENCH_RESULT"


class BenchError(RuntimeError):
    """The run could not produce a trustworthy result."""


def load_spec() -> dict:
    try:
        return json.loads(SPEC.read_text())
    except (OSError, ValueError) as err:
        raise BenchError(f"cannot read {SPEC.name}: {err}") from None


class _Worker:
    """A worker process with a kill deadline; reaped on every path."""

    def __init__(self, argv: list[str], deadline: float):
        env = dict(os.environ, **THREAD_PINS)
        self.start = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *argv],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        )
        remaining = deadline - perf_counter()
        self.timer = threading.Timer(max(remaining, 0.0), self.proc.kill)
        self.timer.daemon = True
        self.timer.start()

    def run(self) -> tuple[float, float, dict | None]:
        """Seconds from spawn to READY, the host-speed rate the worker
        sampled over that time, and the RESULT payload if any."""
        setup, rate, payload = None, None, None
        try:
            for line in self.proc.stdout:
                if line.startswith(READY) and setup is None:
                    setup = perf_counter() - self.start
                    rate = float(line.split()[1])
                elif line.startswith(RESULT):
                    payload = json.loads(line[len(RESULT):])
        finally:
            self.proc.stdout.close()
            code = self.proc.wait()
            self.timer.cancel()
        if code != 0 or setup is None:
            raise BenchError(f"worker exited with code {code}")
        return setup, rate, payload


def run_benchmark(workload: str, seed: int, seconds: float, trace: int,
                  tiny: bool = False) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and the summary lines."""
    spec = load_spec()
    if workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError(f"unknown workload {workload!r}")
    if not (SRC / "glome" / "__init__.py").is_file():
        raise BenchError(f"no glome package under {SRC}")
    deadline = perf_counter() + RUN_LIMIT_S
    tmp = TMP / f"run-{os.getpid()}"
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--tmp", str(tmp), "--src", str(SRC)] + (["--tiny"] if tiny else [])
    try:
        setups = []  # (seconds, host-speed rate)
        for i in range(0 if trace else SETUP_PROBES + 1):
            setup, rate, _ = _Worker(argv + ["--probe"], deadline).run()
            if i:  # the first probe warms the bytecode cache
                setups.append((setup, rate))
        setup, rate, payload = _Worker(argv, deadline).run()
        setups.append((setup, rate))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass  # another run still uses it
    if payload is None:
        raise BenchError("worker printed no result")

    same = payload["identical"]
    attempted = payload["attempted"] + 1  # + the byte-identity comparison
    failed = payload["failed"] + (0 if same else 1)
    if trace == 0:
        headroom = payload["headroom_decades"]
        if headroom is None:
            raise BenchError("no check reported a positive residual")
        metrics = {
            "wall_s": statistics.median(payload["op_corrected_s"]),
            "setup_s": statistics.median(t * NOMINAL_PROBE_S * rate for t, rate in setups),
            "peak_rss_mb": payload["peak_rss_mb"],
            "pass_ratio": 1.0 - failed / attempted,
            "tol_headroom_decades": headroom,
            "deterministic": 1 if same else 0,
        }
        section = "end_to_end"
    else:
        metrics = payload["metrics"]
        section = "per_layer"

    units = {m["name"]: m["unit"] for m in spec[section]}
    if set(metrics) != set(units):
        raise BenchError(f"metric names differ from {SPEC.name}: "
                         f"missing {sorted(set(units) - set(metrics))}, "
                         f"extra {sorted(set(metrics) - set(units))}")
    for name, value in metrics.items():
        if not math.isfinite(value):
            raise BenchError(f"metric {name} is not finite: {value}")

    lines = [f"perfbench {workload} seed={seed} seconds={seconds} trace={trace}"]
    if trace == 0:
        walls, fixed = payload["op_wall_s"], payload["op_corrected_s"]
        lines.append(f"  operations: {len(walls)}; raw wall median {statistics.median(walls):.4f} s, "
                     f"min {min(walls):.4f} s; raw set-up median "
                     f"{statistics.median(t for t, _ in setups):.4f} s; fastest host-speed probe "
                     f"{payload['fastest_probe_s'] * 1e6:.2f} us (nominal {NOMINAL_PROBE_S * 1e6:g})")
        lines.append(f"  raw wall per operation (s):       {' '.join(f'{w:.3f}' for w in walls)}")
        lines.append(f"  corrected wall per operation (s): {' '.join(f'{w:.3f}' for w in fixed)}")
    else:
        lines.append("  traced self time (s; - for count-only names) and calls:")
        lines += [f"    {n:<42} {'-' if s is None else f'{s:.4f}':>10} {c:10d}"
                  for n, c, s in payload["trace_table"]]
    lines.append(f"  output sha256 (first operation): {payload['sha256']}"
                 + ("" if same else "  (repeated inputs gave different bytes)"))
    lines.append(f"  gate: {attempted - failed}/{attempted} passed"
                 + (f"; failed: {', '.join(payload['failures'])}" if payload["failures"] else ""))
    lines += [f"  {name:<42} {metrics[name]:.6g} {units[name]}" for name in units]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark one glome workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        result, lines = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
