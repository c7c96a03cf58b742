"""The benchmark's workloads and the correctness gate every run applies.

Each workload draws VARIANTS inputs from the seed once (that is set-up),
then runs one operation per call of ``run(variant)``.  An operation returns an
:class:`Outcome`: the output bytes whose sha256 shows determinism, and the
gate items it was judged on.  Tolerances are always the package's
unchanged ``DEFAULT_TOLERANCES``.

Calls go through module attributes (``suites.run_all``, ``cli.main``) at
call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from glome import cli, suites

TOLERANCES = dict(suites.DEFAULT_TOLERANCES)
VARIANTS = 5  # distinct inputs per run; operations cycle through them

SYMMETRY_SUITES = (
    "suite_determining",
    "suite_variational",
    "suite_bracket_table",
    "suite_subgroups",
    "suite_collapsed_prolongation",
    "suite_flow",
)
SYMMETRY_CHECKS = (
    "determining_equations",
    "variational_criterion",
    "bracket_table",
    "subgroup_closure",
    "collapsed_prolongation",
    "flow_omega_invariance",
    "flow_tau_shift",
    "flow_group_property",
    "omega_chi3_directional",
)


@dataclass
class Check:
    """One gate item.  ``residual`` is None for pass/fail items (exit codes)."""

    name: str
    passed: bool
    residual: float | None = None
    tolerance: float | None = None


@dataclass
class Outcome:
    output: bytes
    checks: list[Check] = field(default_factory=list)

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.output).hexdigest()

    @property
    def failed(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]

    def headroom_decades(self) -> float | None:
        """min log10(tolerance / residual) over checks with a positive residual."""
        values = [math.log10(c.tolerance / c.residual) for c in self.checks
                  if c.residual is not None and c.residual > 0.0 and math.isfinite(c.residual)]
        return min(values) if values else None


def _strict_bytes(payload) -> tuple[bytes, Check]:
    """JSON bytes of ``payload``; the gate item fails on a non-finite value."""
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
        ok = True
    except ValueError:
        text = json.dumps(payload, indent=2)
        ok = False
    return text.encode(), Check("strict_json", ok)


def _reject_constant(token):
    raise ValueError(f"non-finite JSON value {token}")


def _load_strict(data: bytes):
    return json.loads(data, parse_constant=_reject_constant)


def _tolerance_check(name: str, residual) -> Check:
    tol = TOLERANCES[name]
    if not isinstance(residual, (int, float)):
        return Check(name, False, None, tol)
    residual = float(residual)
    return Check(name, math.isfinite(residual) and residual < tol, residual, tol)


def _report_checks(entries: list[dict], expected) -> list[Check]:
    """Gate items for suite CheckResult dicts: the suite's verdict and the
    residual against the unchanged default tolerance must both pass."""
    checks = [Check("check_set", sorted(e["name"] for e in entries) == sorted(expected))]
    for e in entries:
        item = _tolerance_check(e["name"], e["max_residual"])
        item.passed = item.passed and bool(e["passed"]) and e["tolerance"] == item.tolerance
        checks.append(item)
    return checks


def _cli(argv: list[str]) -> int:
    """``cli.main`` with its chatter captured; a traceback counts as exit 1."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.main(argv)
        except Exception as err:  # an uncaught error is a failed call, not a crash
            print(f"perfbench: glome {argv[0]} raised {err!r}", file=sys.stderr)
            return 1


def variant_seeds(seed: int) -> list[int]:
    """The VARIANTS input seeds of one benchmark seed (disjoint across seeds)."""
    return [seed * VARIANTS + k for k in range(VARIANTS)]


class VerifyDefault:
    """``suites.run_all``: every suite, RK4 batch and reduction included.

    The timed operation runs a small configuration (50 samples, five
    random trajectories, step 5e-3; about 1.8 s) so that a run holds about
    ten operations.  The traced run adds the default configuration (1000
    samples, 50 trajectories, step 1e-3), the product's end-to-end case.
    """

    name = "verify_default"
    SMALL = {"samples": 50, "trajectories": 5, "step": 5e-3}

    def __init__(self, seed: int, tmp: Path, tiny: bool = False):
        self.configs = [suites.RunConfig(seed=s, **self.SMALL) for s in variant_seeds(seed)]
        self.full_cfg = None if tiny else suites.RunConfig(seed=self.configs[0].seed)

    @staticmethod
    def _outcome(report: dict) -> Outcome:
        output, strict = _strict_bytes(report)
        checks = _report_checks(report["checks"], TOLERANCES)
        return Outcome(output, [strict, Check("report_passed", bool(report["passed"]))] + checks)

    def run(self, variant: int) -> Outcome:
        return self._outcome(suites.run_all(self.configs[variant]))

    def run_full(self) -> Outcome | None:
        return self._outcome(suites.run_all(self.full_cfg)) if self.full_cfg else None


class SymmetrySweep:
    """The six symmetry suites at the default 1000 samples: no RK4, no ``el_rhs``."""

    name = "symmetry_sweep"

    def __init__(self, seed: int, tmp: Path, tiny: bool = False):
        samples = 60 if tiny else 1000
        self.configs = [suites.RunConfig(seed=s, samples=samples) for s in variant_seeds(seed)]

    def run(self, variant: int) -> Outcome:
        results = []
        for suite in SYMMETRY_SUITES:
            results += getattr(suites, suite)(self.configs[variant])
        entries = [r.as_dict() for r in results]
        output, strict = _strict_bytes(entries)
        return Outcome(output, [strict] + _report_checks(entries, SYMMETRY_CHECKS))

    def run_full(self) -> Outcome | None:
        return None


class TrajectoryRoundtrip:
    """``glome integrate`` of one 2000-step geodesic, then ``glome reduce``.

    The initial state sits at x = -1.25; y, v, y_x and v_x come from the
    seed.  ``--initial`` is passed in its ``=`` form because argparse reads
    a separate leading ``-1.25`` as an option.
    """

    name = "trajectory_roundtrip"
    X0 = -1.25
    STEP = 2.5e-4
    STEPS = 2000

    def __init__(self, seed: int, tmp: Path, tiny: bool = False):
        x_end = self.X0 + (400 if tiny else self.STEPS) * self.STEP
        tmp.mkdir(parents=True, exist_ok=True)
        self.csv = tmp / "trajectory.csv"
        self.sidecar = self.csv.with_suffix(".json")
        self.report = tmp / "reduction.json"
        self.argvs = []
        for s in variant_seeds(seed):
            rng = np.random.default_rng(s)
            y0 = float(rng.uniform(-0.3, 0.3))
            v0 = float(rng.uniform(0.0, 2.0 * math.pi))
            y_x = float(rng.uniform(-0.2, 0.2))
            v_x = float(rng.uniform(-0.3, 0.3))
            initial = ",".join(repr(v) for v in (self.X0, y0, v0, y_x, v_x))
            self.argvs.append((
                ["integrate", f"--initial={initial}", f"--x-end={x_end!r}",
                 f"--step={self.STEP!r}", "--out", str(self.csv)],
                ["reduce", str(self.csv), "--out", str(self.report)],
            ))

    def run(self, variant: int) -> Outcome:
        integrate_argv, reduce_argv = self.argvs[variant]
        for path in (self.csv, self.sidecar, self.report):
            path.unlink(missing_ok=True)
        checks = [Check("cli_integrate_exit", _cli(integrate_argv) == 0),
                  Check("cli_reduce_exit", _cli(reduce_argv) == 0)]
        parts = [p.read_bytes() if p.exists() else b"" for p in (self.csv, self.sidecar, self.report)]
        try:
            sidecar = _load_strict(parts[1])
            report = _load_strict(parts[2])
        except ValueError:
            return Outcome(b"".join(parts), checks + [Check("strict_json", False)])
        checks += [
            Check("strict_json", True),
            _tolerance_check("noether_drift", sidecar.get("noether_drift")),
            _tolerance_check("oracle_endpoint", sidecar.get("oracle_endpoint_error")),
            _tolerance_check("alpha_constancy", report.get("alpha_rel_dev")),
        ]
        return Outcome(b"".join(parts), checks)

    def run_full(self) -> Outcome | None:
        return None


WORKLOADS = {w.name: w for w in (VerifyDefault, SymmetrySweep, TrajectoryRoundtrip)}


def build(name: str, seed: int, tmp: Path, tiny: bool = False):
    """Draw the workload's inputs from ``seed`` (negative seeds wrap to 32 bits)."""
    return WORKLOADS[name](seed % 2**32, tmp, tiny)
