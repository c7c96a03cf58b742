"""Named verification suites behind `glome verify` and the acceptance tests.

Each check maps onto one invariant of the symmetry/geodesic/reduction
modules; there are no unnamed checks.  Sample counts derive from a single
`samples` knob whose default (1000) reproduces the standard counts:
1000 jets/triples for the pointwise criteria, 100 points per random
combination for the determining equations, 50 points per bracket entry,
200 on-shell jets per k for the second-prolongation check, and 50
trajectories of span 0.8 at the configured step for the dynamics suites.

All suites are deterministic given the configuration.  Each check is
evaluated in one array-valued pass over all its sample points or
trajectory rows (chart.JetColumns, Trajectory.columns), drawn by the same
random calls as per-point sampling, so every residual equals its
per-point value bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import chart, geodesics, jetcalc, reduction, symmetries
from .chart import HALF_PI

DEFAULT_TOLERANCES = {
    "determining_equations": 1e-9,
    "variational_criterion": 1e-9,
    "bracket_table": 1e-8,
    "subgroup_closure": 1e-8,
    "collapsed_prolongation": 1e-8,
    "flow_omega_invariance": 1e-12,
    "flow_tau_shift": 1e-9,
    "flow_group_property": 1e-9,
    "omega_chi3_directional": 1e-12,
    "noether_drift": 1e-8,
    "ambient_norm_residual": 1e-12,
    "tangent_norm_identity": 1e-10,
    "oracle_endpoint": 1e-7,
    "collapsed_equation": 1e-7,
    "k_grid_agreement": 1e-3,
    "alpha_constancy": 1e-5,
    "totally_geodesic_vx": 1e-10,
    "totally_geodesic_s2": 1e-8,
}

# reference bracket table, row i column j = [chi_i, chi_j]
REFERENCE_TABLE = (
    ("zero", "-chi6", "-chi4", "+chi3", "zero", "+chi2"),
    ("+chi6", "zero", "-chi5", "zero", "+chi3", "-chi1"),
    ("+chi4", "+chi5", "zero", "-chi1", "-chi2", "zero"),
    ("-chi3", "zero", "+chi1", "zero", "-chi6", "+chi5"),
    ("zero", "-chi3", "+chi2", "+chi6", "zero", "-chi4"),
    ("-chi2", "+chi1", "zero", "-chi5", "+chi4", "zero"),
)

CLOSED_TRIPLES = tuple(symmetries.closed_triples(REFERENCE_TABLE))

TRAJECTORY_SPAN = 0.8  # rad; keeps randomly-slanted geodesics clear of turning points
LONG_RUN_STEP = 2.5e-4  # the widest admissible x-interval divided by 1e4 steps
LONG_RUN_MAX_STEPS = 10_000  # so the long run never leaves [-1.25, 1.25]


class ConfigError(ValueError):
    """A run configuration violates its invariants."""


@dataclass
class RunConfig:
    """Knobs shared by every suite; defaults reproduce the standard counts."""

    seed: int = 0
    samples: int = 1000
    margin: float = chart.DEFAULT_MARGIN
    step: float = 1e-3
    trajectories: int = 50
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.samples < 1:
            raise ConfigError(f"samples must be >= 1, got {self.samples}")
        if not 0.0 < self.margin < HALF_PI:
            raise ConfigError(f"margin must lie in (0, pi/2), got {self.margin}")
        if not geodesics.MIN_STEP <= self.step <= 0.01:
            raise ConfigError(f"step must lie in [{geodesics.MIN_STEP:g}, 0.01], got {self.step}")
        if self.trajectories < 1:
            raise ConfigError(f"trajectories must be >= 1, got {self.trajectories}")
        merged = dict(DEFAULT_TOLERANCES)
        for name, value in self.tolerances.items():
            if name not in DEFAULT_TOLERANCES:
                raise ConfigError(f"unknown tolerance name {name!r}")
            merged[name] = float(value)
        self.tolerances = merged

    def tol(self, name: str) -> float:
        return self.tolerances[name]


@dataclass
class CheckResult:
    name: str
    passed: bool
    max_residual: float
    tolerance: float
    extra: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """JSON-ready form; a non-finite residual becomes null with an error."""
        residual = float(self.max_residual)
        out = {
            "name": self.name,
            "passed": bool(self.passed),
            "max_residual": residual if math.isfinite(residual) else None,
            "tolerance": float(self.tolerance),
        }
        out.update(self.extra)
        if out["max_residual"] is None:
            out.setdefault("error", f"max_residual evaluated to {residual}")
        return out


def _result(cfg: RunConfig, name: str, residual: float, **extra) -> CheckResult:
    tol = cfg.tol(name)
    return CheckResult(name, residual < tol, float(residual), tol, extra)


def _worst(worst: float, residuals) -> float:
    """max(worst, |residuals|) for a float or an array (possibly empty) over samples."""
    return max(worst, float(np.max(np.abs(residuals), initial=0.0)))


def suite_determining(cfg: RunConfig) -> list[CheckResult]:
    """Determining-equation residuals for random 5-parameter combinations."""
    rng = np.random.default_rng(cfg.seed + 101)
    n_points = max(1, cfg.samples // 10)
    worst = 0.0
    for trial in range(20):
        k = rng.uniform(-2.0, 2.0, 5)
        V = symmetries.general_symmetry(k)
        points = chart.domain_columns(n_points, cfg.margin, cfg.seed + 300 + trial)
        for r in symmetries.determining_residuals(V, points):
            worst = _worst(worst, r)
    return [_result(cfg, "determining_equations", worst)]


def suite_variational(cfg: RunConfig) -> list[CheckResult]:
    """Variational-symmetry residual for each generator over random jets."""
    jets = chart.jet_columns(cfg.samples, cfg.margin, cfg.seed + 7)
    worst = 0.0
    for i in range(1, 7):
        worst = _worst(worst, symmetries.variational_residual(symmetries.chi(i), jets))
    return [_result(cfg, "variational_criterion", worst)]


def bracket_table_for(cfg: RunConfig) -> symmetries.BracketTable:
    """The bracket table a configuration identifies: max(10, samples // 20)
    points drawn with seed + 17 inside the configured margin, at the
    bracket_table tolerance.  Raises AmbiguousIdentification."""
    return symmetries.bracket_table(samples=max(10, cfg.samples // 20),
                                    tol=cfg.tol("bracket_table"),
                                    seed=cfg.seed + 17, margin=cfg.margin)


def _bracket_checks(cfg: RunConfig) -> tuple[CheckResult, CheckResult]:
    """The bracket_table and subgroup_closure results of one identification.

    The table must match the reference entry by entry; exactly the four
    reference triples must close under the identified brackets.
    """
    try:
        table = bracket_table_for(cfg)
    except symmetries.AmbiguousIdentification as err:
        return tuple(CheckResult(name, False, math.inf, cfg.tol(name), {"error": str(err)})
                     for name in ("bracket_table", "subgroup_closure"))
    grid = table.identified_grid()
    matches = grid == [list(row) for row in REFERENCE_TABLE]
    worst = max(e.residual for row in table.entries for e in row)
    brackets = _result(cfg, "bracket_table", worst, table=table.to_json_dict(),
                       matches_reference=matches)
    brackets.passed = brackets.passed and matches
    closed = [list(t) for t in symmetries.closed_triples(grid)]
    expected = [list(t) for t in CLOSED_TRIPLES]
    closure = _result(cfg, "subgroup_closure", 0.0 if closed == expected else math.inf,
                      closed_triples=closed, expected_triples=expected)
    return brackets, closure


def suite_bracket_table(cfg: RunConfig) -> list[CheckResult]:
    """Identify all 36 brackets and compare against the reference table."""
    return [_bracket_checks(cfg)[0]]


def suite_subgroups(cfg: RunConfig) -> list[CheckResult]:
    """Exactly the four reference triples close; all other triples fail."""
    return [_bracket_checks(cfg)[1]]


def _onshell_collapsed_jets(cfg: RunConfig, k_value: float, n: int, seed: int):
    """Second-order jets (v = v_x = v_xx = 0) solving the collapsed equation
    for y_xx, as chart.JetColumns.

    The equation is linear in y_xx; draws where its coefficient is small
    (cos x cos y (cos^2x cos^2y - k) near zero) are rejected, as are draws
    near x = 0 and with |y_xx| > 50.  Draws come in blocks of (x, y, y_x)
    rows, the first n accepted in draw order are kept.
    """
    rng = np.random.default_rng(seed)
    lim = HALF_PI - cfg.margin
    blocks = []
    accepted = 0
    while accepted < n:
        x, y, y_x = rng.uniform([-lim, -lim, -2.0], [lim, lim, 2.0], (2 * n, 3)).T
        cx, cy = np.cos(x), np.cos(y)
        coeff = cx * cy * (cx * cx * cy * cy - k_value)
        # |x| >= 0.05: sec x is fine there, but keep clear of the x = 0 line used elsewhere
        keep = np.flatnonzero((np.abs(x) >= 0.05) & (np.abs(coeff) >= 0.05))
        x, y, y_x, coeff = x[keep], y[keep], y_x[keep], coeff[keep]
        y_xx = -geodesics.collapsed_E(x, y, y_x, 0.0, k_value) / coeff
        keep = np.abs(y_xx) <= 50.0
        blocks.append((x[keep], y[keep], y_x[keep], y_xx[keep]))
        accepted += int(keep.sum())
    x, y, y_x, y_xx = (np.concatenate(c)[:n] for c in zip(*blocks))
    return chart.JetColumns(x, y, 0.0, y_x, 0.0, y_xx, 0.0)


def suite_collapsed_prolongation(cfg: RunConfig) -> list[CheckResult]:
    """pr2(chi3) annihilates the collapsed equation on its solution set."""
    n = max(1, cfg.samples // 5)
    chi3 = symmetries.chi(3)
    worst = 0.0
    for idx, k_value in enumerate((0.0, 0.25, 0.5, 0.9)):
        F = geodesics.collapsed_fn(k_value)
        jets = _onshell_collapsed_jets(cfg, k_value, n, cfg.seed + 500 + idx)
        worst = _worst(worst, symmetries.prolong2_apply(chi3, F, jets))
    return [_result(cfg, "collapsed_prolongation", worst)]


def suite_flow(cfg: RunConfig) -> list[CheckResult]:
    """Orbit properties: omega invariance, tau shift, group law, generator."""
    points = chart.domain_columns(cfg.samples, cfg.margin, cfg.seed + 23)
    x, y = points.x, points.y
    lam1, lam2 = np.random.default_rng(cfg.seed + 23).uniform(-1.0, 1.0, (cfg.samples, 2)).T
    X, Y = reduction.global_flow(x, y, lam1)
    worst_omega = _worst(
        0.0, reduction.omega_coordinate(X, Y) - reduction.omega_coordinate(x, y))
    off = np.abs(x) > 1e-6  # both x-based checks skip x near 0, where tau is undefined
    both = off & (np.abs(X) > 1e-6)
    delta = (reduction.tau_coordinate(X[both], Y[both])
             - reduction.tau_coordinate(x[both], y[both]) - lam1[both])
    worst_tau = _worst(0.0, reduction.wrap_mod_pi(delta))
    X2, Y2 = reduction.global_flow(X, Y, lam2)
    X12, Y12 = reduction.global_flow(x, y, lam1 + lam2)
    worst_group = _worst(_worst(0.0, X2 - X12), Y2 - Y12)
    # invariant coordinate is annihilated by the generator's (xi, phi)
    xs, ys = x[off], y[off]
    _, d_omega = jetcalc.directional(
        reduction.omega_coordinate, (xs, ys), (jetcalc.sin(ys), -jetcalc.tan(xs) * jetcalc.cos(ys))
    )
    return [
        _result(cfg, "flow_omega_invariance", worst_omega),
        _result(cfg, "flow_tau_shift", worst_tau),
        _result(cfg, "flow_group_property", worst_group),
        _result(cfg, "omega_chi3_directional", _worst(0.0, d_omega)),
    ]


@dataclass
class TrajectoryBatch:
    """Integrated geodesics shared by the dynamics suites."""

    trajectories: list
    long_run: geodesics.Trajectory
    planar: list  # v_x = 0 initial states (2-sphere slice)


def make_batch(cfg: RunConfig) -> TrajectoryBatch:
    """Deterministic batch: random geodesics over span 0.8, one long run,
    and a handful of v_x = 0 (totally geodesic) runs.

    Initial states start at x = 0 with |y| <= 0.7 and slopes in [-0.5, 0.5],
    which keeps every trajectory clear of turning points and pole margins
    over the span; the random and planar runs are integrated in one
    lockstep batch, and the first failure in draw order is raised.  The
    long run takes min(10*samples, 1e4) fixed steps centred on x = 0, so
    it crosses the wide x-interval [-1.25, 1.25] from samples = 1000 on.
    """
    rng = np.random.default_rng(cfg.seed + 71)
    starts = []
    for _ in range(cfg.trajectories):
        y0 = float(rng.uniform(-0.7, 0.7))
        v0 = float(rng.uniform(0.0, 2.0 * math.pi))
        y_x = float(rng.uniform(-0.5, 0.5))
        v_x = float(rng.uniform(-0.5, 0.5))
        starts.append(chart.jet1(0.0, y0, v0, y_x, v_x))
    for _ in range(max(5, cfg.trajectories // 5)):
        y0 = float(rng.uniform(-0.7, 0.7))
        v0 = float(rng.uniform(0.0, 2.0 * math.pi))
        y_x = float(rng.uniform(-0.5, 0.5))
        starts.append(chart.jet1(0.0, y0, v0, y_x, 0.0))
    runs = geodesics.integrate_batch(starts, TRAJECTORY_SPAN, cfg.step)
    for run in runs:
        if isinstance(run, Exception):
            raise run

    long_steps = min(10 * cfg.samples, LONG_RUN_MAX_STEPS)
    half = 0.5 * long_steps * LONG_RUN_STEP
    j_long = chart.jet1(-half, 0.2, 0.3, 0.15, 0.2)
    long_run = geodesics.integrate(j_long, half, LONG_RUN_STEP)
    return TrajectoryBatch(runs[:cfg.trajectories], long_run, runs[cfg.trajectories:])


def suite_noether(cfg: RunConfig, batch: TrajectoryBatch) -> list[CheckResult]:
    """Charge drift plus the per-sample embedding diagnostics."""
    worst_drift = batch.long_run.noether_drift()
    worst_norm = float(np.max(batch.long_run.ambient_norm_residual))
    worst_tangent = 0.0
    for traj in batch.trajectories:
        worst_drift = max(worst_drift, traj.noether_drift())
        worst_norm = max(worst_norm, float(np.max(traj.ambient_norm_residual)))
        for i in range(0, len(traj), max(1, len(traj) // 40)):
            _, _, speed = geodesics.ambient_state(traj.jet(i))
            worst_tangent = max(
                worst_tangent, abs(speed / traj.lagrangian[i] - 1.0)
            )
    return [
        _result(cfg, "noether_drift", worst_drift,
                long_run_steps=len(batch.long_run) - 1),
        _result(cfg, "ambient_norm_residual", worst_norm),
        _result(cfg, "tangent_norm_identity", worst_tangent),
    ]


def suite_oracle(cfg: RunConfig, batch: TrajectoryBatch) -> list[CheckResult]:
    """Chart-integrated endpoints against exact ambient great circles."""
    worst = 0.0
    for traj in batch.trajectories:
        worst = max(worst, geodesics.endpoint_error_vs_great_circle(traj))
    return [_result(cfg, "oracle_endpoint", worst)]


def _collapsed_along(traj: geodesics.Trajectory, k_value: float):
    """E at every sample of an integrated trajectory, with the curvatures RK4 kept."""
    c = traj.columns
    return geodesics.collapsed_E(c.x, c.y, c.y_x, c.y_xx, k_value)


_GRID_CHUNK = 512  # grid rows per block of grid_search_k; 3.3 MB per temporary at 801 samples


def grid_search_k(traj: geodesics.Trajectory, spacing: float = 1e-4) -> float:
    """Brute-force oracle: the k on a uniform grid minimizing max |E|.

    E is linear in k, so the per-sample values at k = 0 and k = 1 determine
    the whole grid sweep, which runs in blocks of grid rows.  Reads the
    curvatures an integrated trajectory keeps.
    """
    e0 = _collapsed_along(traj, 0.0)
    e1 = _collapsed_along(traj, 1.0) - e0
    grid = np.arange(0.0, 1.0 + 0.5 * spacing, spacing)
    worst = np.concatenate([
        np.max(np.abs(e0 + block[:, None] * e1), axis=1)
        for block in np.split(grid, range(_GRID_CHUNK, grid.size, _GRID_CHUNK))
    ])
    return float(grid[int(np.argmin(worst))])


def suite_reduction(cfg: RunConfig, batch: TrajectoryBatch) -> list[CheckResult]:
    """Collapsed-equation consistency, the k oracle, alpha-constancy, and
    the totally geodesic 2-sphere slice."""
    worst_E = 0.0
    worst_alpha = 0.0
    worst_k_gap = 0.0
    for idx, traj in enumerate(batch.trajectories):
        k = geodesics.infer_k(traj.jet(0))
        worst_E = _worst(worst_E, _collapsed_along(traj, float(k)))
        dev = reduction.reduction_report(traj, k)["alpha_rel_dev"]
        worst_alpha = max(worst_alpha, math.inf if dev is None else dev)
        if idx < 5:  # the oracle sweep is heavy; five trajectories pin the closed form
            worst_k_gap = max(worst_k_gap, abs(grid_search_k(traj) - float(k)))

    worst_vx = 0.0
    worst_s2 = 0.0
    for traj in batch.planar:
        worst_vx = max(worst_vx, float(np.max(np.abs(traj.samples[:, 4]))))
        c = traj.columns
        worst_s2 = _worst(worst_s2, reduction.s2_residual(c.x, c.y, c.y_x, c.y_xx))
    return [
        _result(cfg, "collapsed_equation", worst_E),
        _result(cfg, "k_grid_agreement", worst_k_gap),
        _result(cfg, "alpha_constancy", worst_alpha),
        _result(cfg, "totally_geodesic_vx", worst_vx),
        _result(cfg, "totally_geodesic_s2", worst_s2),
    ]


def run_all(cfg: RunConfig) -> dict:
    """Run every suite and assemble the machine-readable report."""
    checks: list[CheckResult] = []
    checks += suite_determining(cfg)
    checks += suite_variational(cfg)
    checks += _bracket_checks(cfg)
    checks += suite_collapsed_prolongation(cfg)
    checks += suite_flow(cfg)
    batch = make_batch(cfg)
    checks += suite_noether(cfg, batch)
    checks += suite_oracle(cfg, batch)
    checks += suite_reduction(cfg, batch)
    return {
        "config": {
            "seed": cfg.seed,
            "samples": cfg.samples,
            "margin": cfg.margin,
            "step": cfg.step,
            "trajectories": cfg.trajectories,
        },
        "passed": all(c.passed for c in checks),
        "checks": [c.as_dict() for c in checks],
    }
