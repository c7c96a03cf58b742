"""Named verification suites behind `glome verify` and the acceptance tests.

Each check maps onto one invariant of the symmetry/geodesic/reduction
modules; there are no unnamed checks.  Sample counts derive from a single
`samples` knob whose default (1000) reproduces the standard counts:
1000 jets/triples for the pointwise criteria, 100 points per random
combination for the determining equations, 50 points per bracket entry,
200 on-shell jets per k for the second-prolongation check, and 50
trajectories of span 0.8 at the configured step for the dynamics suites.

All suites are deterministic given the configuration.  A symmetry or
flow check evaluates its sample points (chart.JetColumns) in one
array-valued pass, whose rows stack the draws it makes apart: the 20
determining trials, the four k of the collapsed prolongation, the orbits
by lambda1 and lambda1 + lambda2 from one point (the group law then takes
one more orbit, from their images).  The points are drawn by the same
random calls as per-point sampling, so every residual equals its
per-point value bitwise.  A trajectory check runs once per trajectory,
over that trajectory's rows at once (Trajectory.columns) where it is a
pointwise formula; tangent_norm_identity is a loop over every
(len // 40)-th row of each trajectory.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

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

# On-shell draws keep |x| >= this clearance from the x = 0 line used elsewhere.
# The fixed sampling margin is at most pi/2 - 2 * _X_CLEARANCE, so at least half of
# their x-interval [-(pi/2 - margin), pi/2 - margin] is clear of the line and the
# sampler ends (a margin past about 1.52 rad would leave no draw clear).
_X_CLEARANCE = 0.05


# Upper bounds on a run's size, past which a request is a usage error rather
# than a numpy memory error.  The suites allocate columns in proportion to
# samples; make_batch holds trajectories x round(TRAJECTORY_SPAN / step)
# rows (10^4 trajectories at the default step).  Peak RSS measured at the
# bounds is in README.md; the bounds do not cap the run time.
MAX_SAMPLES = 10**6
MAX_TRAJECTORY_ROWS = 8 * 10**6


class ConfigError(ValueError):
    """A run configuration violates its invariants."""


@dataclass(frozen=True)
class RunConfig:
    """Knobs shared by every suite; defaults reproduce the standard counts.

    margin is not a knob: every run samples the chart chart.DEFAULT_MARGIN
    (0.1 rad) clear of cos x = 0 and cos y = 0, and the field records it in
    the report's config.
    """

    seed: int = 0
    samples: int = 1000
    margin: float = field(default=chart.DEFAULT_MARGIN, init=False)
    step: float = 1e-3
    trajectories: int = 50

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 1 <= self.samples <= MAX_SAMPLES:
            raise ConfigError(f"samples must lie in [1, {MAX_SAMPLES}], got {self.samples}")
        if not geodesics.MIN_STEP <= self.step <= geodesics.MAX_STEP:
            raise ConfigError(f"step must lie in [{geodesics.MIN_STEP:g}, {geodesics.MAX_STEP:g}],"
                              f" got {self.step}")
        if self.trajectories < 1:
            raise ConfigError(f"trajectories must be >= 1, got {self.trajectories}")
        steps = round(TRAJECTORY_SPAN / self.step)
        if self.trajectories * steps > MAX_TRAJECTORY_ROWS:
            raise ConfigError(f"trajectories x steps ({self.trajectories} x {steps}) must not"
                              f" exceed {MAX_TRAJECTORY_ROWS}")


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


def _result(name: str, residual: float, **extra) -> CheckResult:
    tol = DEFAULT_TOLERANCES[name]
    return CheckResult(name, residual < tol, float(residual), tol, extra)


def _worse(worst: float, residual: float) -> float:
    """max(worst, residual), except that a nan in either wins, so a check
    whose residual is nan anywhere fails (Python's max drops a nan second
    argument)."""
    return residual if residual > worst or residual != residual else worst


def _worst(worst: float, residuals) -> float:
    """_worse(worst, max |residuals|) for a float or an array (possibly empty) over samples."""
    return _worse(worst, float(np.max(np.abs(residuals), initial=0.0)))


def suite_determining(cfg: RunConfig) -> list[CheckResult]:
    """Determining-equation residuals for 20 random 5-parameter combinations.

    Trial t draws its weights as row t of one (20, 5) draw and its points
    with seed + 300 + t; the trials are stacked as the rows of (20, n)
    columns and evaluated in one pass with column weights.
    """
    rng = np.random.default_rng(cfg.seed + 101)
    n_points = max(1, cfg.samples // 10)
    weights = rng.uniform(-2.0, 2.0, (20, 5))
    trials = [chart.domain_columns(n_points, cfg.margin, cfg.seed + 300 + t)[:3] for t in range(20)]
    points = chart.JetColumns(*map(np.stack, zip(*trials)))
    V = symmetries.general_symmetry(weights.T[:, :, None])
    worst = 0.0
    for r in symmetries.determining_residuals(V, points):
        worst = _worst(worst, r)
    return [_result("determining_equations", worst)]


def suite_variational(cfg: RunConfig) -> list[CheckResult]:
    """Variational-symmetry residual for each generator over random jets,
    all six generators in one stacked pass."""
    jets = chart.jet_columns(cfg.samples, cfg.margin, cfg.seed + 7)
    return [_result("variational_criterion", _worst(0.0, symmetries.variational_residuals(jets)))]


def bracket_table_for(cfg: RunConfig) -> dict:
    """The bracket table a configuration identifies: max(10, samples // 20)
    points drawn with seed + 17 inside the sampling margin, at the
    bracket_table tolerance.  Raises AmbiguousIdentification."""
    return symmetries.bracket_table(samples=max(10, cfg.samples // 20),
                                    tol=DEFAULT_TOLERANCES["bracket_table"],
                                    seed=cfg.seed + 17)


def _bracket_checks(cfg: RunConfig) -> tuple[CheckResult, CheckResult]:
    """The bracket_table and subgroup_closure results of one identification.

    The table must match the reference entry by entry; exactly the four
    reference triples must close under the identified brackets.
    """
    try:
        table = bracket_table_for(cfg)
    except symmetries.AmbiguousIdentification as err:
        return tuple(_result(name, math.inf, error=str(err))
                     for name in ("bracket_table", "subgroup_closure"))
    grid = [[e["id"] for e in row] for row in table["entries"]]
    matches = grid == [list(row) for row in REFERENCE_TABLE]
    worst = max(e["residual"] for row in table["entries"] for e in row)
    brackets = _result("bracket_table", worst, table=table, matches_reference=matches)
    brackets.passed = brackets.passed and matches
    closed = [list(t) for t in symmetries.closed_triples(grid)]
    expected = [list(t) for t in CLOSED_TRIPLES]
    closure = _result("subgroup_closure", 0.0 if closed == expected else math.inf,
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
        keep = np.flatnonzero((np.abs(x) >= _X_CLEARANCE) & (np.abs(coeff) >= 0.05))
        x, y, y_x, coeff = x[keep], y[keep], y_x[keep], coeff[keep]
        y_xx = -geodesics.collapsed_E(x, y, y_x, 0.0, k_value) / coeff
        keep = np.abs(y_xx) <= 50.0
        blocks.append((x[keep], y[keep], y_x[keep], y_xx[keep]))
        accepted += int(keep.sum())
    x, y, y_x, y_xx = (np.concatenate(c)[:n] for c in zip(*blocks))
    return chart.JetColumns(x, y, 0.0, y_x, 0.0, y_xx, 0.0)


_COLLAPSED_KS = (0.0, 0.25, 0.5, 0.9)  # the k of suite_collapsed_prolongation


def suite_collapsed_prolongation(cfg: RunConfig) -> list[CheckResult]:
    """pr2(chi3) annihilates the collapsed equation on its solution set.

    The on-shell jets of the k in _COLLAPSED_KS are drawn one k at a time,
    k index i with seed + 500 + i, then stacked as the rows of (4, n)
    columns and evaluated in one pass, with k a (4, 1) column.
    """
    n = max(1, cfg.samples // 5)
    draws = [_onshell_collapsed_jets(cfg, k_value, n, cfg.seed + 500 + idx)
             for idx, k_value in enumerate(_COLLAPSED_KS)]
    x, y, y_x, y_xx = (np.stack([getattr(j, slot) for j in draws])
                       for slot in ("x", "y", "y_x", "y_xx"))
    jets = chart.JetColumns(x, y, 0.0, y_x, 0.0, y_xx, 0.0)
    F = geodesics.collapsed_fn(np.array(_COLLAPSED_KS)[:, None])
    return [_result("collapsed_prolongation",
                    _worst(0.0, symmetries.prolong2_apply(symmetries.chi(3), F, jets)))]


def suite_flow(cfg: RunConfig) -> list[CheckResult]:
    """Orbit properties: omega invariance, tau shift, group law, generator."""
    points = chart.domain_columns(cfg.samples, cfg.margin, cfg.seed + 23)
    x, y = points.x, points.y
    lam1, lam2 = np.random.default_rng(cfg.seed + 23).uniform(-1.0, 1.0, (cfg.samples, 2)).T
    # the orbits from (x, y) by lambda1 and by lambda1 + lambda2, in one call
    (X, X12), (Y, Y12) = reduction.global_flow(x, y, np.stack((lam1, lam1 + lam2)))
    worst_omega = _worst(
        0.0, reduction.omega_coordinate(X, Y) - reduction.omega_coordinate(x, y))
    both = reduction.tau_defined(x) & reduction.tau_defined(X)  # tau at the point and its image
    delta = (reduction.tau_coordinate(X[both], Y[both])
             - reduction.tau_coordinate(x[both], y[both]) - lam1[both])
    worst_tau = _worst(0.0, reduction.wrap_mod_pi(delta))
    X2, Y2 = reduction.global_flow(X, Y, lam2)
    worst_group = _worst(_worst(0.0, X2 - X12), Y2 - Y12)
    # invariant coordinate is annihilated by the generator's (xi, phi), regular at x = 0 too
    _, d_omega = jetcalc.directional(
        reduction.omega_coordinate, (x, y), symmetries.chi(3)(x, y, 0.0)[:2])
    return [
        _result("flow_omega_invariance", worst_omega),
        _result("flow_tau_shift", worst_tau),
        _result("flow_group_property", worst_group),
        _result("omega_chi3_directional", _worst(0.0, d_omega)),
    ]


@dataclass
class TrajectoryBatch:
    """Integrated geodesics shared by the dynamics suites."""

    trajectories: list
    long_run: geodesics.Trajectory
    planar: list  # v_x = 0 initial states (2-sphere slice)


def make_batch(cfg: RunConfig) -> TrajectoryBatch:
    """Deterministic batch: random geodesics over span 0.8, a handful of
    v_x = 0 (totally geodesic) runs, and one long run.

    Initial states start at x = 0 with |y| <= 0.7 and slopes in [-0.5, 0.5],
    which keeps every trajectory clear of turning points and pole margins
    over the span.  The long run takes min(10*samples, 1e4) fixed steps
    centred on x = 0, so it crosses the wide x-interval [-1.25, 1.25] from
    samples = 1000 on.  All runs are integrated in one lockstep batch, the
    long run last, and the first failure in draw order is raised.
    """
    rng = np.random.default_rng(cfg.seed + 71)
    spans = cfg.trajectories + max(5, cfg.trajectories // 5)
    starts = []
    for i in range(spans):
        y0 = float(rng.uniform(-0.7, 0.7))
        v0 = float(rng.uniform(0.0, 2.0 * math.pi))
        y_x = float(rng.uniform(-0.5, 0.5))
        v_x = float(rng.uniform(-0.5, 0.5)) if i < cfg.trajectories else 0.0
        starts.append(chart.jet1(0.0, y0, v0, y_x, v_x))

    long_steps = min(10 * cfg.samples, LONG_RUN_MAX_STEPS)
    half = 0.5 * long_steps * LONG_RUN_STEP
    starts.append(chart.jet1(-half, 0.2, 0.3, 0.15, 0.2))
    runs = geodesics.integrate_batch(starts, [TRAJECTORY_SPAN] * spans + [half],
                                     [cfg.step] * spans + [LONG_RUN_STEP])
    for run in runs:
        if isinstance(run, Exception):
            raise run
    return TrajectoryBatch(runs[:cfg.trajectories], runs[-1], runs[cfg.trajectories:-1])


def suite_noether(batch: TrajectoryBatch) -> list[CheckResult]:
    """Charge drift plus the per-sample embedding diagnostics."""
    worst_drift = batch.long_run.noether_drift()
    worst_norm = float(np.max(batch.long_run.ambient_norm_residual))
    worst_tangent = 0.0
    for traj in batch.trajectories:
        worst_drift = _worse(worst_drift, traj.noether_drift())
        worst_norm = _worse(worst_norm, float(np.max(traj.ambient_norm_residual)))
        for i in range(0, len(traj), max(1, len(traj) // 40)):
            _, _, speed = geodesics.ambient_state(traj.jet(i))
            worst_tangent = _worse(worst_tangent, abs(speed / traj.lagrangian[i] - 1.0))
    return [
        _result("noether_drift", worst_drift, long_run_steps=len(batch.long_run) - 1),
        _result("ambient_norm_residual", worst_norm),
        _result("tangent_norm_identity", worst_tangent),
    ]


def suite_oracle(batch: TrajectoryBatch) -> list[CheckResult]:
    """Chart-integrated endpoints against exact ambient great circles."""
    worst = 0.0
    for traj in batch.trajectories:
        worst = _worse(worst, geodesics.endpoint_error_vs_great_circle(traj))
    return [_result("oracle_endpoint", worst)]


def _collapsed_along(traj: geodesics.Trajectory, k_value: float):
    """E at every sample of an integrated trajectory, with the curvatures RK4 kept."""
    c = traj.columns
    return geodesics.collapsed_E(c.x, c.y, c.y_x, c.y_xx, k_value)


_GRID_SPACING = 1e-4  # of the k grid in grid_search_k
_GRID_BLOCK = 1 << 16  # elements per block of grid_search_k; 0.5 MB of buffer
_GRID_STRIDE = 64  # grid_search_k's coarse pass reads every 64th grid row


def _max_abs_E(ks: np.ndarray, e0: np.ndarray, e1: np.ndarray) -> np.ndarray:
    """max |E| over the samples at each k of ks, with E = k * e1 + e0
    rounded as written, in blocks of _GRID_BLOCK elements through one buffer."""
    rows = max(1, _GRID_BLOCK // e0.size)
    buffer = np.empty((min(rows, ks.size), e0.size))
    worst = np.empty(ks.size)
    for lo in range(0, ks.size, rows):
        block = ks[lo:lo + rows]
        t = buffer[:block.size]
        np.multiply(block[:, None], e1, out=t)
        t += e0  # E at each grid k and sample; max |E| is max(max E, -min E)
        np.maximum(t.max(axis=1), -t.min(axis=1), out=worst[lo:lo + rows])
    return worst


def grid_search_k(traj: geodesics.Trajectory) -> float:
    """Grid-search oracle: the k on a uniform grid in [0, 1] minimizing max |E|,
    the first such grid point where several tie.  Reads the curvatures an
    integrated trajectory keeps; nan when E is not finite at k = 0 or 1.

    E is linear in k, so the per-sample values e0 at k = 0 and e1 = E(1) - e0
    determine the whole grid.  Each sample's computed E = fl(fl(k e1) + e0)
    is monotone in k, since each rounding is, so its |E| falls and then
    rises along the grid, and so does their maximum W: for grid rows
    i < a < m, W(a) <= max(W(i), W(m)), rounding included.  A coarse pass
    reads W at every _GRID_STRIDE-th grid row, and a window of
    _GRID_STRIDE rows either side of its argmin is read in full.  The
    window is accepted when each of its edges that is not a grid end
    exceeds the window's minimum: every row beyond that edge then lies at
    or above the edge, so the window's first argmin is the whole grid's,
    bitwise.  Otherwise the whole grid is read, as a plain sweep would (a
    constant W, as for e1 = 0, takes that path).
    """
    e0 = _collapsed_along(traj, 0.0)
    e1 = _collapsed_along(traj, 1.0) - e0
    if not (np.isfinite(e0).all() and np.isfinite(e1).all()):
        return math.nan
    grid = np.arange(0.0, 1.0 + 0.5 * _GRID_SPACING, _GRID_SPACING)
    centre = _GRID_STRIDE * int(np.argmin(_max_abs_E(grid[::_GRID_STRIDE], e0, e1)))
    lo, hi = max(0, centre - _GRID_STRIDE), min(grid.size, centre + _GRID_STRIDE + 1)
    worst = _max_abs_E(grid[lo:hi], e0, e1)
    least = int(np.argmin(worst))
    if ((lo > 0 and worst[0] <= worst[least])
            or (hi < grid.size and worst[-1] <= worst[least])):
        lo, worst = 0, _max_abs_E(grid, e0, e1)
        least = int(np.argmin(worst))
    return float(grid[lo + least])


def suite_reduction(batch: TrajectoryBatch) -> list[CheckResult]:
    """Collapsed-equation consistency, the k oracle, alpha-constancy, and
    the totally geodesic 2-sphere slice."""
    worst_E = 0.0
    worst_alpha = 0.0
    worst_k_gap = 0.0
    for idx, traj in enumerate(batch.trajectories):
        report = reduction.reduction_report(traj)
        k = report["k"]
        worst_E = _worst(worst_E, _collapsed_along(traj, k))
        dev = report["alpha_rel_dev"]
        worst_alpha = _worse(worst_alpha, math.inf if dev is None else dev)
        if idx < 5:  # five trajectories pin the closed form; more would change the pinned reports
            worst_k_gap = _worse(worst_k_gap, abs(grid_search_k(traj) - k))

    worst_vx = 0.0
    worst_s2 = 0.0
    for traj in batch.planar:
        worst_vx = _worst(worst_vx, traj.samples[:, 4])
        c = traj.columns
        worst_s2 = _worst(worst_s2, reduction.s2_residual(c.x, c.y, c.y_x, c.y_xx))
    return [
        _result("collapsed_equation", worst_E),
        _result("k_grid_agreement", worst_k_gap),
        _result("alpha_constancy", worst_alpha),
        _result("totally_geodesic_vx", worst_vx),
        _result("totally_geodesic_s2", worst_s2),
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
    checks += suite_noether(batch)
    checks += suite_oracle(batch)
    checks += suite_reduction(batch)
    return {
        "config": asdict(cfg),
        "passed": all(c.passed for c in checks),
        "checks": [c.as_dict() for c in checks],
    }
