"""Geodesic dynamics on the 3-sphere chart.

The Euler-Lagrange system of the arclength integrand is assembled
numerically at each state: all partials of the integrand in the jet
variables come from dual numbers, the total x-derivatives are expanded,
and the resulting 2x2 linear system is solved for (y_xx, v_xx).  On top
of that sit the conserved charge, the collapsed second-order equation
with its constant k, fixed-step RK4 integration with per-sample
diagnostics, and the ambient great-circle oracle used as ground truth.
"""

from __future__ import annotations

import contextlib
import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import chart, jetcalc
from .chart import Jet1
from .jetcalc import directional, power

POLE_MARGIN = 0.05  # rad; integration aborts when |x| or |y| crosses pi/2 minus this
MIN_STEP = 1e-5  # rad; caps one trajectory at about 3e5 rows (17 MB) across the chart
MAX_STEP = 0.01  # rad; the widest RK4 step in x
DET_FLOOR = 1e-12  # coefficient-matrix determinants below this are singular

CSV_HEADER = ["x", "y", "v", "y_x", "v_x", "noether_c", "lagrangian", "ambient_norm_residual"]
# Relative bound on a stored diagnostic column against its value recomputed
# from the state on load: to_csv round-trips exactly, so this only admits a
# few ulps of libm difference in a CSV written on another machine.
CSV_DIAGNOSTIC_RTOL = 1e-12
CSV_ERROR_WIDTH = 200  # characters of a CSV header or cell that an error message quotes


class SingularSystem(RuntimeError):
    """The 2x2 Euler-Lagrange coefficient matrix is numerically singular."""

    def __init__(self, det: float, x: float | None = None, trajectory=None):
        self.det = det
        self.x = x
        self.trajectory = trajectory
        loc = f" near x = {x:.6g}" if x is not None else ""
        super().__init__(f"Euler-Lagrange system singular (det = {det:.3g}){loc}")


class DomainExit(RuntimeError):
    """Integration stopped at the chart pole margin; carries the partial trajectory.

    ``cause`` names why: by default the trajectory breached the margin; a
    jet that starts outside it, or with slopes that overflow the
    integrand, never starts and carries no trajectory.
    """

    def __init__(self, x: float, detail: str = "", trajectory=None,
                 cause: str = "trajectory breached the pole margin near"):
        self.x = x
        self.trajectory = trajectory
        msg = f"{cause} x = {x:.6g}"
        if detail:
            msg = f"{msg} ({detail})"
        super().__init__(msg)


class OutOfRange(ValueError):
    """A collapsed-equation constant fell outside [0, 1]."""


class TrajectoryCSVError(ValueError):
    """A trajectory CSV is malformed or disagrees with its own state columns."""


@dataclass(frozen=True)
class KConstant:
    """Constant of the collapsed second-order equation; must lie in [0, 1]."""

    k: float

    def __post_init__(self):
        if not (math.isfinite(self.k) and 0.0 <= self.k <= 1.0):
            raise OutOfRange(f"k must lie in [0, 1], got {self.k}")

    def __float__(self) -> float:
        return float(self.k)


# Inner seeds of the one-pass core: row i holds argument i's component of
# the directions E_Y, E_YX, E_VX (the unit vectors of y, y_x and v_x).
_INNER = np.eye(4)[:, 1:]


def _curvatures(x, y, y_x, v_x):
    """(y_xx, v_xx, det) of the Euler-Lagrange system at one state or many.

    The arguments are floats, or equal-shape arrays with one state per
    element (x may stay a float shared by all of them).  The equations
    L_y - D_x(L_{y_x}) = 0 and L_v - D_x(L_{v_x}) = 0 are linear in the
    curvatures once the total derivatives are expanded.  The integrand
    :func:`chart.arc_speed` takes the four slots x, y, y_x, v_x: v never
    enters, so L_v vanishes and the charge is conserved.  One nested dual
    evaluation of it, seeded with the inner directions
    (E_Y, E_YX, E_VX) and the outer directions (the known part of D_x,
    E_YX, E_VX) along two leading array axes, yields L_y and all six mixed
    second partials; Cramer's rule then runs element by element.  Each
    element repeats the floating-point operations of seven separate
    scalar passes exactly.  The caller checks |det| against DET_FLOOR
    (below it the curvatures are meaningless) and silences numpy's
    floating-point warnings for such states.
    """
    shape = np.shape(y)
    outer = np.zeros((4, 3, 1) + shape)  # argument, outer direction, (inner), batch
    outer[0, 0] = 1.0
    outer[1, 0] = y_x
    outer[2, 1] = 1.0
    outer[3, 2] = 1.0
    inner = _INNER.reshape((4, 3) + (1,) * len(shape))
    partials, mixed = directional(lambda *a: directional(chart.arc_speed, a, inner)[1],
                                  (x, y, y_x, v_x), outer)
    L_y = partials[0]
    known_y, m11, m12 = mixed[:, 1]
    known_v, m21, m22 = mixed[:, 2]
    b1 = L_y - known_y
    b2 = 0.0 - known_v  # L_v vanishes identically
    det = m11 * m22 - m12 * m21
    y_xx = (b1 * m22 - b2 * m12) / det
    v_xx = (m11 * b2 - m21 * b1) / det
    return y_xx, v_xx, det


def el_rhs(j: Jet1) -> tuple[float, float]:
    """Solve both Euler-Lagrange equations for (y_xx, v_xx) at a state.

    Raises SingularSystem when the determinant of the 2x2 system drops
    below DET_FLOOR (chart poles).
    """
    with np.errstate(all="ignore"):
        y_xx, v_xx, det = _curvatures(j.x, j.y, j.y_x, j.v_x)
    if abs(det) < DET_FLOOR:
        raise SingularSystem(float(det), x=j.x)
    return float(y_xx), float(v_xx)


def noether_charge(j: Jet1 | chart.JetColumns):
    """The conserved charge dL/dv_x = cos^2x cos^2y v_x / L (an array over JetColumns)."""
    cx = jetcalc.cos(j.x)
    cy = jetcalc.cos(j.y)
    return cx * cx * cy * cy * j.v_x / chart.lagrangian(j)


def collapsed_E(x, y, y_x, y_xx, k):
    """Left side of the collapsed equation E = 0; dual-capable in the jet slots."""
    k_value = float(k)
    cx, sx = jetcalc.cos(x), jetcalc.sin(x)
    cy, sy = jetcalc.cos(y), jetcalc.sin(y)
    ccx = cx * cx
    ccy = cy * cy
    return (
        y_x * sx * cy * (k_value - 2.0 * ccx * ccy)
        + y_xx * cx * cy * (ccx * ccy - k_value)
        + k_value * jetcalc.sec(x) * sy
        + k_value * y_x * y_x * cx * sy
        - power(y_x, 3) * ccx * ccx * sx * cy * ccy
    )


def collapsed_fn(k):
    """The collapsed equation as a 7-slot jet function (for prolongations)."""
    kv = float(k)

    def F(x, y, v, y_x, v_x, y_xx, v_xx):
        return collapsed_E(x, y, y_x, y_xx, kv)

    return F


def infer_k(j: Jet1) -> KConstant:
    """The collapsed-equation constant for the geodesic through a state.

    Eliminating v_x from the second Euler-Lagrange equation via the
    conserved charge c gives k = c^2; the grid-search oracle in the test
    suite pins this closed form.  KConstant raises OutOfRange if the value
    escapes [0, 1] (it cannot for a state in the open chart, up to rounding).
    """
    c = noether_charge(j)
    return KConstant(c * c)


def _clipped(text: str) -> str:
    """text cut to CSV_ERROR_WIDTH characters, so an error stays one short line."""
    if len(text) <= CSV_ERROR_WIDTH:
        return text
    return f"{text[:CSV_ERROR_WIDTH]}... ({len(text)} characters)"


def _open_csv(path_or_file, mode: str):
    """Context manager for a CSV: a path is opened (and closed on exit), an
    open file object is used as it is and left open."""
    if isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__"):
        return open(path_or_file, mode, newline="")
    return contextlib.nullcontext(path_or_file)


@dataclass
class Trajectory:
    """Ordered samples of a geodesic plus per-sample diagnostics.

    The diagnostics (charge, integrand value, ambient norm residual) are
    computed from the state columns at construction, never integrated
    separately or taken from a file.  x is strictly monotone along the
    samples.  ``curvature`` holds (y_xx, v_xx) at every sample as RK4
    evaluated it; it is None on partial trajectories and on trajectories
    read from CSV.
    """

    samples: np.ndarray  # (n, 5): columns x, y, v, y_x, v_x
    curvature: np.ndarray | None = None  # (n, 2): columns y_xx, v_xx
    noether: np.ndarray = field(init=False)
    lagrangian: np.ndarray = field(init=False)
    ambient_norm_residual: np.ndarray = field(init=False)

    def __post_init__(self):
        def reject(bad, why: str) -> None:
            if bad.any():
                row = int(np.argmax(bad))
                raise chart.ChartError(f"trajectory row {row} {self.samples[row].tolist()} {why}")

        reject(~np.isfinite(self.samples).all(axis=1)
               | (np.abs(self.samples[:, :2]) >= chart.HALF_PI).any(axis=1),
               "is non-finite or off the open chart")
        c = self.columns
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            self.noether = noether_charge(c)
            self.lagrangian = chart.lagrangian(c)
        reject(~np.isfinite(self.lagrangian), "has slopes so large that the integrand overflows")
        g = chart.ambient_coords(c.x, c.y, c.v)
        norm = jetcalc.sqrt(power(g[0], 2) + power(g[1], 2) + power(g[2], 2) + power(g[3], 2))
        self.ambient_norm_residual = abs(norm - 1.0)

    def __len__(self) -> int:
        return self.samples.shape[0]

    @property
    def x(self) -> np.ndarray:
        return self.samples[:, 0]

    @property
    def columns(self) -> chart.JetColumns:
        """The samples as one column per jet slot; y_xx and v_xx are the kept
        curvatures, None when there are none."""
        curvature = (None, None) if self.curvature is None else self.curvature.T
        return chart.JetColumns(*self.samples.T, *curvature)

    def jet(self, i: int) -> Jet1:
        x, y, v, y_x, v_x = (float(c) for c in self.samples[i])
        return chart.jet1(x, y, v, y_x, v_x)

    def noether_drift(self) -> float:
        return float(np.max(np.abs(self.noether - self.noether[0])))

    def to_csv(self, path_or_file) -> None:
        """Write the CSV form (17 significant digits per field)."""
        with _open_csv(path_or_file, "w") as handle:
            writer = csv.writer(handle)
            writer.writerow(CSV_HEADER)
            cols = np.column_stack(
                [self.samples, self.noether, self.lagrangian, self.ambient_norm_residual]
            )
            for row in cols:
                writer.writerow([f"{val:.17g}" for val in row])

    @classmethod
    def from_csv(cls, path_or_file) -> "Trajectory":
        with _open_csv(path_or_file, "r") as handle:
            reader = csv.reader(handle)
            try:  # a bad number, ragged rows, undecodable bytes or an over-long field
                header = next(reader, None)
                if header == CSV_HEADER:
                    data = np.array([[float(cell) for cell in row] for row in reader if row])
            except (ValueError, csv.Error) as err:
                raise TrajectoryCSVError(f"malformed trajectory CSV: {_clipped(str(err))}") from None
        if header is None:
            raise TrajectoryCSVError("empty trajectory CSV")
        if header != CSV_HEADER:
            raise TrajectoryCSVError(f"unexpected trajectory CSV header: {_clipped(repr(header))}")
        if not len(data):
            raise TrajectoryCSVError("trajectory CSV carries no samples")
        if data.shape[1] != 8:
            raise TrajectoryCSVError(f"expected 8 columns, got {data.shape[1]}")
        bad = np.flatnonzero(~np.all(np.isfinite(data), axis=1))
        if bad.size:
            raise TrajectoryCSVError(f"trajectory CSV row {bad[0] + 1} has a non-finite cell")
        xs = data[:, 0]
        if len(xs) > 1 and not (np.all(np.diff(xs) > 0) or np.all(np.diff(xs) < 0)):
            raise TrajectoryCSVError("trajectory x column must be strictly monotone")
        traj = cls(data[:, :5].copy())
        fresh = np.column_stack([traj.noether, traj.lagrangian, traj.ambient_norm_residual])
        off = np.abs(data[:, 5:] - fresh) > CSV_DIAGNOSTIC_RTOL * np.maximum(1.0, np.abs(fresh))
        bad = np.flatnonzero(np.any(off, axis=1))
        if bad.size:
            row = bad[0]
            col = 5 + int(np.flatnonzero(off[row])[0])
            raise TrajectoryCSVError(
                f"trajectory CSV row {row + 1}: {CSV_HEADER[col]} = {float(data[row, col])!r}"
                f" differs from {float(fresh[row, col - 5])!r} recomputed from the state"
            )
        return traj


def _x_of(x, c: int) -> float:
    """Column c's abscissa: x holds one per column, or is a float for a lone column."""
    return float(x[c]) if np.ndim(x) else float(x)


def _stage(x, u: np.ndarray, failed: dict) -> np.ndarray:
    """RK4 slopes (y_x, v_x, y_xx, v_xx) at abscissae x for the states u (4, m).

    x holds one abscissa per column, or is a float for a lone column.  One
    ``failed`` record spans the four stages of a step.  A column whose
    state leaves the chart, raises DomainError or meets a singular system,
    in that order of precedence, is recorded there (its first failure in
    the step only: the ChartError, the DomainError or the determinant) and
    gets zero slopes, so the later stages of the step evaluate it at its
    step-start state.
    """
    lim = chart.HALF_PI
    on_chart = np.isfinite(u).all(axis=0) & (np.abs(u[0]) < lim) & (abs(x) < lim)
    if not on_chart.all():
        for c in np.flatnonzero(~on_chart).tolist():
            if c not in failed:
                try:
                    chart.jet1(_x_of(x, c), *u[:, c].tolist())  # raises with the chart's message
                except chart.ChartError as err:
                    failed[c] = err
    args = (u[0], u[2], u[3])
    if u.shape[1] == 1:
        args = tuple(a.item() for a in args)  # a lone state runs faster on floats
    k = np.empty_like(u)
    k[0], k[1] = u[2], u[3]
    try:
        k[2], k[3], det = _curvatures(x, *args)
    except jetcalc.DomainError:
        # isolate the offending columns; each one alone repeats its own arithmetic
        det = np.ones(u.shape[1])
        for c in range(u.shape[1]):
            one = slice(c, c + 1)
            try:
                k[2, one], k[3, one], det[one] = _curvatures(_x_of(x, c), u[0, one], u[2, one],
                                                             u[3, one])
            except jetcalc.DomainError as err:
                failed.setdefault(c, err)
    singular = np.abs(det) < DET_FLOOR
    if singular.any():
        for c in np.flatnonzero(singular).tolist():
            failed.setdefault(c, float(np.ravel(det)[c]))
    if failed:
        k[:, list(failed)] = 0.0
    return k


def _per_jet(value, count: int, name: str) -> list[float]:
    """A float repeated for every jet, or a sequence of one value per jet."""
    if np.ndim(value) == 0:
        return [float(value)] * count
    if len(value) != count:
        raise ValueError(f"integrate_batch: {name} holds {len(value)} values for {count} jets")
    return [float(v) for v in value]


def _grid(x0: float, x_end: float, step: float) -> tuple[int, float, int]:
    """(n, h, last) of one jet: its step count, its realized step and the last
    step whose x can lie inside the pole margin (later rows are never written)."""
    span = x_end - x0
    if abs(span) > 1e300:  # the margin stops the run long before; keeps span / step finite
        span = math.copysign(1e300, span)
    n = 0 if span == 0.0 else max(1, round(abs(span) / abs(step)))
    if n and abs(span) / n > MAX_STEP:
        n += 1
    h = span / max(n, 1)
    last = n
    if n:
        lim = chart.HALF_PI - POLE_MARGIN
        ahead = lim - x0 if h > 0 else lim + x0
        last = min(n, max(0, math.floor(min(ahead / abs(h), n)) + 1))  # a subnormal h overflows
    return n, h, last


def _stopped(failed: dict, x) -> dict:
    """The exception that stops each failed column, at its step-start abscissa."""
    return {c: SingularSystem(err, x=_x_of(x, c)) if isinstance(err, float)
            else DomainExit(_x_of(x, c), str(err)) for c, err in failed.items()}


def integrate_batch(jets, x_end, step=1e-3) -> list:
    """Classic fixed-step RK4 in x for many states (y, v, y_x, v_x) in lockstep.

    Each jet starts at its own x; x_end and step are floats shared by all
    jets or sequences with one value per jet.  Each element repeats the
    arithmetic of a lone run, so the result for a jet does not depend on
    its batch.  A jet's step count is chosen so its grid lands exactly on
    its x_end (the realized step never exceeds the requested magnitude,
    which must lie in [MIN_STEP, MAX_STEP]).  All jets' rows share one
    buffer, allocated for each jet only up to its pole margin, so a far
    x_end costs no memory it cannot use.  Each step's first stage is the
    curvature at its sample, so a trajectory keeps it.  The four stages
    of a step share one failure record, and the jets the step stops leave
    the batch together at its end; a jet at its final sample rides that
    step too.

    Returns one entry per jet: its Trajectory, or the exception that
    stopped it -- DomainExit when the jet starts outside the 0.05 rad pole
    margin or with slopes that overflow the integrand, breaches the margin
    or has a stage leave the chart; SingularSystem when the
    Euler-Lagrange system degenerates.  Both carry the partial trajectory
    integrated so far (None when the jet never started).  A stopped jet
    freezes; the others continue.  At step i the first of these that
    applies wins, and a partial trajectory holds rows 0..i:

    1. a stage-1 failure raises its exception at x_i;
    2. a jet at its final sample is a complete Trajectory, with curvature;
    3. a stage 2-4 failure raises its exception at x_i;
    4. a margin breach or a non-finite state raises DomainExit at x_{i+1}.
    """
    for s in np.ravel(step).tolist():
        if not MIN_STEP <= abs(s) <= MAX_STEP:
            raise ValueError(f"|step| must lie in [{MIN_STEP:g}, {MAX_STEP:g}], got {s}")
    jets = list(jets)
    grids = [_grid(j.x, e, s) for j, e, s in zip(jets, _per_jet(x_end, len(jets), "x_end"),
                                                 _per_jet(step, len(jets), "step"))]
    if not jets:
        return []
    n, h, last = (np.array(col) for col in zip(*grids))
    x0 = np.array([j.x for j in jets])
    first = np.cumsum(last + 1) - (last + 1)  # each jet's rows follow the previous jet's
    rows = np.empty((int(first[-1] + last[-1] + 1), 5))  # x, y, v, y_x, v_x
    rows[first] = [[j.x, j.y, j.v, j.y_x, j.v_x] for j in jets]
    curvature = np.empty((len(rows), 2))

    lim = chart.HALF_PI - POLE_MARGIN
    out: list = [None] * len(jets)
    for c, j in enumerate(jets):
        if not (abs(j.x) <= lim and abs(j.y) <= lim):
            out[c] = DomainExit(j.x, cause="initial state lies outside the pole margin at")
        elif not math.isfinite(chart.lagrangian(j)):  # a row Trajectory refuses
            out[c] = DomainExit(j.x, cause="initial slopes overflow the integrand at")
    live = np.array([c for c in range(len(jets)) if out[c] is None], dtype=int)
    u = rows[first[live], 1:].T.copy()  # (4, live)

    def gather(live):
        """Start x and realized step of the live jets, floats for a lone jet as
        in a lone run, and their first rows."""
        start, dx = x0[live], h[live]
        if live.size == 1:
            start, dx = start.item(), dx.item()
        return start, dx, first[live]

    def retire(live, stopped: dict, i: int) -> np.ndarray:
        """Store each stopped column's result and return the mask of the
        columns that go on.  ``stopped`` maps a column to the exception that
        stopped it, which gets the partial trajectory, or to None when its
        trajectory is complete.  A trajectory views its jet's rows 0..i."""
        keep = np.ones(live.size, dtype=bool)
        for c, err in stopped.items():
            jet = live[c]
            own = slice(first[jet], first[jet] + i + 1)
            if err is None:
                out[jet] = Trajectory(rows[own], curvature[own])
            else:
                err.trajectory = Trajectory(rows[own])
                out[jet] = err
            keep[c] = False
        return keep

    ends = set(n.tolist())
    start, dx, at = gather(live)
    with np.errstate(all="ignore"):  # a state that goes non-finite stops its jet below
        for i in range(int(n.max()) + 1):
            if not live.size:
                break
            x = start + i * dx if i else start
            failed: dict = {}
            k1 = _stage(x, u, failed)
            curvature[at + i] = k1[2:].T
            # at its final sample a jet that stage 1 passed is complete, whatever follows
            complete = [c for c in np.flatnonzero(n[live] == i).tolist()
                        if c not in failed] if i in ends else []
            k2 = _stage(x + 0.5 * dx, u + 0.5 * dx * k1, failed)
            k3 = _stage(x + 0.5 * dx, u + 0.5 * dx * k2, failed)
            k4 = _stage(x + dx, u + dx * k3, failed)
            stopped = {**_stopped(failed, x), **dict.fromkeys(complete)}
            u = u + (dx / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            x = start + (i + 1) * dx
            finite = np.isfinite(u).all(axis=0)
            inside = (np.abs(u[0]) <= lim) & (abs(x) <= lim)
            for c in np.flatnonzero(~(finite & inside)).tolist():
                detail = "" if finite[c] else "state became non-finite"
                stopped.setdefault(c, DomainExit(_x_of(x, c), detail))
            if stopped:
                keep = retire(live, stopped, i)
                live, u = live[keep], u[:, keep]
                start, dx, at = gather(live)
                x = start + (i + 1) * dx
            rows[at + i + 1, 0] = x
            rows[at + i + 1, 1:] = u.T
    return out


def integrate(j0: Jet1, x_end: float, step: float = 1e-3) -> Trajectory:
    """RK4 for one jet: :func:`integrate_batch` of one, raising its exception.

    Raises DomainExit when the 0.05 rad pole margin is breached and
    SingularSystem when the Euler-Lagrange system degenerates; both carry
    the partial trajectory integrated so far.
    """
    (result,) = integrate_batch([j0], x_end, step)
    if isinstance(result, Exception):
        raise result
    return result


def great_circle(p, w, t: float) -> np.ndarray:
    """Ground-truth geodesic of the round sphere: cos(t) p + sin(t) w.

    p must be unit, w unit and orthogonal to p (checked to 1e-10).
    """
    p = np.asarray(p, dtype=float)
    w = np.asarray(w, dtype=float)
    if abs(np.linalg.norm(p) - 1.0) > 1e-10:
        raise ValueError("great_circle: p is not a unit vector")
    if abs(np.linalg.norm(w) - 1.0) > 1e-10:
        raise ValueError("great_circle: w is not a unit vector")
    if abs(float(np.dot(p, w))) > 1e-10:
        raise ValueError("great_circle: w is not orthogonal to p")
    return math.cos(t) * p + math.sin(t) * w


def ambient_state(j: Jet1) -> tuple[np.ndarray, np.ndarray, float]:
    """Ambient position, unit tangent, and speed of the curve through a jet.

    The tangent is d(embed)/dx along any curve matching the jet; its norm
    equals the integrand value (the chain-rule identity the tests lean on).
    """
    p = chart.embed(j.base)
    tangent = np.array(directional(chart.ambient_coords, (j.x, j.y, j.v), (1.0, j.y_x, j.v_x))[1])
    speed = float(np.linalg.norm(tangent))
    return p, tangent / speed, speed


def arc_length(traj: Trajectory) -> float:
    """Signed arc length: integral of the integrand over x along the samples.

    Negative when the trajectory runs toward decreasing x, which is the
    convention the great-circle comparison needs.  Composite Simpson on
    the uniform grid (trapezoid fallback on the last interval when the
    sample count is even).
    """
    x = traj.x
    lam = traj.lagrangian
    n = len(x)
    if n < 2:
        return 0.0
    h = x[1] - x[0]
    total = 0.0
    m = n if n % 2 == 1 else n - 1
    if m >= 3:
        total += (h / 3.0) * (
            lam[0]
            + lam[m - 1]
            + 4.0 * np.sum(lam[1:m - 1:2])
            + 2.0 * np.sum(lam[2:m - 2:2])
        )
    if m != n:
        total += 0.5 * h * (lam[n - 2] + lam[n - 1])
    return float(total)


def endpoint_error_vs_great_circle(traj: Trajectory) -> float:
    """Euclidean gap between the integrated endpoint and the exact circle.

    The exact circle starts at the trajectory's initial ambient state; the
    comparison point is taken at the accumulated arc length, so phase
    errors count as well as off-circle drift.
    """
    p, w, _ = ambient_state(traj.jet(0))
    t = arc_length(traj)
    endpoint = traj.jet(len(traj) - 1)
    q = chart.embed(endpoint.base)
    return float(np.linalg.norm(great_circle(p, w, t) - q))
