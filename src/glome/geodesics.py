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

from . import chart, jetcalc, tape
from .jetcalc import directional, power

POLE_MARGIN = 0.05  # rad; integration aborts when |x| or |y| crosses pi/2 minus this
POLE_LIMIT = chart.HALF_PI - POLE_MARGIN  # rad; the largest |x| or |y| a written row holds
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

    trajectory = None  # the partial trajectory, set when integration stops here

    def __init__(self, det: float, x: float):
        self.det = det
        self.x = x
        super().__init__(f"Euler-Lagrange system singular (det = {det:.3g}) near x = {x:.6g}")


class DomainExit(RuntimeError):
    """Integration stopped at the chart pole margin; carries the partial trajectory.

    ``cause`` names why, and reads as a sentence ending before ``x = ...``.
    A jet that starts outside the margin, or with slopes that overflow the
    integrand, never starts and carries no trajectory.
    """

    trajectory = None  # the partial trajectory, set when integration stops here

    def __init__(self, x: float, cause: str, detail: str = ""):
        self.x = x
        msg = f"{cause} x = {x:.6g}"
        if detail:
            msg = f"{msg} ({detail})"
        super().__init__(msg)


class OutOfRange(ValueError):
    """A collapsed-equation constant fell outside [0, 1]."""


class TrajectoryCSVError(ValueError):
    """A trajectory CSV is malformed or disagrees with its own state columns."""


# The seeds of the pass, the one table every layout cuts its seeds from:
# each row is a (3, 3) grid indexed (outer direction, inner direction),
# flattened to 9 cells.  Rows 0-3 hold argument i's component of the inner
# directions E_Y, E_YX, E_VX (the unit vectors of y, y_x and v_x), repeated
# for each outer direction; rows 4-7 its component of the outer directions
# (E_X, E_YX, E_VX), repeated for each inner one.  The first outer
# direction becomes the known part of D_x once y's cells in it (row 5's
# first three) are set to y_x.  Cell (o, n) of an inner row is unit vector
# 1 + n's component, of an outer row unit vector (0, 2, 3)[o]'s.  A float
# state's seeds are the rows themselves (_LONE_SEEDS, views of the table).
_GRID_SEEDS = (np.eye(4)[:, [[1, 2, 3] * 3, [0, 0, 0, 2, 2, 2, 3, 3, 3]]]
               .swapaxes(0, 1).reshape(8, 9))
_LONE_SEEDS = tuple(_GRID_SEEDS)
# The kernel's tape (see tape.record): the nested pass's operations,
# recorded on the first kernel call of a process, a float state's or a
# batch's, at this interior float state with its seed rows, where none of
# the pass's checks raises.  The same lines serve a batch's arrays.
_TAPE_STATE = (0.1, 0.2, 0.3, 0.4)
_kernel_tape = None
# The most states a batch replays the tape on same-shape grids (_grids);
# a wider batch replays it on broadcast seeds (_seeds).  Measured on a
# shared 2-core x86-64 host, numpy 2.4, a kernel call's best of 9 timeit
# repeats in 10 pairs of fresh processes, alternating which layout ran
# first: the grids won 10 of 10 pairs at 61 and 80 states (median 118 vs
# 131 us, 134 vs 141 us), 8 at 96, 2 at 120 and 0 at 160 (206 vs 174 us).
_GRID_BATCH = 80


def _seeds(y, y_x) -> tuple:
    """The inner and then the outer seeds of the pass at the states along
    the axes of an array y, broadcast against them: the outer directions
    on the leading axis and the inner ones on the next.  They are cut from
    _GRID_SEEDS: row 0 of each inner grid and column 0 of each outer one."""
    ones = (1,) * y.ndim
    grids = _GRID_SEEDS.reshape(8, 3, 3)
    outer = np.empty((4, 3, 1) + y.shape)  # argument, outer direction, (inner), batch
    outer[...] = grids[4:, :, :1].reshape((4, 3, 1) + ones)
    outer[1, 0] = y_x
    return (*grids[:4, 0].reshape((4, 3) + ones), *outer)


def _grids(x, y, y_x, v_x) -> tuple:
    """The pass's twelve arguments on _GRID_SEEDS' rows: at a float state,
    the state and the rows themselves, y's outer row copied with y_x in
    its D_x cells; at a batch of states, an array y with a leading axis,
    the rows stacked along that axis.  Each state argument and each seed
    of a batch is one contiguous array of shape (9 * len(y),) +
    y.shape[1:], block b (grid cell b) holding the cell's seed for every
    state, or every state's value.  A float x stays a float.  Block 0
    comes first, so a check of a state's value, equal in all nine blocks,
    fails first at the state's own index."""
    if not isinstance(y, np.ndarray):
        y_outer = _LONE_SEEDS[5].copy()  # zero: y is in no outer direction but D_x
        y_outer[:3] = y_x
        return (x, y, y_x, v_x, *_LONE_SEEDS[:5], y_outer, *_LONE_SEEDS[6:])
    grids = np.empty_like(_GRID_SEEDS, shape=(12, 9) + y.shape, order="C")
    grids[4:] = _GRID_SEEDS.reshape((8, 9) + (1,) * y.ndim)
    grids[9, :3] = y_x  # y's outer seed along D_x
    for row, value in enumerate((x, y, y_x, v_x)):
        grids[row] = value
    args = tuple(grids.reshape((12, -1) + y.shape[1:]))
    return (x if not isinstance(x, np.ndarray) else args[0], *args[1:])


def _nested_pass(x, y, y_x, v_x, *seeds):
    """(value, derivative) of the outer pass of chart.arc_speed's nested dual
    evaluation, seeded with the inner directions seeds[:4] and the outer
    ones seeds[4:]: L_y and the mixed second partials."""
    inner = seeds[:4]
    return directional(lambda *a: directional(chart.arc_speed, a, inner)[1],
                       (x, y, y_x, v_x), seeds[4:])


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
    E_YX, E_VX), yields L_y and all six mixed second partials; Cramer's
    rule then runs element by element, on Python floats for a float
    state.

    The pass runs in one of three layouts, chosen so that its operations
    broadcast as little as the batch's size allows.  A float state
    carries both directions on the 9 cells of _GRID_SEEDS' rows, which
    its floats multiply without a broadcast.  A batch of at most
    _GRID_BATCH states carries those rows stacked along its leading axis,
    with each state repeated in all nine blocks (:func:`_grids`), so every
    operation is elementwise on operands of one shape, the fastest numpy
    call.  A wider batch carries the outer directions on its leading axis
    and the inner ones on the next, broadcast against the state axes
    (:func:`_seeds`): there the pass's time is in its arithmetic, not in
    the calls, and nine copies of every state would cost more time and
    memory than broadcasting.  Every layout's outputs are read as cells in
    the grid's flat (outer, inner) order: L_y is the partials' first cell;
    mixed cells 1, 4 and 7 are the known part of D_x(L_{y_x}), L_{y_x y_x}
    and L_{y_x v_x}, and cells 2, 5 and 8 the same for L_{v_x}.  Each
    element repeats the floating-point operations of seven separate scalar
    passes exactly, in every layout, and a check of a state's value fails
    first at the state's own index, so a DomainError is the same in each.

    Every call replays one tape of that pass: the first call in a
    process runs the dual pass once, at _TAPE_STATE, to record its
    operations on floats and seed rows (:func:`tape.record`), and every
    call, a float state's or a batch's, replays them on its own values
    and seeds.  The recorded lines hold no test of an operand's type, so
    on a batch's arrays they are the operations its dual pass would run,
    each element's result the same bitwise.  The tape has no branches:
    jetcalc's sin, cos and sqrt and its checks of a zero root and of a
    divisor too small to square are recorded as one call each, so a
    replay raises the dual pass's own DomainError.  The caller checks
    |det| against DET_FLOOR (below it the curvatures are meaningless) and
    silences numpy's floating-point warnings for such states.
    """
    global _kernel_tape
    if _kernel_tape is None:
        _kernel_tape = tape.record(_nested_pass, _grids(*_TAPE_STATE))
    batch = isinstance(y, np.ndarray)
    wide = batch and (y.ndim == 0 or y.size > _GRID_BATCH)  # a 0-d array has no axis to stack on
    partials, mixed = _kernel_tape(*((x, y, y_x, v_x, *_seeds(y, y_x)) if wide
                                     else _grids(x, y, y_x, v_x)))
    if batch:
        L_y = partials.reshape((-1,) + y.shape)[0]
        cells = mixed.reshape((9,) + y.shape)
    else:
        L_y = partials.item(0)
        cells = mixed.tolist()
    _, known_y, known_v, _, m11, m21, _, m12, m22 = cells
    b1 = L_y - known_y
    b2 = 0.0 - known_v  # L_v vanishes identically
    det = m11 * m22 - m12 * m21
    if not batch and det == 0.0:  # a float divides by zero as numpy does
        det = np.float64(det)
    y_xx = (b1 * m22 - b2 * m12) / det
    v_xx = (m11 * b2 - m21 * b1) / det
    return y_xx, v_xx, det


def el_rhs(j: chart.JetColumns) -> tuple[float, float]:
    """Solve both Euler-Lagrange equations for (y_xx, v_xx) at a state.

    Raises SingularSystem when the determinant of the 2x2 system drops
    below DET_FLOOR (chart poles).
    """
    with np.errstate(all="ignore"):
        y_xx, v_xx, det = _curvatures(j.x, j.y, j.y_x, j.v_x)
    if abs(det) < DET_FLOOR:
        raise SingularSystem(float(det), x=j.x)
    return float(y_xx), float(v_xx)


def noether_charge(j: chart.JetColumns, lagrangian=None):
    """The conserved charge dL/dv_x = cos^2x cos^2y v_x / L (an array over
    JetColumns); L is ``lagrangian`` when the caller has it already."""
    cx = jetcalc.cos(j.x)
    cy = jetcalc.cos(j.y)
    return cx * cx * cy * cy * j.v_x / (chart.lagrangian(j) if lagrangian is None else lagrangian)


def collapsed_E(x, y, y_x, y_xx, k):
    """Left side of the collapsed equation E = 0; dual-capable in the jet slots."""
    cx, sx = jetcalc.cos(x), jetcalc.sin(x)
    cy, sy = jetcalc.cos(y), jetcalc.sin(y)
    ccx = cx * cx
    ccy = cy * cy
    return (
        y_x * sx * cy * (k - 2.0 * ccx * ccy)
        + y_xx * cx * cy * (ccx * ccy - k)
        + k * jetcalc.sec(x) * sy
        + k * y_x * y_x * cx * sy
        - power(y_x, 3) * ccx * ccx * sx * cy * ccy
    )


def collapsed_fn(k):
    """The collapsed equation as a 7-slot jet function (for prolongations)."""
    def F(x, y, v, y_x, v_x, y_xx, v_xx):
        return collapsed_E(x, y, y_x, y_xx, k)

    return F


def infer_k(j: chart.JetColumns) -> float:
    """The collapsed-equation constant k in [0, 1] for the geodesic through a state.

    Eliminating v_x from the second Euler-Lagrange equation via the
    conserved charge c gives k = c^2; the grid-search oracle in the test
    suite pins this closed form.  Raises OutOfRange if the value escapes
    [0, 1] (it cannot for a state in the open chart, up to rounding).
    """
    c = noether_charge(j)
    k = c * c
    if not (math.isfinite(k) and 0.0 <= k <= 1.0):
        raise OutOfRange(f"k must lie in [0, 1], got {k}")
    return k


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
            self.lagrangian = chart.lagrangian(c)
            self.noether = noether_charge(c, self.lagrangian)
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

    def jet(self, i: int) -> chart.JetColumns:
        return chart.JetColumns(*self.samples[i].tolist())

    def noether_drift(self) -> float:
        return float(np.max(np.abs(self.noether - self.noether[0])))

    def to_csv(self, path_or_file) -> None:
        """Write the CSV form (17 significant digits per field)."""
        cols = np.column_stack([self.samples, self.noether, self.lagrangian,
                                self.ambient_norm_residual])
        with _open_csv(path_or_file, "w") as handle:
            np.savetxt(handle, cols, fmt="%.17g", delimiter=",", header=",".join(CSV_HEADER),
                       comments="", newline="\r\n")

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
            raise TrajectoryCSVError(f"trajectory row {bad[0]} has a non-finite cell")
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
                f"trajectory row {row}: {CSV_HEADER[col]} = {float(data[row, col])!r}"
                f" differs from {float(fresh[row, col - 5])!r} recomputed from the state"
            )
        return traj


_STAGE_OFF_CHART = "an RK4 stage left the open chart in the step from"


def _stage(x, u, stopped: dict, at):
    """RK4 slopes (y_x, v_x, y_xx, v_xx) at abscissae x for the states u.

    u is a (4, m) array with one state per column, and x and the
    step-start abscissa ``at`` are arrays with one abscissa per column; or
    u is a lone state's four floats (y, v, y_x, v_x), x and ``at`` are
    floats, the state is column 0, and its slopes come back as four
    floats.  A column with no entry in the step's ``stopped`` record whose
    state leaves the chart, raises DomainError or meets a singular system,
    in that order, gets DomainExit at ``at`` naming the stage's abscissa
    and state or the guard's message, or SingularSystem with the
    determinant at ``at``.  Every column in the record gets zero slopes,
    so the step's later stages evaluate it at its step-start state; a
    lone state in the record skips the kernel.  Only the lone branch
    builds a stop: an array's column that is off the chart, non-finite or
    singular, or every column when its kernel raises DomainError, is
    evaluated again as a lone state, so its outcome and slopes are the
    same in a batch as alone.
    """
    # x needs no test: |x_i| <= POLE_LIMIT and |x - x_i| <= MAX_STEP < POLE_MARGIN
    if isinstance(u, tuple):
        y, v, y_x, v_x = u
        if not (abs(y) < chart.HALF_PI and math.isfinite(v) and math.isfinite(y_x)
                and math.isfinite(v_x)):
            detail = f"stage at x = {float(x)!r} has (y, v, y_x, v_x) = {tuple(map(float, u))}"
            stopped.setdefault(0, DomainExit(float(at), _STAGE_OFF_CHART, detail))
        if not stopped:
            try:
                y_xx, v_xx, det = _curvatures(x, y, y_x, v_x)
            except jetcalc.DomainError as err:
                stopped[0] = DomainExit(float(at), "an RK4 stage failed a domain guard in the"
                                        " step from", str(err))
            else:
                if not abs(det) < DET_FLOOR:  # a nan determinant is not singular
                    return y_x, v_x, y_xx, v_xx
                stopped[0] = SingularSystem(float(det), x=float(at))
        return 0.0, 0.0, 0.0, 0.0
    y, _, y_x, v_x = u
    k = np.empty_like(u)
    k[:2] = u[2:]
    try:
        k[2], k[3], det = _curvatures(x, y, y_x, v_x)
    except jetcalc.DomainError:
        redo = range(u.shape[1])
    else:
        redo = ()
        if not (np.isfinite(u).all() and np.abs(y).max() < chart.HALF_PI
                and (np.abs(det) >= DET_FLOOR).all()):  # a nan determinant is not singular
            off = ~(np.isfinite(u).all(axis=0) & (np.abs(y) < chart.HALF_PI))
            redo = np.flatnonzero(off | (np.abs(det) < DET_FLOOR)).tolist()
    for c in redo:  # each as a lone state, whose floats repeat its column
        one = {0: stopped[c]} if c in stopped else {}
        k[:, c] = _stage(float(x[c]), tuple(u[:, c].tolist()), one, float(at[c]))
        if one:
            stopped[c] = one[0]
    if stopped:
        k[:, list(stopped)] = 0.0
    return k


def _axpy(u, a, k):
    """u + a * k, for a lone state's four floats each component as numpy
    forms it, so the last live jet's step stays on floats."""
    if isinstance(u, tuple):
        return u[0] + a * k[0], u[1] + a * k[1], u[2] + a * k[2], u[3] + a * k[3]
    return u + a * k


def _inside(x, u) -> bool:
    """Whether each state in u is finite and inside the pole margin at x, a lone one on floats."""
    if isinstance(u, tuple):
        y, v, y_x, v_x = u
        return (abs(y) <= POLE_LIMIT and abs(x) <= POLE_LIMIT and math.isfinite(v)
                and math.isfinite(y_x) and math.isfinite(v_x))
    return bool(np.isfinite(u).all() and np.abs(u[0]).max() <= POLE_LIMIT
                and (np.abs(x) <= POLE_LIMIT).all())


def _rk4_update(u, sixth, k1, k2, k3, k4):
    """u + sixth * (k1 + 2 k2 + 2 k3 + k4), for a lone state's four floats
    each component as numpy forms it."""
    if isinstance(u, tuple):
        return (u[0] + sixth * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
                u[1] + sixth * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]),
                u[2] + sixth * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2]),
                u[3] + sixth * (k1[3] + 2.0 * k2[3] + 2.0 * k3[3] + k4[3]))
    return u + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4_step(slope, x, u, dx, k1):
    """The state one classic RK4 step of dx past u at x, whose first slope is k1.

    u is a (4, m) array with one state per column, and x and dx are arrays
    with one value per column; or u is a lone state's four floats, and x
    and dx are floats.  slope(x, u) returns the slopes at x of states in
    u's form.  Stages 2-4 evaluate it at x + dx/2, x + dx/2 and x + dx;
    each stage input and the update are formed by :func:`_axpy` and
    :func:`_rk4_update`, a float state's component by component in
    numpy's operation order, so each column of an array step repeats its
    lone step bitwise.  The caller evaluates k1, so it can keep stage 1's
    curvature and mark completion before stage 2.  integrate_batch's one
    step loop calls it in both forms.
    """
    half = 0.5 * dx
    mid = x + half
    k2 = slope(mid, _axpy(u, half, k1))
    k3 = slope(mid, _axpy(u, half, k2))
    k4 = slope(x + dx, _axpy(u, dx, k3))
    return _rk4_update(u, dx / 6.0, k1, k2, k3, k4)


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
        ahead = POLE_LIMIT - x0 if h > 0 else POLE_LIMIT + x0
        last = min(n, max(0, math.floor(min(ahead / abs(h), n)) + 1))  # a subnormal h overflows
    return n, h, last


def integrate_batch(jets, x_end, step) -> list:
    """Classic fixed-step RK4 in x for many states (y, v, y_x, v_x) in lockstep.

    Each jet starts at its own x; x_end and step are floats shared by all
    jets or sequences with one value per jet (x_end may be infinite, not
    nan; |step| must lie in [MIN_STEP, MAX_STEP]).  A jet's step count is
    chosen so its grid lands exactly on its x_end, and its result equals
    its lone run bitwise, whatever its batch.

    Returns one entry per jet: its Trajectory, with the curvature RK4
    evaluated at each sample, or the exception that stopped it --
    DomainExit when the jet starts outside the 0.05 rad pole margin or
    with slopes that overflow the integrand, has a stage leave the chart
    or fail a domain guard, breaches the margin or becomes non-finite;
    SingularSystem when the Euler-Lagrange system degenerates.  Both carry
    the partial trajectory integrated so far (None when the jet never
    started).  A stopped jet freezes; the others continue.  Each step
    keeps one outcome record per jet, never overwritten, so at step i the
    first of these that applies wins, and a partial trajectory holds rows
    0..i:

    1. a stage-1 failure raises its exception at x_i;
    2. a jet at its final sample is a complete Trajectory, with curvature;
    3. a stage 2-4 failure raises its exception at x_i;
    4. a margin breach or a non-finite state raises DomainExit at x_{i+1}.

    One loop takes every step, on a (4, m) array of the live states until
    one jet is left, whose state it then turns into four floats once.
    The samples and curvatures sit in (5, N) and (2, N) buffers, one
    column per sample, so one write serves both forms; each Trajectory
    views its own columns, transposed.
    """
    for s in np.ravel(step).tolist():
        if not MIN_STEP <= abs(s) <= MAX_STEP:
            raise ValueError(f"|step| must lie in [{MIN_STEP:g}, {MAX_STEP:g}], got {s}")
    if np.isnan(x_end).any():  # ±inf is clamped by _grid; nan has no grid
        raise ValueError(f"x_end must not be nan, got {x_end}")
    jets = list(jets)
    grids = [_grid(j.x, e, s) for j, e, s in zip(jets, _per_jet(x_end, len(jets), "x_end"),
                                                 _per_jet(step, len(jets), "step"))]
    if not jets:
        return []
    n, h, last = (np.array(col) for col in zip(*grids))
    x0 = np.array([j.x for j in jets])
    first = np.cumsum(last + 1) - (last + 1)  # each jet's samples follow the previous jet's
    rows = np.empty((5, int(first[-1] + last[-1] + 1)))  # x, y, v, y_x, v_x; a column per sample
    curvature = np.empty((2, rows.shape[1]))  # y_xx, v_xx

    out: list = [None] * len(jets)
    for c, j in enumerate(jets):
        if not (abs(j.x) <= POLE_LIMIT and abs(j.y) <= POLE_LIMIT):
            out[c] = DomainExit(j.x, "initial state lies outside the pole margin at")
        elif not math.isfinite(chart.lagrangian(j)):  # a row Trajectory refuses
            out[c] = DomainExit(j.x, "initial slopes overflow the integrand at")

    def retire(live, stopped: dict, i: int) -> np.ndarray:
        """Store each stopped column's result and return the mask of the
        columns that go on.  ``stopped`` maps a column to the exception that
        stopped it, which gets the partial trajectory, or to None when its
        trajectory is complete.  A trajectory views its jet's samples 0..i."""
        keep = np.ones(live.size, dtype=bool)
        for c, err in stopped.items():
            jet = live[c]
            own = slice(first[jet], first[jet] + i + 1)
            if err is None:
                out[jet] = Trajectory(rows[:, own].T, curvature[:, own].T)
            else:
                err.trajectory = Trajectory(rows[:, own].T)
                out[jet] = err
            keep[c] = False
        return keep

    ends = set(n.tolist())
    live, x = np.arange(len(jets)), x0
    u = np.array([[j.y, j.v, j.y_x, j.v_x] for j in jets]).T
    keep = np.array([r is None for r in out])  # the jets that start
    with np.errstate(all="ignore"):  # a state that goes non-finite stops its jet below
        for i in range(int(n.max()) + 1):
            if keep is not None:  # the jets in keep go on from x_i, the others stopped
                live = live[keep]
                if not live.size:
                    break
                x, u = x[keep], u[:, keep]
                start, dx, base = x0[live], h[live], first[live]
                if live.size == 1:  # the last live jet goes on as floats
                    start, dx, base, x = (a.item() for a in (start, dx, base, x))
                    u = tuple(u[:, 0].tolist())
                keep = None
            rows[:, base + i] = x, *u
            stopped: dict = {}
            slope = lambda xs, us, stopped=stopped, at=x: _stage(xs, us, stopped, at)
            k1 = slope(x, u)
            curvature[:, base + i] = k1[2:]
            if i in ends:  # at its final sample a jet that stage 1 passed is complete
                for c in np.flatnonzero(n[live] == i).tolist():
                    stopped.setdefault(c, None)
            u = _rk4_step(slope, x, u, dx, k1)
            x = start + (i + 1) * dx
            if not _inside(x, u):
                us, xs = np.reshape(u, (4, -1)), np.reshape(x, -1)
                finite = np.isfinite(us).all(axis=0)
                inside = (np.abs(us[0]) <= POLE_LIMIT) & (np.abs(xs) <= POLE_LIMIT)
                for c in np.flatnonzero(~(finite & inside)).tolist():
                    cause = ("trajectory breached the pole margin near" if finite[c]
                             else "trajectory state became non-finite at")
                    stopped.setdefault(c, DomainExit(float(xs[c]), cause))
            if stopped:
                keep = retire(live, stopped, i)
    return out


def integrate(j0: chart.JetColumns, x_end: float, step: float) -> Trajectory:
    """RK4 for one jet: :func:`integrate_batch` of one, raising its exception.

    Raises DomainExit when the 0.05 rad pole margin is breached and
    SingularSystem when the Euler-Lagrange system degenerates; both carry
    the partial trajectory integrated so far.
    """
    (result,) = integrate_batch([j0], x_end, step)
    if isinstance(result, Exception):
        raise result
    return result


def ambient_state(traj: Trajectory, rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ambient positions (4, k), unit tangents (4, k) and speeds (k,) at the
    k trajectory rows ``rows``, from one directional pass of
    chart.ambient_coords along (1, y_x, v_x).  A speed equals the
    integrand value (the chain-rule identity the tests lean on); each is
    np.linalg.norm of its own tangent, which rounds as a lone row's does,
    where a norm along an axis would not.
    """
    x, y, v, y_x, v_x = traj.samples[rows].T
    p, tangent = map(np.array, directional(chart.ambient_coords, (x, y, v), (1.0, y_x, v_x)))
    speed = np.array([np.linalg.norm(t) for t in tangent.T])
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

    The exact circle cos(t) p + sin(t) w starts at the trajectory's initial
    ambient position p with unit tangent w, orthogonal to p; at the
    accumulated arc length t it is compared with the last row's position
    q, so phase errors count as well as off-circle drift.  p, w and q come
    from one ambient_state call at rows 0 and len - 1.
    """
    positions, tangents, _ = ambient_state(traj, [0, len(traj) - 1])
    p, w, q = positions[:, 0], tangents[:, 0], positions[:, 1]
    t = arc_length(traj)
    return float(np.linalg.norm(math.cos(t) * p + math.sin(t) * w - q))
