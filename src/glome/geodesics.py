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

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import chart, jetcalc
from .chart import Jet1
from .jetcalc import directional

POLE_MARGIN = 0.05  # rad; integration aborts when |x| or |y| crosses pi/2 minus this
DET_FLOOR = 1e-12  # coefficient-matrix determinants below this are singular

CSV_HEADER = ["x", "y", "v", "y_x", "v_x", "noether_c", "lagrangian", "ambient_norm_residual"]
# Relative bound on a stored diagnostic column against its value recomputed
# from the state on load: to_csv round-trips exactly, so this only admits a
# few ulps of libm difference in a CSV written on another machine.
CSV_DIAGNOSTIC_RTOL = 1e-12


class SingularSystem(RuntimeError):
    """The 2x2 Euler-Lagrange coefficient matrix is numerically singular."""

    def __init__(self, det: float, x: float | None = None, trajectory=None):
        self.det = det
        self.x = x
        self.trajectory = trajectory
        loc = f" near x = {x:.6g}" if x is not None else ""
        super().__init__(f"Euler-Lagrange system singular (det = {det:.3g}){loc}")


class DomainExit(RuntimeError):
    """Integration left the chart pole margin; carries the partial trajectory."""

    def __init__(self, x: float, detail: str = "", trajectory=None):
        self.x = x
        self.trajectory = trajectory
        msg = f"trajectory breached the pole margin near x = {x:.6g}"
        if detail:
            msg = f"{msg} ({detail})"
        super().__init__(msg)


class OutOfRange(ValueError):
    """A collapsed-equation constant fell outside [0, 1]."""


@dataclass(frozen=True)
class KConstant:
    """Constant of the collapsed second-order equation; must lie in [0, 1]."""

    k: float

    def __post_init__(self):
        if not (math.isfinite(self.k) and 0.0 <= self.k <= 1.0):
            raise OutOfRange(f"k must lie in [0, 1], got {self.k}")

    def __float__(self) -> float:
        return float(self.k)


# The integrand as a function of the four live jet slots (v never enters;
# that independence is exactly what makes the charge conserved).
def _L(x, y, y_x, v_x):
    return chart.arc_speed(x, y, y_x, v_x)


_E_Y = (0.0, 1.0, 0.0, 0.0)
_E_YX = (0.0, 0.0, 1.0, 0.0)
_E_VX = (0.0, 0.0, 0.0, 1.0)


def _L_yx(*a):
    return directional(_L, a, _E_YX)[1]


def _L_vx(*a):
    return directional(_L, a, _E_VX)[1]


def el_rhs(j: Jet1) -> tuple[float, float]:
    """Solve both Euler-Lagrange equations for (y_xx, v_xx) at a state.

    The equations L_y - D_x(L_{y_x}) = 0 and L_v - D_x(L_{v_x}) = 0 are
    linear in the curvatures once the total derivatives are expanded;
    the 2x2 system is solved by Cramer's rule.  Raises SingularSystem
    when the determinant drops below DET_FLOOR (chart poles).
    """
    q = (j.x, j.y, j.y_x, j.v_x)
    known_dir = (1.0, j.y_x, 0.0, 0.0)

    _, L_y = directional(_L, q, _E_Y)
    _, known_y = directional(_L_yx, q, known_dir)
    _, m11 = directional(_L_yx, q, _E_YX)
    _, m12 = directional(_L_yx, q, _E_VX)
    _, known_v = directional(_L_vx, q, known_dir)
    _, m21 = directional(_L_vx, q, _E_YX)
    _, m22 = directional(_L_vx, q, _E_VX)

    b1 = L_y - known_y
    b2 = 0.0 - known_v  # L_v vanishes identically
    det = m11 * m22 - m12 * m21
    if abs(det) < DET_FLOOR:
        raise SingularSystem(det, x=j.x)
    y_xx = (b1 * m22 - b2 * m12) / det
    v_xx = (m11 * b2 - m21 * b1) / det
    return y_xx, v_xx


def el_expression_y(x, y, v, y_x, v_x, y_xx, v_xx):
    """L_y - D_x(L_{y_x}) on second-order jets; dual-capable."""
    q = (x, y, y_x, v_x)
    _, L_y = directional(_L, q, _E_Y)
    _, total = directional(_L_yx, q, (1.0, y_x, y_xx, v_xx))
    return L_y - total


def el_expression_v(x, y, v, y_x, v_x, y_xx, v_xx):
    """L_v - D_x(L_{v_x}) on second-order jets; dual-capable (L_v = 0)."""
    q = (x, y, y_x, v_x)
    _, total = directional(_L_vx, q, (1.0, y_x, y_xx, v_xx))
    return 0.0 - total


def noether_charge(j: Jet1) -> float:
    """The conserved charge dL/dv_x = cos^2x cos^2y v_x / L."""
    cx = math.cos(j.x)
    cy = math.cos(j.y)
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
        - y_x**3 * ccx * ccx * sx * cy * ccy
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
        diag = np.array([_diagnostics(row) for row in self.samples]).reshape(-1, 3)
        self.noether, self.lagrangian, self.ambient_norm_residual = diag.T

    def __len__(self) -> int:
        return self.samples.shape[0]

    @property
    def x(self) -> np.ndarray:
        return self.samples[:, 0]

    def jet(self, i: int) -> Jet1:
        x, y, v, y_x, v_x = (float(c) for c in self.samples[i])
        return chart.jet1(x, y, v, y_x, v_x)

    def noether_drift(self) -> float:
        return float(np.max(np.abs(self.noether - self.noether[0])))

    def to_csv(self, path_or_file) -> None:
        """Write the CSV form (17 significant digits per field)."""
        own = isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__")
        handle = open(path_or_file, "w", newline="") if own else path_or_file
        try:
            writer = csv.writer(handle)
            writer.writerow(CSV_HEADER)
            cols = np.column_stack(
                [self.samples, self.noether, self.lagrangian, self.ambient_norm_residual]
            )
            for row in cols:
                writer.writerow([f"{val:.17g}" for val in row])
        finally:
            if own:
                handle.close()

    @classmethod
    def from_csv(cls, path_or_file) -> "Trajectory":
        own = isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__")
        handle = open(path_or_file, "r", newline="") if own else path_or_file
        try:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise ValueError("empty trajectory CSV") from None
            if header != CSV_HEADER:
                raise ValueError(f"unexpected trajectory CSV header: {header!r}")
            rows = [[float(cell) for cell in row] for row in reader if row]
        finally:
            if own:
                handle.close()
        if not rows:
            raise ValueError("trajectory CSV carries no samples")
        data = np.array(rows)
        if data.shape[1] != 8:
            raise ValueError(f"expected 8 columns, got {data.shape[1]}")
        bad = np.flatnonzero(~np.all(np.isfinite(data), axis=1))
        if bad.size:
            raise ValueError(f"trajectory CSV row {bad[0] + 1} has a non-finite cell")
        bad = np.flatnonzero(np.any(np.abs(data[:, :2]) >= chart.HALF_PI, axis=1))
        if bad.size:
            raise ValueError(f"trajectory CSV row {bad[0] + 1} lies outside the open chart")
        xs = data[:, 0]
        if len(xs) > 1 and not (np.all(np.diff(xs) > 0) or np.all(np.diff(xs) < 0)):
            raise ValueError("trajectory x column must be strictly monotone")
        traj = cls(data[:, :5].copy())
        fresh = np.column_stack([traj.noether, traj.lagrangian, traj.ambient_norm_residual])
        off = np.abs(data[:, 5:] - fresh) > CSV_DIAGNOSTIC_RTOL * np.maximum(1.0, np.abs(fresh))
        bad = np.flatnonzero(np.any(off, axis=1))
        if bad.size:
            row = bad[0]
            col = 5 + int(np.flatnonzero(off[row])[0])
            raise ValueError(
                f"trajectory CSV row {row + 1}: {CSV_HEADER[col]} = {float(data[row, col])!r}"
                f" differs from {float(fresh[row, col - 5])!r} recomputed from the state"
            )
        return traj


def _ambient_norm_residual(x, y, v) -> float:
    g = chart.ambient_coords(x, y, v)
    return abs(math.sqrt(g[0] ** 2 + g[1] ** 2 + g[2] ** 2 + g[3] ** 2) - 1.0)


def _diagnostics(state_row) -> tuple[float, float, float]:
    x, y, v, y_x, v_x = state_row
    j = chart.jet1(x, y, v, y_x, v_x)
    return noether_charge(j), chart.lagrangian(j), _ambient_norm_residual(x, y, v)


def _inside_margin(x: float, y: float) -> bool:
    lim = chart.HALF_PI - POLE_MARGIN
    return abs(x) <= lim and abs(y) <= lim


def integrate(j0: Jet1, x_end: float, step: float = 1e-3) -> Trajectory:
    """Classic fixed-step RK4 in x for the state (y, v, y_x, v_x).

    The step count is chosen so the grid lands exactly on x_end (the
    realized step never exceeds the requested magnitude).  Each step's
    first stage is the curvature at its sample, so the trajectory keeps
    it; one extra evaluation covers the final sample.  Raises DomainExit
    when the 0.05 rad pole margin is breached and SingularSystem when the
    Euler-Lagrange system degenerates; both carry the partial trajectory
    integrated so far.
    """
    if not 0.0 < abs(step) <= 0.01:
        raise ValueError(f"|step| must lie in (0, 0.01], got {step}")
    if not _inside_margin(j0.x, j0.y):
        raise DomainExit(j0.x, "initial state outside the pole margin")

    span = x_end - j0.x
    n = 0 if span == 0.0 else max(1, round(abs(span) / abs(step)))
    if n and abs(span) / n > 0.01:
        n += 1
    h = span / max(n, 1)

    def rhs(x, u):
        jet = chart.jet1(x, u[0], u[1], u[2], u[3])
        y_xx, v_xx = el_rhs(jet)
        return np.array([u[2], u[3], y_xx, v_xx])

    rows = [np.array([j0.x, j0.y, j0.v, j0.y_x, j0.v_x])]
    curvature = []
    u = rows[0][1:].copy()
    x = j0.x
    for i in range(n + 1):
        try:
            k1 = rhs(x, u)
            curvature.append(k1[2:])
            if i == n:
                break  # the final sample needs only its curvature
            k2 = rhs(x + 0.5 * h, u + 0.5 * h * k1)
            k3 = rhs(x + 0.5 * h, u + 0.5 * h * k2)
            k4 = rhs(x + h, u + h * k3)
        except SingularSystem as err:
            raise SingularSystem(err.det, x=x, trajectory=Trajectory(np.array(rows))) from None
        except (jetcalc.DomainError, chart.ChartError) as err:
            # a stage state left the chart entirely (e.g. runaway slope)
            raise DomainExit(x, str(err), trajectory=Trajectory(np.array(rows))) from None
        u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        x = j0.x + (i + 1) * h
        if not np.all(np.isfinite(u)):
            raise DomainExit(x, "state became non-finite", trajectory=Trajectory(np.array(rows)))
        if not _inside_margin(x, u[0]):
            raise DomainExit(x, trajectory=Trajectory(np.array(rows)))
        rows.append(np.array([x, u[0], u[1], u[2], u[3]]))
    return Trajectory(np.array(rows), np.array(curvature))


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
    tangent = []
    for idx in range(4):
        def comp(x, y, v, idx=idx):
            return chart.ambient_coords(x, y, v)[idx]

        _, d = directional(comp, (j.x, j.y, j.v), (1.0, j.y_x, j.v_x))
        tangent.append(d)
    tangent = np.array(tangent)
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
