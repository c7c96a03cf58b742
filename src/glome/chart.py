"""Hyperspherical chart of the unit 3-sphere and the arclength integrand.

The chart maps three angles (x, y, v) to the unit sphere in 4-space:

    (cos x cos y cos v,  cos x cos y sin v,  cos x sin y,  sin x)

x and y live strictly inside (-pi/2, pi/2): the boundary is excluded
because tan x and sec y appear in the symmetry generators and canonical
coordinates, so everything downstream is singular there.  v is stored
unnormalized (trajectories must not jump at the 2*pi seam); reduce mod
2*pi at display time if needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import jetcalc

HALF_PI = math.pi / 2.0

DEFAULT_MARGIN = 0.1  # rad; keeps |tan x|, |sec y| below ~15 when sampling


class ChartError(ValueError):
    """A chart point or jet fails validation (non-finite or off the open chart)."""


@dataclass(frozen=True)
class ChartPoint:
    """A point of the open chart: |x| < pi/2, |y| < pi/2, v any real."""

    x: float
    y: float
    v: float

    def __post_init__(self):
        for name in ("x", "y", "v"):
            if not math.isfinite(getattr(self, name)):
                raise ChartError(f"ChartPoint.{name} must be finite")
        if abs(self.x) >= HALF_PI or abs(self.y) >= HALF_PI:
            raise ChartError(
                f"ChartPoint ({self.x}, {self.y}) outside the open chart domain"
            )


@dataclass(frozen=True)
class Jet1:
    """First-order jet: a chart point plus the slopes dy/dx and dv/dx."""

    base: ChartPoint
    y_x: float
    v_x: float

    def __post_init__(self):
        if not (math.isfinite(self.y_x) and math.isfinite(self.v_x)):
            raise ChartError("Jet1 slopes must be finite")

    @property
    def x(self) -> float:
        return self.base.x

    @property
    def y(self) -> float:
        return self.base.y

    @property
    def v(self) -> float:
        return self.base.v


@dataclass(frozen=True)
class Jet2:
    """Second-order jet: a Jet1 plus d2y/dx2 and d2v/dx2."""

    jet1: Jet1
    y_xx: float
    v_xx: float

    def __post_init__(self):
        if not (math.isfinite(self.y_xx) and math.isfinite(self.v_xx)):
            raise ChartError("Jet2 curvatures must be finite")

    @property
    def x(self) -> float:
        return self.jet1.x

    @property
    def y(self) -> float:
        return self.jet1.y

    @property
    def v(self) -> float:
        return self.jet1.v

    @property
    def y_x(self) -> float:
        return self.jet1.y_x

    @property
    def v_x(self) -> float:
        return self.jet1.v_x


def jet1(x: float, y: float, v: float, y_x: float, v_x: float) -> Jet1:
    """Convenience constructor from five plain numbers."""
    return Jet1(ChartPoint(x, y, v), y_x, v_x)


def jet2(x, y, v, y_x, v_x, y_xx, v_xx) -> Jet2:
    return Jet2(jet1(x, y, v, y_x, v_x), y_xx, v_xx)


def ambient_coords(x, y, v):
    """The four embedding components; dual-capable in all three angles."""
    cx, sx = jetcalc.cos(x), jetcalc.sin(x)
    cy, sy = jetcalc.cos(y), jetcalc.sin(y)
    cv, sv = jetcalc.cos(v), jetcalc.sin(v)
    return (cx * cy * cv, cx * cy * sv, cx * sy, sx)


def embed(p: ChartPoint) -> np.ndarray:
    """Embed a chart point as a (4,) array; it has unit norm (a trig identity)."""
    return np.array(ambient_coords(p.x, p.y, p.v))


def arc_speed(x, y, y_x, v_x):
    """The arclength integrand sqrt(1 + cos^2x y_x^2 + cos^2x cos^2y v_x^2).

    Dual-capable; the prolongation and Euler-Lagrange machinery
    differentiates this exact function.  Note it does not depend on v,
    which is the source of the conserved charge.
    """
    cx = jetcalc.cos(x)
    cy = jetcalc.cos(y)
    return jetcalc.sqrt(1.0 + cx * cx * y_x * y_x + cx * cx * cy * cy * v_x * v_x)


def lagrangian(j: Jet1 | JetColumns):
    """Arclength integrand at a first-order jet (an array over JetColumns); always >= 1."""
    return arc_speed(j.x, j.y, j.y_x, j.v_x)


class JetColumns(NamedTuple):
    """n chart points or jets held as one numpy column per jet slot.

    It stands in for a ChartPoint, Jet1 or Jet2 in the coordinate-generic
    functions (the symmetry residuals, the integrand, the charge, omega'),
    which read only the slot values, so that one array-valued pass
    evaluates all n samples.  Slots a sample does not fix hold 0.0.
    """

    x: np.ndarray
    y: np.ndarray
    v: np.ndarray | float
    y_x: np.ndarray | float = 0.0
    v_x: np.ndarray | float = 0.0
    y_xx: np.ndarray | float = 0.0
    v_xx: np.ndarray | float = 0.0


def domain_columns(n: int, margin: float = DEFAULT_MARGIN, seed: int = 0) -> JetColumns:
    """n pseudo-random chart points with |x|, |y| <= pi/2 - margin, as columns.

    Deterministic: the same (n, margin, seed) always yields the same points.
    """
    if not (0.0 < margin < HALF_PI):
        raise ValueError(f"margin must lie in (0, pi/2), got {margin}")
    if n < 1:
        raise ValueError(f"need n >= 1 points, got {n}")
    rng = np.random.default_rng(seed)
    lim = HALF_PI - margin
    xs = rng.uniform(-lim, lim, n)
    ys = rng.uniform(-lim, lim, n)
    vs = rng.uniform(0.0, 2.0 * math.pi, n)
    return JetColumns(xs, ys, vs)


def sample_domain(n: int, margin: float = DEFAULT_MARGIN, seed: int = 0) -> list[ChartPoint]:
    """The points of :func:`domain_columns` as ChartPoints."""
    c = domain_columns(n, margin, seed)
    return [ChartPoint(*row) for row in zip(*(a.tolist() for a in c[:3]))]


def jet_columns(
    n: int,
    margin: float = DEFAULT_MARGIN,
    seed: int = 0,
    max_slope: float = 2.0,
) -> JetColumns:
    """n pseudo-random jets over domain_columns with slopes in [-max_slope, max_slope]."""
    c = domain_columns(n, margin, seed)
    rng = np.random.default_rng(seed + 0x9E3779B9)
    slopes = rng.uniform(-max_slope, max_slope, (n, 2))
    return c._replace(y_x=slopes[:, 0], v_x=slopes[:, 1])
