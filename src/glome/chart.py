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
from typing import NamedTuple

import numpy as np

from . import jetcalc

HALF_PI = math.pi / 2.0

DEFAULT_MARGIN = 0.1  # rad; keeps |tan x|, |sec y| below ~15 when sampling


class ChartError(ValueError):
    """A chart point or jet fails validation (non-finite or off the open chart)."""


class JetColumns(NamedTuple):
    """n chart points or jets held as one numpy column per jet slot.

    The coordinate-generic functions (the symmetry residuals, the
    integrand, the charge, omega') read only the slot values, so one
    array-valued pass evaluates all n samples.  Slots a sample does not
    fix hold 0.0.  With a float in every slot it is one chart point or
    jet: :func:`jet1` and :func:`jet2` build those, validated.
    """

    x: np.ndarray | float
    y: np.ndarray | float
    v: np.ndarray | float
    y_x: np.ndarray | float = 0.0
    v_x: np.ndarray | float = 0.0
    y_xx: np.ndarray | float = 0.0
    v_xx: np.ndarray | float = 0.0


def jet1(x, y, v, y_x, v_x) -> JetColumns:
    """A validated chart point (zero slopes) or first-order jet from five
    plain numbers, as float-valued JetColumns.

    The open chart is |x| < pi/2, |y| < pi/2 with v any real; every slot
    must be finite.
    """
    x, y, v, y_x, v_x = float(x), float(y), float(v), float(y_x), float(v_x)
    for name, value in (("x", x), ("y", y), ("v", v)):
        if not math.isfinite(value):
            raise ChartError(f"{name} must be finite, got {value}")
    if abs(x) >= HALF_PI or abs(y) >= HALF_PI:
        raise ChartError(f"(x, y) = ({x}, {y}) lies outside the open chart |x|, |y| < pi/2")
    if not (math.isfinite(y_x) and math.isfinite(v_x)):
        raise ChartError(f"slopes (y_x, v_x) = ({y_x}, {v_x}) must be finite")
    return JetColumns(x, y, v, y_x, v_x)


def jet2(x, y, v, y_x, v_x, y_xx, v_xx) -> JetColumns:
    """A validated second-order jet from seven plain numbers, as float-valued
    JetColumns (the form prolong2_apply reads)."""
    j = jet1(x, y, v, y_x, v_x)
    if not (math.isfinite(y_xx) and math.isfinite(v_xx)):
        raise ChartError(f"curvatures (y_xx, v_xx) = ({y_xx}, {v_xx}) must be finite")
    return j._replace(y_xx=float(y_xx), v_xx=float(v_xx))


def ambient_coords(x, y, v):
    """The four embedding components; dual-capable in all three angles."""
    cx, sx = jetcalc.cos(x), jetcalc.sin(x)
    cy, sy = jetcalc.cos(y), jetcalc.sin(y)
    cv, sv = jetcalc.cos(v), jetcalc.sin(v)
    return (cx * cy * cv, cx * cy * sv, cx * sy, sx)


def arc_speed(x, y, y_x, v_x):
    """The arclength integrand sqrt(1 + cos^2x y_x^2 + cos^2x cos^2y v_x^2).

    Dual-capable; the prolongation and Euler-Lagrange machinery
    differentiates this exact function.  Note it does not depend on v,
    which is the source of the conserved charge.
    """
    cx = jetcalc.cos(x)
    cy = jetcalc.cos(y)
    ccx = cx * cx
    return jetcalc.sqrt(1.0 + ccx * y_x * y_x + ccx * cy * cy * v_x * v_x)


def lagrangian(j: JetColumns):
    """Arclength integrand at a first-order jet (an array over n columns); always >= 1."""
    return arc_speed(j.x, j.y, j.y_x, j.v_x)


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


def sample_domain(n: int, margin: float = DEFAULT_MARGIN, seed: int = 0) -> list[JetColumns]:
    """The points of :func:`domain_columns`, one float JetColumns each."""
    c = domain_columns(n, margin, seed)
    return [JetColumns(*row) for row in zip(*(a.tolist() for a in c[:3]))]


def jet_columns(n: int, margin: float = DEFAULT_MARGIN, seed: int = 0) -> JetColumns:
    """n pseudo-random jets over domain_columns with slopes y_x, v_x in [-2, 2]."""
    c = domain_columns(n, margin, seed)
    rng = np.random.default_rng(seed + 0x9E3779B9)
    slopes = rng.uniform(-2.0, 2.0, (n, 2))
    return c._replace(y_x=slopes[:, 0], v_x=slopes[:, 1])
