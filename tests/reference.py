"""Single-point oracles that the tests check glome against and glome itself
does not call: the two Euler-Lagrange expressions on second-order jets,
the forward reduced relation omega'(tau) from alpha, and sums and scalar
multiples of vector fields."""

import math

from glome import chart
from glome import reduction as red
from glome import symmetries as sym
from glome.jetcalc import directional


def _L_yx(*a):
    return directional(chart.arc_speed, a, (0.0, 0.0, 1.0, 0.0))[1]


def _L_vx(*a):
    return directional(chart.arc_speed, a, (0.0, 0.0, 0.0, 1.0))[1]


def el_expression_y(x, y, v, y_x, v_x, y_xx, v_xx):
    """L_y - D_x(L_{y_x}) on second-order jets; dual-capable."""
    q = (x, y, y_x, v_x)
    _, L_y = directional(chart.arc_speed, q, (0.0, 1.0, 0.0, 0.0))
    _, total = directional(_L_yx, q, (1.0, y_x, y_xx, v_xx))
    return L_y - total


def el_expression_v(x, y, v, y_x, v_x, y_xx, v_xx):
    """L_v - D_x(L_{v_x}) on second-order jets; dual-capable (L_v = 0)."""
    q = (x, y, y_x, v_x)
    _, total = directional(_L_vx, q, (1.0, y_x, y_xx, v_xx))
    return 0.0 - total


def reduced_omega_prime(tau: float, omega: float, alpha, k, branch="+") -> float:
    """Forward reduced relation: omega'(tau) from alpha on branch '+' or '-'.

        omega' = (1 - omega^2) tan(branch * arccos(sqrt(arg)) + theta),
        arg = (alpha - S) / (R * S)

    Raises InversionDomain when the arccos argument falls outside [0, 1].
    """
    if branch not in ("+", "-"):
        raise ValueError(f"branch must be '+' or '-', got {branch!r}")
    sgn = 1.0 if branch == "+" else -1.0
    S, R, theta = red._sample_terms(tau, omega, k)
    if R * S == 0.0:
        raise red.InversionDomain("degenerate sample: R * S = 0")
    arg = (float(alpha) - S) / (R * S)
    if arg < -1e-12 or arg > 1.0 + 1e-12:
        raise red.InversionDomain(f"arccos argument {arg} outside [0, 1]")
    arg = min(1.0, max(0.0, arg))
    return (1.0 - omega * omega) * math.tan(sgn * math.acos(math.sqrt(arg)) + theta)


def scale(c: float, V: sym.VectorField3, name: str = "") -> sym.VectorField3:
    return sym.VectorField3(
        lambda x, y, v: c * V.xi(x, y, v),
        lambda x, y, v: c * V.phi(x, y, v),
        lambda x, y, v: c * V.eta(x, y, v),
        name=name or f"{c}*{V.name}",
    )


def add(X: sym.VectorField3, Y: sym.VectorField3, name: str = "") -> sym.VectorField3:
    return sym.VectorField3(
        lambda x, y, v: X.xi(x, y, v) + Y.xi(x, y, v),
        lambda x, y, v: X.phi(x, y, v) + Y.phi(x, y, v),
        lambda x, y, v: X.eta(x, y, v) + Y.eta(x, y, v),
        name=name or f"{X.name}+{Y.name}",
    )
