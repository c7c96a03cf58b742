"""Oracles that the tests check glome against and glome itself does not
call: the two Euler-Lagrange expressions on second-order jets, the forward
reduced relation omega'(tau) from alpha, sums and scalar multiples of
vector fields, and the gradient taken one dual pass per argument; and the
test of whether numpy's sin and cos round like the platform's libm, which
the tests of pinned bits depend on."""

import math

import numpy as np

from glome import chart
from glome import reduction as red
from glome import symmetries as sym
from glome.jetcalc import DomainError, DualScalar, directional


def numpy_trig_is_math() -> bool:
    draws = np.random.default_rng(0).uniform(-2.0, 2.0, 20000)
    return all(np.array_equal(f(draws), np.array([g(v) for v in draws]))
               for f, g in ((np.sin, math.sin), (np.cos, math.cos)))


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


def gradn(f, args):
    """Gradient of a scalar function of ``len(args)`` reals, one dual pass
    per argument, seeded with 1.0 there and 0.0 elsewhere.

    Exact to machine precision for compositions of the supported
    elementary functions.  Domain failures are re-raised with the
    evaluation point attached; for array arguments, with the index the
    failure names and the point at that index.
    """
    n = len(args)
    out = []
    try:
        for i in range(n):
            seeded = tuple(
                DualScalar(a, 1.0 if j == i else 0.0) for j, a in enumerate(args)
            )
            result = f(*seeded)
            out.append(result.derivative if isinstance(result, DualScalar) else 0.0)
    except DomainError as err:
        if any(isinstance(a, DualScalar) for a in args):
            raise
        if err.index is None:
            raise DomainError(
                err.func, err.argument, f"at evaluation point {tuple(args)!r}"
            ) from err
        point = tuple(float(a[err.index]) for a in np.broadcast_arrays(*args))
        raise DomainError(
            err.func, err.argument,
            f"at evaluation point {point!r}, index {err.index}", err.index,
        ) from err
    return tuple(out)
