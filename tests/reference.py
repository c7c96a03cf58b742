"""Oracles that the tests check glome against and glome itself does not
call: the two Euler-Lagrange expressions on second-order jets, the
Euler-Lagrange kernel frozen as it was first written and the geodesic
equation from the Christoffel symbols of the chart metric, omega'(tau) and
the alpha inversion at one sample at a time, the forward reduced relation
omega'(tau) from alpha, vector fields built from and read as three
component functions and their sums and scalar multiples, the gradient
taken one dual pass per argument (and, for a tuple-valued function, per
component), the variational criterion's residual of one field at a time,
the ambient position, unit tangent and speed of the curve through one jet
at a time, and the second prolongation that evaluates the first one three
times; jetcalc's tan and sec as first written, each apart; the six generators
as first written, each forming its own trigonometric factors, and their
passes one generator at a time; the plane of R^4 that each generator
rotates, and the bracket table derived from those rotations; the k
oracle's plain sweep of every grid row, and trajectory rows that carry
chosen collapsed-equation values; and the test of whether numpy's sin and
cos round like the platform's libm, which the tests of pinned bits
depend on."""

import math
from typing import Callable

import numpy as np

from glome import chart, geodesics, jetcalc
from glome import reduction as red
from glome.jetcalc import (_POLE_TOL, DomainError, DualScalar, _guard, _map, arctan, atan2, cos,
                           directional, power, sin)
from glome.symmetries import _Field, _prolong1_values, _variational


K_GRID = np.arange(0.0, 1.0 + 0.5e-4, 1e-4)


def plain_k_sweep(e0, e1) -> float:
    """The k oracle as first written: max |E| at all 10,001 grid rows in one
    (10001, n) block, and the first grid k where it is least."""
    worst = np.max(np.abs(e0[None, :] + K_GRID[:, None] * e1[None, :]), axis=1)
    return float(K_GRID[int(np.argmin(worst))])


E1_BOUND = 2.0**-27  # the largest |E(1)| that rows_with_collapsed_E can carry


def rows_with_collapsed_E(E0, E1):
    """A Trajectory whose collapsed E is E0 at k = 0 and E1 at k = 1, row by row.

    Its rows sit at x = 0, where sin x = 0 and cos x = sec x = 1, with
    y_x = 0, y = E1 and y_xx = E0: for |y| <= E1_BOUND, sin y = y and
    cos y = 1 in floats, so E(k) is y_xx (1 - k) + k y, which rounds to
    y_xx at k = 0 and to y at k = 1.
    """
    E0, E1 = (np.asarray(c, dtype=float) for c in (E0, E1))
    samples = np.zeros((E0.size, 5))
    samples[:, 1] = E1
    return geodesics.Trajectory(samples, np.column_stack([E0, np.zeros(E0.size)]))


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


def _arc_speed(x, y, y_x, v_x):
    """chart.arc_speed as first written: cos^2 x is formed in each term."""
    cx = jetcalc.cos(x)
    cy = jetcalc.cos(y)
    return jetcalc.sqrt(1.0 + cx * cx * y_x * y_x + cx * cx * cy * cy * v_x * v_x)


_INNER = np.eye(4)[:, 1:]


def curvatures(x, y, y_x, v_x):
    """(y_xx, v_xx, det) as geodesics._curvatures first computed them, with
    its own copy of the integrand: any faster form of the kernel must
    repeat these floating-point operations bitwise."""
    shape = np.shape(y)
    outer = np.zeros((4, 3, 1) + shape)  # argument, outer direction, (inner), batch
    outer[0, 0] = 1.0
    outer[1, 0] = y_x
    outer[2, 1] = 1.0
    outer[3, 2] = 1.0
    inner = _INNER.reshape((4, 3) + (1,) * len(shape))
    partials, mixed = directional(lambda *a: directional(_arc_speed, a, inner)[1],
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


def christoffel_curvatures(x, y, y_x, v_x, digits=40):
    """(y_xx, v_xx) of the geodesic through a state, parametrized by x, as
    mpmath numbers at ``digits`` significant digits.

    The chart metric is dx^2 + cos^2x dy^2 + cos^2x cos^2y dv^2; with
    A^i = -Gamma^i_ab q'^a q'^b along q' = (1, y_x, v_x), a geodesic in the
    parameter x obeys y'' = A^y - y' A^x and v'' = A^v - v' A^x, where

        A^x = -sin x cos x (y'^2 + cos^2y v'^2)
        A^y = 2 tan x y' - sin y cos y v'^2
        A^v = 2 tan x v' + 2 tan y y' v'

    No dual number and no code of glome enters.
    """
    import mpmath

    with mpmath.workdps(digits):
        x, y, y_x, v_x = (mpmath.mpf(float(a)) for a in (x, y, y_x, v_x))
        cy = mpmath.cos(y)
        a_x = -mpmath.sin(x) * mpmath.cos(x) * (y_x**2 + cy**2 * v_x**2)
        a_y = 2 * mpmath.tan(x) * y_x - mpmath.sin(y) * cy * v_x**2
        a_v = 2 * mpmath.tan(x) * v_x + 2 * mpmath.tan(y) * y_x * v_x
        return a_y - y_x * a_x, a_v - v_x * a_x


class InversionDomain(ValueError):
    """A sample cannot be inverted for alpha (degenerate or out of domain)."""


def omega_prime(j: chart.JetColumns):
    """d(omega)/d(tau) along the curve a jet represents.

    Chain rule through x: both coordinate differentials are taken along
    (1, y_x).  Raises InversionDomain where tau is stationary; over
    JetColumns the result is an array with NaN at those samples.
    """
    _, (d_omega, d_tau) = directional(lambda x, y: (red.omega_coordinate(x, y), red.tau_coordinate(x, y)),
                                      (j.x, j.y), (1.0, j.y_x))
    if isinstance(d_tau, np.ndarray):
        return np.divide(d_omega, d_tau, out=np.full(d_tau.shape, np.nan), where=d_tau != 0.0)
    if d_tau == 0.0:
        raise InversionDomain("tau is stationary along the jet; omega'(tau) diverges")
    return d_omega / d_tau


def _sample_terms(tau, omega, k):
    """S = omega^2 cos^2 tau + sin^2 tau, R = k/omega^2 - 1 and
    theta = atan2(omega, tan tau) of the reduced relation, per sample.

    Raises InversionDomain unless omega lies strictly inside (0, 1) (at
    every element of an array).
    """
    if not np.all((0.0 < omega) & (omega < 1.0)):
        raise InversionDomain(f"omega must lie strictly inside (0, 1), got {omega}")
    S = omega * omega * power(cos(tau), 2) + power(sin(tau), 2)
    R = float(k) / (omega * omega) - 1.0
    theta = atan2(omega, red._tan(tau))
    return S, R, theta


def alpha_from_sample(tau, omega, omega_prime, k):
    """Invert the reduced first-order relation for alpha at one sample
    (or at each element of equal-shape arrays).

    With S, R and theta as in _sample_terms:

        alpha = S * (1 + R * cos^2(psi - theta)),  psi = arctan(omega' / (1 - omega^2))

    cos^2 is even, so alpha is the same on both branches of the forward
    relation (and under mod-pi shifts of either angle): the inversion
    takes no branch.  The branch matters only when reproducing omega'
    from alpha.  Raises InversionDomain for an inadmissible sample (any
    element of an array) and for a non-finite float alpha; an array
    result keeps non-finite alphas for the caller to drop.
    """
    S, R, theta = _sample_terms(tau, omega, k)
    if not np.all(np.isfinite(omega_prime)):
        raise InversionDomain("omega' is not finite")
    if np.any(red._tan(tau) == 0.0):
        raise InversionDomain("tan tau vanishes; theta undefined")
    psi = arctan(omega_prime / (1.0 - omega * omega))
    alpha = S * (1.0 + R * power(cos(psi - theta), 2))
    if not isinstance(alpha, np.ndarray) and not math.isfinite(alpha):
        raise InversionDomain("alpha evaluated non-finite")
    return alpha


def reduced_omega_prime(tau: float, omega: float, alpha, k, branch="+") -> float:
    """Forward reduced relation: omega'(tau) from alpha on branch '+' or '-'.

        omega' = (1 - omega^2) tan(branch * arccos(sqrt(arg)) + theta),
        arg = (alpha - S) / (R * S)

    S, R and theta are formed here with Python's math, sharing no code
    with glome or with alpha_from_sample.  Raises InversionDomain unless
    omega lies strictly inside (0, 1), and when the arccos argument falls
    outside [0, 1].
    """
    if branch not in ("+", "-"):
        raise ValueError(f"branch must be '+' or '-', got {branch!r}")
    sgn = 1.0 if branch == "+" else -1.0
    if not 0.0 < omega < 1.0:
        raise InversionDomain(f"omega must lie strictly inside (0, 1), got {omega}")
    S = omega * omega * math.cos(tau) ** 2 + math.sin(tau) ** 2
    R = float(k) / (omega * omega) - 1.0
    theta = math.atan2(omega, math.tan(tau))
    if R * S == 0.0:
        raise InversionDomain("degenerate sample: R * S = 0")
    arg = (float(alpha) - S) / (R * S)
    if arg < -1e-12 or arg > 1.0 + 1e-12:
        raise InversionDomain(f"arccos argument {arg} outside [0, 1]")
    arg = min(1.0, max(0.0, arg))
    return (1.0 - omega * omega) * math.tan(sgn * math.acos(math.sqrt(arg)) + theta)


def field(xi, phi, eta) -> Callable:
    """The field, (x, y, v) -> (xi, phi, eta), with the three component
    functions xi, phi and eta."""
    return lambda x, y, v: (xi(x, y, v), phi(x, y, v), eta(x, y, v))


def component(V: Callable, i: int):
    """V's i-th coefficient (0 xi, 1 phi, 2 eta) as a function of (x, y, v)."""
    return lambda x, y, v: V(x, y, v)[i]


def scale(c: float, V: Callable) -> Callable:
    xi, phi, eta = (component(V, i) for i in range(3))
    return field(
        lambda x, y, v: c * xi(x, y, v),
        lambda x, y, v: c * phi(x, y, v),
        lambda x, y, v: c * eta(x, y, v),
    )


def add(X: Callable, Y: Callable) -> Callable:
    (Xxi, Xphi, Xeta), (Yxi, Yphi, Yeta) = ([component(F, i) for i in range(3)] for F in (X, Y))
    return field(
        lambda x, y, v: Xxi(x, y, v) + Yxi(x, y, v),
        lambda x, y, v: Xphi(x, y, v) + Yphi(x, y, v),
        lambda x, y, v: Xeta(x, y, v) + Yeta(x, y, v),
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


def value_and_gradn(f, args):
    """``f(*args)`` and its gradient from a plain evaluation and
    :func:`gradn`; a tuple-valued ``f`` is taken component by component,
    each with its own plain value and its own per-direction passes."""
    value = f(*args)
    if not isinstance(value, tuple):
        return value, gradn(f, args)
    parts = [lambda *a, i=i: f(*a)[i] for i in range(len(value))]
    return tuple(part(*args) for part in parts), tuple(gradn(part, args) for part in parts)


def prolong1_values(V: Callable, x, y, v, y_x, v_x):
    """The first prolongation (xi, phi, eta, phi^x, eta^x) at a jet, one
    value_and_gradn pass per coefficient."""
    p = (x, y, v)
    xi, phi, eta = (component(V, i) for i in range(3))
    xi_val, (xi_x, xi_y, xi_v) = value_and_gradn(xi, p)
    phi_val, (phi_x, phi_y, phi_v) = value_and_gradn(phi, p)
    eta_val, (eta_x, eta_y, eta_v) = value_and_gradn(eta, p)
    total_xi = xi_x + xi_y * y_x + xi_v * v_x
    phi_pr = phi_x + phi_y * y_x + phi_v * v_x - total_xi * y_x
    eta_pr = eta_x + eta_y * y_x + eta_v * v_x - total_xi * v_x
    return xi_val, phi_val, eta_val, phi_pr, eta_pr


def variational_residual(V: _Field, j: chart.JetColumns):
    """Residual of the variational-symmetry criterion at a jet.

    Applies the prolonged field to the integrand (which does not read v,
    so eta does not enter) and adds the integrand times the prolongation's
    D_x xi; zero (within tolerance) exactly when V generates a variational
    symmetry at j.  A float at one jet, an array over the samples of n columns.
    """
    return _variational(_prolong1_values(V, j.x, j.y, j.v, j.y_x, j.v_x), j)


def ambient_state(j: chart.JetColumns) -> tuple[np.ndarray, np.ndarray, float]:
    """Ambient position, unit tangent, and speed of the curve through a jet.

    The tangent is d(ambient_coords)/dx along any curve matching the jet;
    its norm equals the integrand value.
    """
    p, tangent = map(np.array, directional(chart.ambient_coords, (j.x, j.y, j.v),
                                           (1.0, j.y_x, j.v_x)))
    speed = float(np.linalg.norm(tangent))
    return p, tangent / speed, speed


def prolong2_apply(V: Callable, F, j):
    """(pr2 V)(F) at j, evaluating the first prolongation three times: once
    for its values and once for each of D_x(phi^x) and D_x(eta^x), with a
    fourth pass for D_x(xi)."""
    x, y, v, y_x, v_x = j.x, j.y, j.v, j.y_x, j.v_x
    y_xx, v_xx = j.y_xx, j.v_xx
    xi, phi, eta, phi_pr, eta_pr = prolong1_values(V, x, y, v, y_x, v_x)
    _, dxi_total = directional(component(V, 0), (x, y, v), (1.0, y_x, v_x))
    jet_args = (x, y, v, y_x, v_x)
    jet_dir = (1.0, y_x, v_x, y_xx, v_xx)
    _, dx_phi_pr = directional(lambda *a: prolong1_values(V, *a)[3], jet_args, jet_dir)
    _, dx_eta_pr = directional(lambda *a: prolong1_values(V, *a)[4], jet_args, jet_dir)
    phi_pr2 = dx_phi_pr - y_xx * dxi_total
    eta_pr2 = dx_eta_pr - v_xx * dxi_total
    coeffs7 = (xi, phi, eta, phi_pr, eta_pr, phi_pr2, eta_pr2)
    return directional(F, (x, y, v, y_x, v_x, y_xx, v_xx), coeffs7)[1]


# jetcalc's tan and sec rules as first written, each apart: sec's dual rule
# takes its own tan of the dual's value.  jetcalc.sec_tan forms both halves
# in one pass, and the tests check it against these bitwise.
def tan(u):
    if isinstance(u, DualScalar):
        c = cos(u.value)
        return DualScalar(_tan(u.value, c), u.derivative / (c * c))
    return _tan(u, cos(u))


def _tan(u, c):
    """tan u given c = cos u, which a dual's rule needs for its derivative too."""
    if isinstance(u, DualScalar):
        return tan(u)
    _guard(abs(c) < _POLE_TOL, "tan", u, "cosine of the argument vanishes")
    return _map(math.tan, u)


def sec(u):
    if isinstance(u, DualScalar):
        s = sec(u.value)
        return DualScalar(s, s * tan(u.value) * u.derivative)
    c = cos(u)
    _guard(abs(c) < _POLE_TOL, "sec", u, "cosine of the argument vanishes")
    return 1.0 / c


# The generators as first written: each forms its own factors, and every
# product keeps the operand order of its coefficient's formula.
def _chi1(x, y, v):
    c, t = cos(v), tan(x)
    return c * cos(y), c * t * sin(y), sin(v) * t * sec(y)


def _chi2(x, y, v):
    s, t = sin(v), tan(x)
    return s * cos(y), s * t * sin(y), -cos(v) * t * sec(y)


def _chi3(x, y, v):
    return sin(y), -tan(x) * cos(y), 0.0


def _chi4(x, y, v):
    return 0.0, cos(v), sin(v) * tan(y)


def _chi5(x, y, v):
    return 0.0, sin(v), -cos(v) * tan(y)


def _chi6(x, y, v):
    return 0.0, 0.0, 1.0


GENERATORS = (_chi1, _chi2, _chi3, _chi4, _chi5, _chi6)


def generator_passes(x, y, v) -> list:
    """One jetcalc.value_and_gradn pass of each frozen generator in turn,
    as its (values, gradients); the first pass that fails raises."""
    return [jetcalc.value_and_gradn(F, (x, y, v)) for F in GENERATORS]


# chi_i rotates the plane (a, b) of R^4, in the order of chart.ambient_coords:
# its push-forward is the field x_a d_b - x_b d_a, every sign +.
PLANES = ((0, 3), (1, 3), (2, 3), (0, 2), (1, 2), (0, 1))


def rotation(i: int) -> np.ndarray:
    """The integer 4x4 matrix A of chi_i's rotation field A x (chi1 is i = 1)."""
    a, b = PLANES[i - 1]
    A = np.zeros((4, 4), dtype=int)
    A[b, a], A[a, b] = 1, -1
    return A


def structure_constants() -> np.ndarray:
    """c[i, j, k] with [chi_(i+1), chi_(j+1)] = sum_k c[i, j, k] chi_(k+1), from
    the 4x4 commutators: linear fields A x and B x bracket to (BA - AB) x."""
    A = [rotation(i) for i in range(1, 7)]
    c = np.zeros((6, 6, 6), dtype=int)
    for i, j in np.ndindex(6, 6):
        C = A[j] @ A[i] - A[i] @ A[j]
        c[i, j] = [C[b, a] for a, b in PLANES]  # each A_k has its +1 at (b, a) alone
        assert np.array_equal(C, np.einsum("k,kmn->mn", c[i, j], A)), "left so(4)"
    return c


def bracket_table() -> list[list[str]]:
    """The 6x6 table in suites.REFERENCE_TABLE's names: row i column j
    names [chi_i, chi_j], "zero" or a signed generator."""
    def name(row) -> str:
        if not row.any():
            return "zero"
        (k,) = np.flatnonzero(row)  # two plane rotations bracket to zero or one rotation
        return f"{'+' if row[k] > 0 else '-'}chi{k + 1}"

    return [[name(row) for row in rows] for rows in structure_constants()]
