"""Canonical coordinates of the third generator and the order reduction.

omega = cos x cos y is invariant along chi3 = (sin y, -tan x cos y, 0);
tau = arctan(cot x sin y) translates at unit rate along the closed-form
one-parameter orbit.  In these coordinates the collapsed second-order
equation drops to a first-order relation between omega'(tau) and a
constant alpha; this module inverts that relation for alpha along an
integrated geodesic and checks that alpha stays constant.  One directional
pass of (omega, tau) per trajectory gives both coordinates and omega', and
one mask excludes the rows where sin x is too small to square, omega is
within 1e-4 of 1, |tan tau| < 1e-6, or tau is stationary along the curve
(d tau = 0, or omega' overflows).  A non-finite value is never an
exclusion: a nan alpha at an admissible row fails the constancy test.

Branch conventions: tau is reported as a principal value, and the
closed-form orbit parametrizes the integral curve of (-sin y,
tan x cos y) — i.e. the generator with reversed parameter — while tau
still advances by +lambda along it.  Comparisons of tau across the orbit
therefore wrap mod pi (tau jumps by pi when the orbit crosses x = 0).
"""

from __future__ import annotations

import math

import numpy as np

from . import geodesics, jetcalc
from .geodesics import Trajectory
from .jetcalc import arcsin, arctan, atan2, cos, directional, power, sec_tan, sin, tan


class BranchExit(RuntimeError):
    """The closed-form orbit left its principal branches."""

    def __init__(self, lam: float):
        self.lam = lam
        super().__init__(f"flow left the principal branch at lambda = {lam:.6g}")


def omega_coordinate(x, y):
    """The invariant coordinate cos x cos y; dual-capable."""
    return cos(x) * cos(y)


def tau_coordinate(x, y):
    """The translation coordinate arctan(cot x sin y); dual-capable.

    Defined only where tau_defined(x) holds; callers test that first.  At
    x = 0 a dual evaluation raises DomainError (jetcalc's division guard),
    but a float one raises ZeroDivisionError and an array one divides by
    zero.
    """
    return arctan(cos(x) / sin(x) * sin(y))


def tau_defined(x):
    """True (per element) where tau_coordinate's dual evaluation is defined:
    cot x divides by sin x, which jetcalc's division guard admits only
    where it is squarable."""
    return jetcalc.squarable(np.sin(x))


def global_flow(x, y, lam):
    """Closed-form one-parameter orbit through (x, y).

    X = arcsin(sin x cos lam - cos x sin y sin lam)
    Y = arctan(tan y cos lam + tan x sec y sin lam)

    Valid for any lambda while the arcsin argument stays strictly inside
    (-1, 1).  On the open chart its magnitude is bounded by
    sqrt(1 - omega^2) < 1, but in floats it rounds to 1 where omega is
    below about 1.05e-8, next to a chart pole: at lambda = 0 the argument
    is sin x, which rounds to +-1 within about 1.05e-8 of x = +-pi/2.
    BranchExit fires there, as it does at or beyond the poles; the image
    arcsin(+-1) = +-pi/2 would lie off the chart.  Dual-capable in all
    three arguments, and array-valued over arrays of points (BranchExit
    names the first lambda that leaves the branch, in row-major order).

    The arguments broadcast as numpy does: a (k, n) lambda against (n,)
    points gives k orbits of each point in one call, row r equal bitwise to
    the call at row r's lambda, with the point's sin x, cos x, sin y and
    tan x formed once for all k, and its sec y and tan y from one
    jetcalc.sec_tan, which forms cos y once.  suites.suite_flow so
    takes the orbits by lambda1 and by lambda1 + lambda2 in one call, and
    then the orbit of their (X, Y) image by lambda2; an exit on the
    lambda1 + lambda2 orbit is therefore raised before one on the
    (X, Y, lambda2) orbit.  Neither can happen at the 0.1 rad margin.
    """
    s = sin(x) * cos(lam) - cos(x) * sin(y) * sin(lam)
    off = np.abs(jetcalc.real_value(s)) >= 1.0
    if np.any(off):
        lams = np.broadcast_to(jetcalc.real_value(lam), np.shape(off))
        raise BranchExit(float(lams.flat[np.argmax(off)]))
    X = arcsin(s)
    sec_y, tan_y = sec_tan(y, "tan")
    Y = arctan(tan_y * cos(lam) + tan(x) * sec_y * sin(lam))
    return X, Y


def wrap_mod_pi(delta):
    """Fold an angle difference (or an array of them) into (-pi/2, pi/2]; tau lives mod pi."""
    return delta - math.pi * np.round(delta / math.pi)


def _tan(t):
    """math.tan, per element of an array.  Not jetcalc.tan: tau = arctan(...)
    never sits on a pole, but that guard (|cos| < 1e-12) fires for 0 < |x| < 1e-12."""
    return jetcalc._map(math.tan, t)


def _alpha(tau, omega, tan_tau, w_prime, k):
    """alpha from the reduced first-order relation at each admissible sample:

        alpha = S * (1 + R * cos^2(psi - theta)),
        S = omega^2 cos^2 tau + sin^2 tau,  R = k/omega^2 - 1,
        theta = atan2(omega, tan tau),  psi = arctan(omega' / (1 - omega^2))

    cos^2 is even, so alpha is the same on both branches of the forward
    relation (and under mod-pi shifts of either angle): the inversion
    takes no branch.
    """
    S = omega * omega * power(cos(tau), 2) + power(sin(tau), 2)
    R = k / (omega * omega) - 1.0
    theta = atan2(omega, tan_tau)
    psi = arctan(w_prime / (1.0 - omega * omega))
    return S * (1.0 + R * power(cos(psi - theta), 2))


def s2_residual(x, y, y_x, y_xx):
    """Residual of the 2-sphere geodesic equation; dual-capable.

        y_xx - 2 y_x tan x - y_x^3 sin x cos x
    """
    return y_xx - 2.0 * y_x * tan(x) - power(y_x, 3) * sin(x) * cos(x)


# Admissibility guards for the alpha pipeline: the inversion composes
# arctan/arccos near their sensitive ranges, so samples where omega is
# within OMEGA_GUARD of 1 (psi ill-conditioned) or tau within TAU_GUARD of
# a multiple of pi (theta ill-conditioned) are excluded and counted.
OMEGA_GUARD = 1e-4
TAU_GUARD = 1e-6


def alpha_series(traj: Trajectory, k) -> tuple[np.ndarray, np.ndarray]:
    """alpha at every admissible trajectory sample, and each one's row.

    One directional pass of (omega, tau) along (1, y_x) gives both
    coordinates and omega' = d omega / d tau.  A sample is excluded only
    when sin x is too small to square (tau_defined fails: tau is undefined
    at x = 0, and its derivative divides by sin^2 x), omega is within
    OMEGA_GUARD of 1, |tan tau| < TAU_GUARD, or tau is stationary along
    the curve: d tau is exactly 0, or omega' overflows.  Every other row
    is admissible, so a nan omega, tau or omega' gives a nan alpha, which
    the caller sees.  The rows are in sample order.
    """
    c = traj.columns
    rows = np.flatnonzero(tau_defined(c.x))
    # omega' overflows where tau is nearly stationary; the mask drops those rows
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        (omega, tau), (d_omega, d_tau) = directional(
            lambda x, y: (omega_coordinate(x, y), tau_coordinate(x, y)),
            (c.x[rows], c.y[rows]), (1.0, c.y_x[rows]))
        w_prime = np.divide(d_omega, d_tau, out=np.full(d_tau.shape, np.inf), where=d_tau != 0.0)
    tan_tau = _tan(tau)
    ok = ~((1.0 - omega < OMEGA_GUARD) | (np.abs(tan_tau) < TAU_GUARD) | np.isinf(w_prime))
    return _alpha(tau[ok], omega[ok], tan_tau[ok], w_prime[ok], k), rows[ok]


def reduction_report(traj: Trajectory) -> dict:
    """Map a trajectory through the reduction and test alpha-constancy,
    at the k that geodesics.infer_k gives for its first sample.

    alpha is branch-insensitive, so one series is computed per trajectory
    and the reported branch is always '+'.  Returns the JSON-ready report;
    with no admissible sample, or a non-finite alpha at one, alpha_mean
    and alpha_rel_dev are None and alpha_reason says why (naming the first
    such row).
    """
    k = float(geodesics.infer_k(traj.jet(0)))
    alphas, rows = alpha_series(traj, k)
    excluded = len(traj) - rows.size
    bad = np.flatnonzero(~np.isfinite(alphas))
    report = {"k": k, "branch": "+", "alpha_mean": None, "alpha_rel_dev": None,
              "samples": int(len(alphas)), "excluded_rows": int(excluded)}
    if len(alphas) == 0:
        report["alpha_reason"] = f"no admissible sample: all {excluded} rows excluded"
    elif bad.size:
        row = int(rows[bad[0]])
        report["alpha_reason"] = (f"alpha is {alphas[bad[0]]} at admissible row {row}"
                                  f" (x = {float(traj.x[row])!r})")
    else:
        mean = float(np.mean(alphas))
        scale = abs(mean) if mean != 0.0 else 1.0
        report["alpha_mean"] = mean
        report["alpha_rel_dev"] = float((np.max(alphas) - np.min(alphas)) / scale)
    return report
