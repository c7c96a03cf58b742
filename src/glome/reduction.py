"""Canonical coordinates of the third generator and the order reduction.

omega = cos x cos y is invariant along chi3 = (sin y, -tan x cos y, 0);
tau = arctan(cot x sin y) translates at unit rate along the closed-form
one-parameter orbit.  In these coordinates the collapsed second-order
equation drops to a first-order relation between omega'(tau) and a
constant alpha; this module evaluates the relation, inverts it for alpha
at a sample, and checks alpha-constancy along integrated geodesics.

Branch conventions: tau is reported as a principal value, and the
closed-form orbit parametrizes the integral curve of (-sin y,
tan x cos y) — i.e. the generator with reversed parameter — while tau
still advances by +lambda along it.  Comparisons of tau across the orbit
therefore wrap mod pi (tau jumps by pi when the orbit crosses x = 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import chart, jetcalc
from .geodesics import Trajectory, infer_k
from .jetcalc import arcsin, arctan, atan2, cos, directional, power, sec, sin, tan


class InversionDomain(ValueError):
    """A sample cannot be inverted for alpha (degenerate or out of domain)."""


class BranchExit(RuntimeError):
    """The closed-form orbit left its principal branches."""

    def __init__(self, lam: float, detail: str = ""):
        self.lam = lam
        msg = f"flow left the principal branch at lambda = {lam:.6g}"
        if detail:
            msg = f"{msg} ({detail})"
        super().__init__(msg)


@dataclass(frozen=True)
class CanonicalPair:
    """Canonical coordinates (tau, omega) of a chart point."""

    tau: float
    omega: float

    def __post_init__(self):
        if not (0.0 < self.omega <= 1.0):
            raise ValueError(f"omega must lie in (0, 1], got {self.omega}")


def omega_coordinate(x, y):
    """The invariant coordinate cos x cos y; dual-capable."""
    return cos(x) * cos(y)


def tau_coordinate(x, y):
    """The translation coordinate arctan(cot x sin y); dual-capable.

    Undefined at x = 0 (cot x blows up); the jetcalc division guard turns
    that into a DomainError.
    """
    return arctan(cos(x) / sin(x) * sin(y))


def canonical(x: float, y: float) -> CanonicalPair:
    """Canonical coordinates of an open-chart point with x != 0."""
    if x == 0.0:
        raise jetcalc.DomainError("cot", 0.0, "canonical coordinates undefined at x = 0")
    return CanonicalPair(tau_coordinate(x, y), omega_coordinate(x, y))


def global_flow(x, y, lam):
    """Closed-form one-parameter orbit through (x, y).

    X = arcsin(sin x cos lam - cos x sin y sin lam)
    Y = arctan(tan y cos lam + tan x sec y sin lam)

    Valid for any lambda while the arcsin argument stays strictly inside
    (-1, 1); on the open chart its magnitude is bounded by
    sqrt(1 - omega^2) < 1, so BranchExit fires only for inputs at or
    beyond the chart poles.  Dual-capable in all three arguments, and
    array-valued over arrays of points (BranchExit names the first lambda
    that leaves the branch).
    """
    s = sin(x) * cos(lam) - cos(x) * sin(y) * sin(lam)
    off = np.abs(jetcalc.real_value(s)) >= 1.0
    if np.any(off):
        lams = np.broadcast_to(jetcalc.real_value(lam), np.shape(off))
        raise BranchExit(float(lams.flat[np.argmax(off)]))
    X = arcsin(s)
    Y = arctan(tan(y) * cos(lam) + tan(x) * sec(y) * sin(lam))
    return X, Y


def wrap_mod_pi(delta):
    """Fold an angle difference (or an array of them) into (-pi/2, pi/2]; tau lives mod pi."""
    return delta - math.pi * np.round(delta / math.pi)


def flow_generator_check(x: float, y: float) -> tuple[float, float]:
    """Residuals of the orbit's defining ODE at lambda = 0.

    The closed form runs the integral curve of (sin y, -tan x cos y) with
    reversed parameter (tau still shifts by +lambda), so it satisfies
    dX/dlam = -sin Y and dY/dlam = +tan X cos Y.  Both residuals of that
    system, taken with dual-number lambda-derivatives, are returned and
    vanish up to rounding.
    """
    _, dX = directional(lambda lam: global_flow(x, y, lam)[0], (0.0,), (1.0,))
    _, dY = directional(lambda lam: global_flow(x, y, lam)[1], (0.0,), (1.0,))
    return (dX + math.sin(y), dY - math.tan(x) * math.cos(y))


def omega_prime(j: chart.Jet1 | chart.JetColumns):
    """d(omega)/d(tau) along the curve a jet represents.

    Chain rule through x: both coordinate differentials are taken along
    (1, y_x).  Raises InversionDomain where tau is stationary; over
    JetColumns the result is an array with NaN at those samples.
    """
    args = (j.x, j.y)
    direction = (1.0, j.y_x)
    _, d_omega = directional(omega_coordinate, args, direction)
    _, d_tau = directional(tau_coordinate, args, direction)
    if isinstance(d_tau, np.ndarray):
        return np.divide(d_omega, d_tau, out=np.full(d_tau.shape, np.nan), where=d_tau != 0.0)
    if d_tau == 0.0:
        raise InversionDomain("tau is stationary along the jet; omega'(tau) diverges")
    return d_omega / d_tau


def _tan(t):
    """math.tan, per element of an array.  Not jetcalc.tan: tau = arctan(...)
    never sits on a pole, but that guard (|cos| < 1e-12) fires for 0 < |x| < 1e-12."""
    return jetcalc._elementwise(math.tan, t) if isinstance(t, np.ndarray) else math.tan(t)


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
    theta = atan2(omega, _tan(tau))
    return S, R, theta


def alpha_from_sample(tau, omega, omega_prime, k):
    """Invert the reduced first-order relation for alpha at one sample
    (or at each element of equal-shape arrays).

    With S, R and theta as in _sample_terms:

        alpha = S * (1 + R * cos^2(psi - theta)),  psi = arctan(omega' / (1 - omega^2))

    cos^2 is even, so alpha is the same on both branches of the forward
    relation (and under mod-pi shifts of either angle): the inversion
    takes no branch.  The branch matters only when reproducing omega'
    from alpha, in reduced_omega_prime.  Raises InversionDomain for an
    inadmissible sample (any element of an array) and for a non-finite
    float alpha; an array result keeps non-finite alphas for the caller
    to drop.
    """
    S, R, theta = _sample_terms(tau, omega, k)
    if not np.all(np.isfinite(omega_prime)):
        raise InversionDomain("omega' is not finite")
    if np.any(_tan(tau) == 0.0):
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

    Raises InversionDomain when the arccos argument falls outside [0, 1].
    """
    if branch not in ("+", "-"):
        raise ValueError(f"branch must be '+' or '-', got {branch!r}")
    sgn = 1.0 if branch == "+" else -1.0
    S, R, theta = _sample_terms(tau, omega, k)
    if R * S == 0.0:
        raise InversionDomain("degenerate sample: R * S = 0")
    arg = (float(alpha) - S) / (R * S)
    if arg < -1e-12 or arg > 1.0 + 1e-12:
        raise InversionDomain(f"arccos argument {arg} outside [0, 1]")
    arg = min(1.0, max(0.0, arg))
    return (1.0 - omega * omega) * math.tan(sgn * math.acos(math.sqrt(arg)) + theta)


def s2_residual(x, y, y_x, y_xx):
    """Residual of the 2-sphere geodesic equation; dual-capable.

        y_xx - 2 y_x tan x - y_x^3 sin x cos x
    """
    return y_xx - 2.0 * y_x * tan(x) - power(y_x, 3) * sin(x) * cos(x)


def s2_fn(x, y, v, y_x, v_x, y_xx, v_xx):
    """The 2-sphere residual as a 7-slot jet function (for prolongations)."""
    return s2_residual(x, y, y_x, y_xx)


# Admissibility guards for the alpha pipeline: the inversion composes
# arctan/arccos near their sensitive ranges, so samples where omega is
# within OMEGA_GUARD of 1 (psi ill-conditioned) or tau within TAU_GUARD of
# a multiple of pi (theta ill-conditioned) are excluded and counted.
OMEGA_GUARD = 1e-4
TAU_GUARD = 1e-6


def alpha_series(traj: Trajectory, k) -> tuple[np.ndarray, int]:
    """alpha at every admissible trajectory sample, plus the excluded count.

    A sample is admissible when x != 0 (tau is undefined there), omega is
    not within OMEGA_GUARD of 1, tan tau is not within TAU_GUARD of 0,
    tau is not stationary, and omega' and alpha evaluate finite.  The
    alphas keep the sample order.
    """
    c = traj.columns
    rows = np.flatnonzero(c.x != 0.0)
    x, y = c.x[rows], c.y[rows]
    # for 0 < |x| < 1e-154, cot x or the square of sin x leaves the float range;
    # the non-finite values that follow fail the guards below
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        tau, omega = tau_coordinate(x, y), omega_coordinate(x, y)
        ok = (1.0 - omega >= OMEGA_GUARD) & (np.abs(_tan(tau)) >= TAU_GUARD)
        rows, tau, omega = rows[ok], tau[ok], omega[ok]
        w_prime = omega_prime(chart.JetColumns(c.x[rows], c.y[rows], 0.0, c.y_x[rows]))
    ok = np.isfinite(w_prime)
    alphas = alpha_from_sample(tau[ok], omega[ok], w_prime[ok], k)
    alphas = alphas[np.isfinite(alphas)]
    return alphas, len(traj) - alphas.size


def reduction_report(traj: Trajectory, k=None) -> dict:
    """Map a trajectory through the reduction and test alpha-constancy.

    alpha is branch-insensitive, so one series is computed per trajectory
    and the reported branch is always '+'.  Returns the JSON-ready report;
    with no admissible sample, alpha_mean and alpha_rel_dev are None and
    alpha_reason says why.
    """
    if k is None:
        k = infer_k(traj.jet(0))
    kv = float(k)
    alphas, excluded = alpha_series(traj, kv)
    report = {"k": kv, "branch": "+", "alpha_mean": None, "alpha_rel_dev": None,
              "samples": int(len(alphas)), "excluded_rows": int(excluded)}
    if len(alphas) == 0:
        report["alpha_reason"] = f"no admissible sample: all {excluded} rows excluded"
    else:
        mean = float(np.mean(alphas))
        scale = abs(mean) if mean != 0.0 else 1.0
        report["alpha_mean"] = mean
        report["alpha_rel_dev"] = float((np.max(alphas) - np.min(alphas)) / scale)
    return report
