"""Infinitesimal symmetries of the arclength functional on the 3-sphere chart.

Provides the six generators chi_1..chi_6, first and second prolongations,
the variational-symmetry residual, the six determining-equation residuals,
Lie brackets, and numeric identification of brackets against the candidate
set {0, +/-chi_k} (the bracket table), with the closed 3-generator subsets
read off the identified table.

Vector-field coefficients are stored as evaluable functions, not
expression trees: every downstream use is a pointwise evaluation with
dual numbers from :mod:`glome.jetcalc`.

The evaluations are coordinate-generic.  A residual function given a
:class:`~glome.chart.JetColumns` of n samples in place of a ChartPoint,
Jet1 or Jet2 returns numpy arrays over the samples, and each element
equals the result for that sample alone bitwise.  The suites use that to
evaluate each check in one array-valued dual pass; bracket
identification evaluates a field and each candidate once over all its
points.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import chart, jetcalc
from .chart import Jet1, Jet2, ChartPoint
from .jetcalc import cos, sin, tan, sec, directional, gradn

Coefficient = Callable[[object, object, object], object]


class AmbiguousIdentification(RuntimeError):
    """No unique candidate passed the bracket-identification separation test."""


@dataclass(frozen=True)
class VectorField3:
    """Vector field xi d/dx + phi d/dy + eta d/dv on chart space.

    The three coefficients are functions of (x, y, v) built from jetcalc
    primitives, so they evaluate exactly with dual numbers.
    """

    xi: Coefficient
    phi: Coefficient
    eta: Coefficient
    name: str = ""

    def coefficients(self, x, y, v):
        return (self.xi(x, y, v), self.phi(x, y, v), self.eta(x, y, v))

    def at(self, p: ChartPoint):
        return self.coefficients(p.x, p.y, p.v)


@dataclass(frozen=True)
class Prolonged1:
    """The five components of the first prolongation at a specific jet."""

    xi: float
    phi: float
    eta: float
    phi_x: float
    eta_x: float


@dataclass(frozen=True)
class BracketEntry:
    identified: str  # one of "zero", "+chi1", ..., "-chi6"
    residual: float


@dataclass(frozen=True)
class BracketTable:
    """6x6 grid of identified Lie brackets with identification residuals."""

    entries: tuple  # 6 rows x 6 columns of BracketEntry

    def entry(self, i: int, j: int) -> BracketEntry:
        """1-based lookup: the bracket of generator i with generator j."""
        return self.entries[i - 1][j - 1]

    def identified_grid(self) -> list[list[str]]:
        return [[e.identified for e in row] for row in self.entries]

    def to_json_dict(self) -> dict:
        return {
            "entries": [
                [{"id": e.identified, "residual": e.residual} for e in row]
                for row in self.entries
            ]
        }


def _zero(x, y, v):
    return 0.0


def _one(x, y, v):
    return 1.0


ZERO_FIELD = VectorField3(_zero, _zero, _zero, name="0")

_CHI: tuple[VectorField3, ...] = (
    VectorField3(
        lambda x, y, v: cos(v) * cos(y),
        lambda x, y, v: cos(v) * tan(x) * sin(y),
        lambda x, y, v: sin(v) * tan(x) * sec(y),
        name="chi1",
    ),
    VectorField3(
        lambda x, y, v: sin(v) * cos(y),
        lambda x, y, v: sin(v) * tan(x) * sin(y),
        lambda x, y, v: -cos(v) * tan(x) * sec(y),
        name="chi2",
    ),
    VectorField3(
        lambda x, y, v: sin(y),
        lambda x, y, v: -tan(x) * cos(y),
        _zero,
        name="chi3",
    ),
    VectorField3(
        _zero,
        lambda x, y, v: cos(v),
        lambda x, y, v: sin(v) * tan(y),
        name="chi4",
    ),
    VectorField3(
        _zero,
        lambda x, y, v: sin(v),
        lambda x, y, v: -cos(v) * tan(y),
        name="chi5",
    ),
    VectorField3(_zero, _zero, _one, name="chi6"),
)


def chi(i: int) -> VectorField3:
    """The i-th generator (1-based); chi6 is the v-translation."""
    if not 1 <= i <= 6:
        raise ValueError(f"generator index must be 1..6, got {i}")
    return _CHI[i - 1]


def scale(c: float, V: VectorField3, name: str = "") -> VectorField3:
    return VectorField3(
        lambda x, y, v: c * V.xi(x, y, v),
        lambda x, y, v: c * V.phi(x, y, v),
        lambda x, y, v: c * V.eta(x, y, v),
        name=name or f"{c}*{V.name}",
    )


def add(X: VectorField3, Y: VectorField3, name: str = "") -> VectorField3:
    return VectorField3(
        lambda x, y, v: X.xi(x, y, v) + Y.xi(x, y, v),
        lambda x, y, v: X.phi(x, y, v) + Y.phi(x, y, v),
        lambda x, y, v: X.eta(x, y, v) + Y.eta(x, y, v),
        name=name or f"{X.name}+{Y.name}",
    )


def general_symmetry(k: Sequence[float]) -> VectorField3:
    """The 5-parameter combination sum_i k_i chi_i, i = 1..5."""
    if len(k) != 5:
        raise ValueError(f"expected 5 coefficients, got {len(k)}")
    weights = tuple(float(c) for c in k)

    def combo(getter):
        def f(x, y, v):
            total = 0.0
            for w, F in zip(weights, _CHI[:5]):
                if w != 0.0:
                    total = total + w * getter(F)(x, y, v)
            return total

        return f

    return VectorField3(
        combo(lambda F: F.xi),
        combo(lambda F: F.phi),
        combo(lambda F: F.eta),
        name="general(" + ",".join(f"{w:g}" for w in weights) + ")",
    )


def _prolong1_values(V: VectorField3, x, y, v, y_x, v_x):
    """Generic (dual-capable) first-prolongation components at a jet.

    phi^x = phi_x + phi_y y_x + phi_v v_x - (xi_x + xi_y y_x + xi_v v_x) y_x
    eta^x = eta_x + eta_y y_x + eta_v v_x - (xi_x + xi_y y_x + xi_v v_x) v_x

    The second-order jet terms cancel identically in this expansion, so
    only first partials of the coefficients appear.
    """
    p = (x, y, v)
    xi_x, xi_y, xi_v = gradn(V.xi, p)
    phi_x, phi_y, phi_v = gradn(V.phi, p)
    eta_x, eta_y, eta_v = gradn(V.eta, p)
    xi_val = V.xi(x, y, v)
    phi_val = V.phi(x, y, v)
    eta_val = V.eta(x, y, v)
    total_xi = xi_x + xi_y * y_x + xi_v * v_x
    phi_pr = phi_x + phi_y * y_x + phi_v * v_x - total_xi * y_x
    eta_pr = eta_x + eta_y * y_x + eta_v * v_x - total_xi * v_x
    return xi_val, phi_val, eta_val, phi_pr, eta_pr


def prolong1(V: VectorField3, j: Jet1) -> Prolonged1:
    """First prolongation of V evaluated at a first-order jet."""
    return Prolonged1(*_prolong1_values(V, j.x, j.y, j.v, j.y_x, j.v_x))


def _lagrangian5(x, y, v, y_x, v_x):
    # five-slot view of the integrand; the v slot is inert by construction
    return chart.arc_speed(x, y, y_x, v_x)


def variational_residual(V: VectorField3, j: Jet1 | chart.JetColumns):
    """Residual of the variational-symmetry criterion at a jet.

    Applies the prolonged field to the integrand and adds the integrand
    times the total x-derivative of xi; zero (within tolerance) exactly
    when V generates a variational symmetry at j.  A float at a Jet1, an
    array over the samples of a JetColumns.
    """
    xi, phi, eta, phi_pr, eta_pr = _prolong1_values(V, j.x, j.y, j.v, j.y_x, j.v_x)
    args = (j.x, j.y, j.v, j.y_x, j.v_x)
    lam, applied = directional(_lagrangian5, args, (xi, phi, eta, phi_pr, eta_pr))
    _, dxi_total = directional(V.xi, (j.x, j.y, j.v), (1.0, j.y_x, j.v_x))
    return applied + lam * dxi_total


def determining_residuals(V: VectorField3, p: ChartPoint | chart.JetColumns):
    """The six monomial-coefficient residuals of the symmetry condition.

    Returns the left sides (floats at a ChartPoint; arrays over the
    samples, or a constant float, at a JetColumns), in order:
      (a) xi_x
      (b) phi_x cos^2 x + xi_y
      (c) eta_x cos^2 y cos^2 x + xi_v
      (d) -xi cos x sin x + phi_y cos^2 x
      (e) -xi sin x cos y - phi cos x sin y + eta_v cos x cos y
      (f) eta_y cos^2 x cos^2 y + phi_v cos^2 x
    """
    x, y, v = p.x, p.y, p.v
    point = (x, y, v)
    xi_x, xi_y, xi_v = gradn(V.xi, point)
    phi_x, phi_y, phi_v = gradn(V.phi, point)
    eta_x, eta_y, eta_v = gradn(V.eta, point)
    xi_val, phi_val, _ = V.coefficients(x, y, v)
    cx, sx = cos(x), sin(x)
    cy, sy = cos(y), sin(y)
    return (
        xi_x,
        phi_x * cx * cx + xi_y,
        eta_x * cy * cy * cx * cx + xi_v,
        -xi_val * cx * sx + phi_y * cx * cx,
        -xi_val * sx * cy - phi_val * cx * sy + eta_v * cx * cy,
        eta_y * cx * cx * cy * cy + phi_v * cx * cx,
    )


def lie_bracket(X: VectorField3, Y: VectorField3) -> VectorField3:
    """Commutator [X, Y]: coefficients evaluate the pointwise formula

        [X,Y]^i = sum_j (X^j dY^i/dx_j - Y^j dX^i/dx_j)

    with all partials taken by dual numbers at each evaluation point.
    """

    def component(get):
        def f(x, y, v):
            p = (x, y, v)
            Xc = X.coefficients(x, y, v)
            Yc = Y.coefficients(x, y, v)
            dY = gradn(get(Y), p)
            dX = gradn(get(X), p)
            total = 0.0
            for Xj, Yj, dYj, dXj in zip(Xc, Yc, dY, dX):
                total = total + Xj * dYj - Yj * dXj
            return total

        return f

    return VectorField3(
        component(lambda F: F.xi),
        component(lambda F: F.phi),
        component(lambda F: F.eta),
        name=f"[{X.name},{Y.name}]",
    )


def _candidate_fields():
    cands = [("zero", ZERO_FIELD)]
    for i in range(1, 7):
        cands.append((f"+chi{i}", chi(i)))
        cands.append((f"-chi{i}", scale(-1.0, chi(i), name=f"-chi{i}")))
    return cands


def _values(F: VectorField3, x, y, v) -> np.ndarray:
    """F's coefficients at n points as an (n, 3) array, one row per point."""
    return np.stack([np.broadcast_to(c, x.shape) for c in F.coefficients(x, y, v)], axis=1)


def identify_field(
    W: VectorField3,
    points: Iterable[ChartPoint],
    tol: float,
) -> BracketEntry:
    """Match a field against {0, +/-chi_k} over sample points.

    Selection is least-squares over all samples and components; the
    reported residual is the max pointwise deviation from the winner.
    Identification requires the winner's residual < tol while every other
    candidate deviates by more than 10*tol somewhere.  W and each
    candidate are evaluated once, over all points together.
    """
    x, y, v = (np.array(c) for c in zip(*((p.x, p.y, p.v) for p in points)))
    return _match(W.name, _values(W, x, y, v), _candidate_values(x, y, v), tol)


def _candidate_values(x, y, v) -> list[tuple[str, np.ndarray]]:
    """Each candidate's label and its (n, 3) values at the points."""
    return [(label, _values(C, x, y, v)) for label, C in _candidate_fields()]


def _match(name: str, Wvals: np.ndarray, candidates, tol: float) -> BracketEntry:
    """identify_field's rule for the field ``name`` with values ``Wvals``."""
    best = None
    deviations = []
    for label, Cvals in candidates:
        diff = Wvals - Cvals
        ssq = float(np.sum(diff * diff))
        maxdev = float(np.max(np.abs(diff)))
        deviations.append((label, ssq, maxdev))
        if best is None or ssq < best[1]:
            best = (label, ssq, maxdev)
    label, _, residual = best
    if residual >= tol:
        raise AmbiguousIdentification(
            f"no candidate matches {name}: best {label} deviates by {residual:g}"
        )
    for other, _, maxdev in deviations:
        if other != label and maxdev <= 10.0 * tol:
            raise AmbiguousIdentification(
                f"{name} matches both {label} and {other} within {10*tol:g}"
            )
    return BracketEntry(label, residual)


def bracket_table(
    samples: int = 50,
    tol: float = 1e-8,
    seed: int = 7,
    margin: float = chart.DEFAULT_MARGIN,
) -> BracketTable:
    """Identify all 36 pairwise brackets of chi_1..chi_6 by identify_field's
    rule, at the points of chart.sample_domain; the 13 candidates are
    evaluated once for all 36.

    Deterministic for fixed (samples, tol, seed, margin).
    """
    if samples < 10:
        raise ValueError(f"need at least 10 sample points, got {samples}")
    p = chart.domain_columns(samples, margin, seed)
    candidates = _candidate_values(p.x, p.y, p.v)
    rows = []
    for i in range(1, 7):
        row = []
        for jdx in range(1, 7):
            W = lie_bracket(chi(i), chi(jdx))
            row.append(_match(W.name, _values(W, p.x, p.y, p.v), candidates, tol))
        rows.append(tuple(row))
    return BracketTable(tuple(rows))


def closed_triples(grid: Sequence[Sequence[str]]) -> list[tuple[int, int, int]]:
    """The generator triples (1-based, ascending) that close under the bracket.

    ``grid[i][j]`` is the identified label of [chi_{i+1}, chi_{j+1}], as in
    :meth:`BracketTable.identified_grid`.  A triple closes when each of its
    three pairwise brackets is "zero" or +/-chi_k with k in the triple.
    """
    closed = []
    for triple in itertools.combinations(range(1, 7), 3):
        allowed = {"zero"} | {f"{s}chi{k}" for k in triple for s in "+-"}
        if all(grid[a - 1][b - 1] in allowed for a, b in itertools.combinations(triple, 2)):
            closed.append(triple)
    return closed


def prolong2_apply(V: VectorField3, F, j: Jet2 | chart.JetColumns):
    """Apply the second prolongation of V to a second-order jet function.

    F takes the seven slots (x, y, v, y_x, v_x, y_xx, v_xx) and must be
    dual-capable (and array-capable for a JetColumns ``j``).  The
    second-order coefficients follow the jet recursion

        phi^xx = D_x(phi^x) - y_xx D_x(xi)
        eta^xx = D_x(eta^x) - v_xx D_x(xi)

    with the total derivative D_x expanded through second-order jet
    variables.  The result is (pr2 V)(F) evaluated at j: a float at a
    Jet2, an array over the samples of a JetColumns.
    """
    x, y, v, y_x, v_x = j.x, j.y, j.v, j.y_x, j.v_x
    y_xx, v_xx = j.y_xx, j.v_xx
    xi, phi, eta, phi_pr, eta_pr = _prolong1_values(V, x, y, v, y_x, v_x)
    _, dxi_total = directional(V.xi, (x, y, v), (1.0, y_x, v_x))

    jet_args = (x, y, v, y_x, v_x)
    jet_dir = (1.0, y_x, v_x, y_xx, v_xx)

    def phi_pr_fn(*a):
        return _prolong1_values(V, *a)[3]

    def eta_pr_fn(*a):
        return _prolong1_values(V, *a)[4]

    _, dx_phi_pr = directional(phi_pr_fn, jet_args, jet_dir)
    _, dx_eta_pr = directional(eta_pr_fn, jet_args, jet_dir)
    phi_pr2 = dx_phi_pr - y_xx * dxi_total
    eta_pr2 = dx_eta_pr - v_xx * dxi_total

    args7 = (x, y, v, y_x, v_x, y_xx, v_xx)
    coeffs7 = (xi, phi, eta, phi_pr, eta_pr, phi_pr2, eta_pr2)
    _, applied = directional(F, args7, coeffs7)
    return applied
