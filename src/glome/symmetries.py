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
:class:`~glome.chart.JetColumns` of n samples in place of a ChartPoint or
Jet1 returns numpy arrays over the samples, and each element
equals the result for that sample alone bitwise.  The suites use that to
evaluate each check in one array-valued dual pass.  Each fact is evaluated
once: a field's coefficients and their first partials come from one
seeded pass (jetcalc.value_and_gradn), the second prolongation takes the
first and its total derivative from one directional pass, and the
bracket table takes each generator's coefficients and gradients once for
all 36 brackets (6 value_and_gradn calls) and matches every bracket
against the 13 candidates, evaluated once and stacked, in one broadcast
reduction; general_symmetry takes column weights, so that many random
combinations, each over its own points, evaluate in one pass.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import chart, jetcalc
from .chart import Jet1, ChartPoint
from .jetcalc import cos, sin, tan, sec, directional, gradn, value_and_gradn

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


def general_symmetry(k: Sequence) -> VectorField3:
    """The 5-parameter combination sum_i k_i chi_i, i = 1..5.

    Each weight is a float or a numpy column.  Columns broadcast against
    the evaluation points: five (m, 1) weights over (m, n) points evaluate
    m combinations in one pass, row t equal bitwise to the combination of
    row t's weights at row t's points.  Every term is added, a zero weight
    included, so that a row's arithmetic never depends on another row.
    """
    if len(k) != 5:
        raise ValueError(f"expected 5 coefficients, got {len(k)}")
    weights = tuple(float(c) if np.ndim(c) == 0 else np.asarray(c, dtype=float) for c in k)

    def combo(getter):
        def f(x, y, v):
            total = 0.0
            for w, F in zip(weights, _CHI[:5]):
                total = total + w * getter(F)(x, y, v)
            return total

        return f

    def label(w):
        return f"{w:g}" if isinstance(w, float) else "[" + ",".join(f"{c:g}" for c in w.flat) + "]"

    return VectorField3(
        combo(lambda F: F.xi),
        combo(lambda F: F.phi),
        combo(lambda F: F.eta),
        name="general(" + ",".join(map(label, weights)) + ")",
    )


def _prolong1_values(V: VectorField3, x, y, v, y_x, v_x):
    """Generic (dual-capable) first-prolongation components at a jet.

    phi^x = phi_x + phi_y y_x + phi_v v_x - (xi_x + xi_y y_x + xi_v v_x) y_x
    eta^x = eta_x + eta_y y_x + eta_v v_x - (xi_x + xi_y y_x + xi_v v_x) v_x

    The second-order jet terms cancel identically in this expansion, so
    only first partials of the coefficients appear.
    """
    (xi_val, phi_val, eta_val), grads = value_and_gradn(V.coefficients, (x, y, v))
    (xi_x, xi_y, xi_v), (phi_x, phi_y, phi_v), (eta_x, eta_y, eta_v) = grads
    total_xi = xi_x + xi_y * y_x + xi_v * v_x
    phi_pr = phi_x + phi_y * y_x + phi_v * v_x - total_xi * y_x
    eta_pr = eta_x + eta_y * y_x + eta_v * v_x - total_xi * v_x
    return xi_val, phi_val, eta_val, phi_pr, eta_pr


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
    # its own pass: the D_x(xi) that _prolong1_values sums differs in the last bit for chi1, chi2
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
    (xi_val, phi_val, _), grads = value_and_gradn(V.coefficients, (x, y, v))
    (xi_x, xi_y, xi_v), (phi_x, phi_y, phi_v), (eta_x, eta_y, eta_v) = grads
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


def _bracket_component(Xc, Yc, dY, dX):
    """One component of [X, Y] at the points: sum_j (X^j dY/dx_j - Y^j dX/dx_j),
    from both fields' coefficients Xc, Yc and the gradients dY, dX of that
    component of Y and of X."""
    total = 0.0
    for Xj, Yj, dYj, dXj in zip(Xc, Yc, dY, dX):
        total = total + Xj * dYj - Yj * dXj
    return total


def lie_bracket(X: VectorField3, Y: VectorField3) -> VectorField3:
    """Commutator [X, Y]: coefficients evaluate the pointwise formula

        [X,Y]^i = sum_j (X^j dY^i/dx_j - Y^j dX^i/dx_j)

    with all partials taken by dual numbers at each evaluation point.
    """

    def component(get):
        def f(x, y, v):
            p = (x, y, v)
            return _bracket_component(X.coefficients(x, y, v), Y.coefficients(x, y, v),
                                      gradn(get(Y), p), gradn(get(X), p))

        return f

    return VectorField3(
        component(lambda F: F.xi),
        component(lambda F: F.phi),
        component(lambda F: F.eta),
        name=f"[{X.name},{Y.name}]",
    )


_CANDIDATE_LABELS = ("zero", "+chi1", "-chi1", "+chi2", "-chi2", "+chi3", "-chi3",
                     "+chi4", "-chi4", "+chi5", "-chi5", "+chi6", "-chi6")


def _stack3(components, shape) -> np.ndarray:
    """Three coefficient values (arrays or constants) as an (n, 3) array."""
    return np.stack([np.broadcast_to(c, shape) for c in components], axis=1)


def _values(F: VectorField3, x, y, v) -> np.ndarray:
    """F's coefficients at n points as an (n, 3) array, one row per point."""
    return _stack3(F.coefficients(x, y, v), x.shape)


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


def _candidate_values(x, y, v) -> np.ndarray:
    """The 13 candidates' values at n points as a (13, n, 3) array, in the
    order of _CANDIDATE_LABELS: zero, then +g and -g for each generator's
    values g (negation is exact, so -g is -chi_k's values bitwise)."""
    generators = [_values(F, x, y, v) for F in _CHI]
    return np.stack([np.zeros_like(generators[0])] + [s for g in generators for s in (g, -g)])


def _match(name: str, Wvals: np.ndarray, candidates: np.ndarray, tol: float) -> BracketEntry:
    """identify_field's rule for the field ``name`` with (n, 3) values
    ``Wvals`` against the (13, n, 3) ``candidates``: every candidate's sum
    of squares and max deviation come from one broadcast reduction."""
    diff = Wvals - candidates
    best = int(np.argmin(np.sum(diff * diff, axis=(1, 2))))
    maxdev = np.max(np.abs(diff), axis=(1, 2)).tolist()
    label, residual = _CANDIDATE_LABELS[best], maxdev[best]
    if residual >= tol:
        raise AmbiguousIdentification(
            f"no candidate matches {name}: best {label} deviates by {residual:g}"
        )
    for other, dev in zip(_CANDIDATE_LABELS, maxdev):
        if other != label and dev <= 10.0 * tol:
            raise AmbiguousIdentification(
                f"{name} matches both {label} and {other} within {10*tol:g}"
            )
    return BracketEntry(label, residual)


def _bracket_values(x, y, v) -> list[list[np.ndarray]]:
    """The (n, 3) values of [chi_i, chi_j] at n points, in row i - 1 and
    column j - 1.

    Each generator's three coefficients and their gradients come from one
    seeded pass (6 value_and_gradn calls) and are combined by lie_bracket's
    formula, so every value equals lie_bracket's bitwise.
    """
    coeffs, grads = zip(*(value_and_gradn(F.coefficients, (x, y, v)) for F in _CHI))
    return [
        [_stack3([_bracket_component(Xc, Yc, dY[c], dX[c]) for c in range(3)], x.shape)
         for Yc, dY in zip(coeffs, grads)]
        for Xc, dX in zip(coeffs, grads)
    ]


def bracket_table(
    samples: int = 50,
    tol: float = 1e-8,
    seed: int = 7,
    margin: float = chart.DEFAULT_MARGIN,
) -> BracketTable:
    """Identify all 36 pairwise brackets of chi_1..chi_6 by identify_field's
    rule, at the points of chart.domain_columns.  The generators' gradients
    are taken once for all 36 brackets (_bracket_values) and the 13
    candidates are evaluated once.

    Deterministic for fixed (samples, tol, seed, margin).
    """
    if samples < 10:
        raise ValueError(f"need at least 10 sample points, got {samples}")
    p = chart.domain_columns(samples, margin, seed)
    candidates = _candidate_values(p.x, p.y, p.v)
    return BracketTable(tuple(
        tuple(_match(f"[{X.name},{Y.name}]", W, candidates, tol) for Y, W in zip(_CHI, row))
        for X, row in zip(_CHI, _bracket_values(p.x, p.y, p.v))
    ))


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


def prolong2_apply(V: VectorField3, F, j: chart.JetColumns):
    """Apply the second prolongation of V to a second-order jet function.

    F takes the seven slots (x, y, v, y_x, v_x, y_xx, v_xx) and must be
    dual-capable (and array-capable for a JetColumns ``j``).  The
    second-order coefficients follow the jet recursion

        phi^xx = D_x(phi^x) - y_xx D_x(xi)
        eta^xx = D_x(eta^x) - v_xx D_x(xi)

    with the total derivative D_x expanded through second-order jet
    variables, all from one directional pass of the first prolongation.
    The result is (pr2 V)(F) evaluated at j: a float at the float slots of
    chart.jet2, an array over the samples of array slots.
    """
    x, y, v, y_x, v_x = j.x, j.y, j.v, j.y_x, j.v_x
    y_xx, v_xx = j.y_xx, j.v_xx
    (xi, phi, eta, phi_pr, eta_pr), (dxi_total, _, _, dx_phi_pr, dx_eta_pr) = directional(
        lambda *a: _prolong1_values(V, *a), (x, y, v, y_x, v_x), (1.0, y_x, v_x, y_xx, v_xx))
    phi_pr2 = dx_phi_pr - y_xx * dxi_total
    eta_pr2 = dx_eta_pr - v_xx * dxi_total

    args7 = (x, y, v, y_x, v_x, y_xx, v_xx)
    coeffs7 = (xi, phi, eta, phi_pr, eta_pr, phi_pr2, eta_pr2)
    _, applied = directional(F, args7, coeffs7)
    return applied
