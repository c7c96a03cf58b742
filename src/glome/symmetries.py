"""Infinitesimal symmetries of the arclength functional on the 3-sphere chart.

Provides the six generators chi_1..chi_6, first and second prolongations,
the variational-symmetry residuals, the six determining-equation residuals,
Lie brackets, and numeric identification of brackets against the candidate
set {0, +/-chi_k} (the bracket table), with the closed 3-generator subsets
read off the identified table.

A vector field is its coefficient function: one function of (x, y, v)
that returns (xi, phi, eta), not an expression tree nor a wrapper type.
Every downstream use is a pointwise evaluation with dual numbers from
:mod:`glome.jetcalc`, and one evaluation yields all three coefficients.
Each generator's formulas are written once (_GENERATORS), over the
trigonometric factors of one evaluation (_Factors): cos v, sin v, tan x,
cos y, sin y, tan y and sec y, each formed on first use, sec y and tan y
together from one jetcalc.sec_tan.  A lone chi(i) forms only the factors
it reads (and the partner of sec y or tan y); the six together
(_coefficients) form each once, so one pass of all six maps math.tan
twice (tan x, and tan y for both tan y and sec y's derivative) where six
passes map it 7 times.

The evaluations are coordinate-generic.  A residual function given a
:class:`~glome.chart.JetColumns` of n samples in place of one float-valued
jet returns numpy arrays over the samples, and each element
equals the result for that sample alone bitwise.  The suites use that to
evaluate each check in one array-valued dual pass.  Each check evaluates
each generator once.  The six generators' 18 coefficients and their 54
first partials come from one seeded pass (jetcalc.value_and_gradn of
_coefficients, laid out by _generator_jets), which serves the bracket
table and, with the first prolongation run on one row per generator and
one directional pass of the integrand along all six prolonged fields, the
variational criterion.  One formula (_bracket) gives every bracket from
those values and partials: the bracket table makes one _bracket call with
X on axis 0 and Y on axis 1 for all 36 brackets, and matches all 36
against the 13 candidates in one broadcast reduction; identify_field is
that rule's one-field case, with its candidates from one evaluation of
_coefficients.  lie_bracket makes one pass of each field, and the second
prolongation takes the first and its total derivative from one
directional pass.  general_symmetry reads the five generators over one
set of factors and takes column weights, so that many random
combinations, each over its own points, evaluate in one pass.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from . import chart
from .jetcalc import cos, sin, tan, sec_tan, directional, value_and_gradn


class AmbiguousIdentification(RuntimeError):
    """No unique candidate passed the bracket-identification separation test."""


# A vector field: (x, y, v) -> (xi, phi, eta).
_Field = Callable[[object, object, object], tuple]


class _Factors:
    """The trigonometric factors the generators share at one point (x, y, v).

    Each is a cached_property, formed on first read and then stored on the
    instance, so a lone generator forms only its own and the six together
    form each once.  sec y and tan y come from one sec_tan, since sec y's
    dual rule needs tan y: the first read of either stores both, and a pole
    raises the DomainError of the one read first.  A generator reads them
    in its formulas' operand order, so every coefficient has the bits of
    its formula evaluated on its own.  Built per evaluation; nothing
    outlives it.
    """

    cos_v = cached_property(lambda f: cos(f.v))
    sin_v = cached_property(lambda f: sin(f.v))
    tan_x = cached_property(lambda f: tan(f.x))
    cos_y = cached_property(lambda f: cos(f.y))
    sin_y = cached_property(lambda f: sin(f.y))

    @cached_property
    def tan_y(self):
        self.sec_y, tan_y = sec_tan(self.y, "tan")
        return tan_y

    @cached_property
    def sec_y(self):
        sec_y, self.tan_y = sec_tan(self.y, "sec")
        return sec_y

    def __init__(self, x, y, v):
        self.x, self.y, self.v = x, y, v


# Generator i's (xi, phi, eta) over the shared factors, written once: every
# evaluation of chi_i, alone or with the others, reads _GENERATORS.
def _chi1(f: _Factors):
    c, t = f.cos_v, f.tan_x
    return c * f.cos_y, c * t * f.sin_y, f.sin_v * t * f.sec_y


def _chi2(f: _Factors):
    s, t = f.sin_v, f.tan_x
    return s * f.cos_y, s * t * f.sin_y, -f.cos_v * t * f.sec_y


def _chi3(f: _Factors):
    return f.sin_y, -f.tan_x * f.cos_y, 0.0


def _chi4(f: _Factors):
    return 0.0, f.cos_v, f.sin_v * f.tan_y


def _chi5(f: _Factors):
    return 0.0, f.sin_v, -f.cos_v * f.tan_y


def _chi6(f: _Factors):
    return 0.0, 0.0, 1.0


_GENERATORS = (_chi1, _chi2, _chi3, _chi4, _chi5, _chi6)


def _field(generator: int) -> _Field:
    """chi_{generator + 1} as a coefficient function, forming only its own factors."""

    def coefficients(x, y, v):
        return _GENERATORS[generator](_Factors(x, y, v))

    return coefficients


_CHI: tuple[_Field, ...] = tuple(map(_field, range(6)))


def chi(i: int) -> _Field:
    """The i-th generator (1-based); chi6 is the v-translation."""
    if not 1 <= i <= 6:
        raise ValueError(f"generator index must be 1..6, got {i}")
    return _CHI[i - 1]


def _coefficients(x, y, v) -> tuple:
    """The 18 coefficients of chi_1..chi_6 at (x, y, v), chi_1's (xi, phi,
    eta) first, over one set of shared factors."""
    f = _Factors(x, y, v)
    return tuple(c for g in _GENERATORS for c in g(f))


def _generator_jets(x, y, v) -> np.ndarray:
    """The 18 coefficients of chi_1..chi_6 and their partials at the points,
    as a (6, 3, 4) + shape array: [g, c] holds chi_{g+1}'s coefficient c
    (0 xi, 1 phi, 2 eta) and then its partials in x, y and v.

    All come from one value_and_gradn pass of _coefficients, which forms
    each shared factor once; each value and partial equals a pass of its
    own generator bitwise.
    """
    jets = np.empty((18, 4) + np.shape(x))
    for k, (value, grad) in enumerate(zip(*value_and_gradn(_coefficients, (x, y, v)))):
        for d, c in enumerate((value, *grad)):
            jets[k, d] = c
    return jets.reshape((6, 3, 4) + np.shape(x))


def general_symmetry(k: Sequence) -> _Field:
    """The 5-parameter combination sum_i k_i chi_i, i = 1..5, as its
    coefficient function.

    Each weight is a float or a numpy column.  Columns broadcast against
    the evaluation points: five (m, 1) weights over (m, n) points evaluate
    m combinations in one pass, row t equal bitwise to the combination of
    row t's weights at row t's points.  Every term is added, a zero weight
    included, so that a row's arithmetic never depends on another row.
    """
    if len(k) != 5:
        raise ValueError(f"expected 5 coefficients, got {len(k)}")
    weights = tuple(float(c) if np.ndim(c) == 0 else np.asarray(c, dtype=float) for c in k)

    def coefficients(x, y, v):
        f = _Factors(x, y, v)
        totals = (0.0, 0.0, 0.0)
        for w, g in zip(weights, _GENERATORS[:5]):
            totals = tuple(t + w * c for t, c in zip(totals, g(f)))
        return totals

    return coefficients


def _prolong1(values, grads, y_x, v_x):
    """First-prolongation components (xi, phi, eta, phi^x, eta^x, D_x xi)
    from a field's values (xi, phi, eta) and first partials at a jet:

    D_x xi = xi_x + xi_y y_x + xi_v v_x
    phi^x = phi_x + phi_y y_x + phi_v v_x - (D_x xi) y_x
    eta^x = eta_x + eta_y y_x + eta_v v_x - (D_x xi) v_x

    The second-order jet terms cancel identically in this expansion, so
    only first partials of the coefficients appear.  Each value and
    partial is a float, a dual or an array, for one field or one row per
    field.
    """
    xi_val, phi_val, eta_val = values
    (xi_x, xi_y, xi_v), (phi_x, phi_y, phi_v), (eta_x, eta_y, eta_v) = grads
    total_xi = xi_x + xi_y * y_x + xi_v * v_x
    phi_pr = phi_x + phi_y * y_x + phi_v * v_x - total_xi * y_x
    eta_pr = eta_x + eta_y * y_x + eta_v * v_x - total_xi * v_x
    return xi_val, phi_val, eta_val, phi_pr, eta_pr, total_xi


def _prolong1_values(V: _Field, x, y, v, y_x, v_x):
    """Generic (dual-capable) first-prolongation components of V at a jet,
    (xi, phi, eta, phi^x, eta^x, D_x xi), from one value_and_gradn pass."""
    return _prolong1(*value_and_gradn(V, (x, y, v)), y_x, v_x)


def _variational(prolonged, j: chart.JetColumns):
    """The variational criterion's residual from _prolong1's components at j:
    the prolonged field applied to the integrand plus the integrand times
    D_x xi, zero exactly where the field is a variational symmetry."""
    xi, phi, _, phi_pr, eta_pr, dxi_total = prolonged
    lam, applied = directional(chart.arc_speed, (j.x, j.y, j.y_x, j.v_x),
                               (xi, phi, phi_pr, eta_pr))
    return applied + lam * dxi_total


def variational_residuals(j: chart.JetColumns) -> np.ndarray:
    """The variational criterion's residual of chi_1..chi_6 at j, one row
    per generator, from one pass of all six (_generator_jets) and one
    directional pass of the integrand along all six prolonged fields: row
    i - 1 equals _variational of chi(i)'s _prolong1_values bitwise."""
    stacked = np.moveaxis(_generator_jets(j.x, j.y, j.v), 0, 2)  # (3, 4, 6, ...)
    return _variational(_prolong1(stacked[:, 0], stacked[:, 1:], j.y_x, j.v_x), j)


def determining_residuals(V: _Field, p: chart.JetColumns):
    """The six monomial-coefficient residuals of the symmetry condition.

    Returns the left sides (floats at one chart point; arrays over the
    samples, or a constant float, at n columns), in order:
      (a) xi_x
      (b) phi_x cos^2 x + xi_y
      (c) eta_x cos^2 y cos^2 x + xi_v
      (d) -xi cos x sin x + phi_y cos^2 x
      (e) -xi sin x cos y - phi cos x sin y + eta_v cos x cos y
      (f) eta_y cos^2 x cos^2 y + phi_v cos^2 x
    """
    x, y, v = p.x, p.y, p.v
    (xi_val, phi_val, _), grads = value_and_gradn(V, (x, y, v))
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


def _bracket(Xc, dX, Yc, dY) -> tuple:
    """[X, Y] at the points from both fields' coefficients Xc, Yc and their
    Jacobians dX, dY (dX[i][j] = dX^i/dx_j):

        [X,Y]^i = sum_j (X^j dY^i/dx_j - Y^j dX^i/dx_j)
    """
    out = []
    for dYi, dXi in zip(dY, dX):
        total = 0.0
        for Xj, Yj, dYij, dXij in zip(Xc, Yc, dYi, dXi):
            total = total + Xj * dYij - Yj * dXij
        out.append(total)
    return tuple(out)


def lie_bracket(X: _Field, Y: _Field) -> _Field:
    """Commutator [X, Y], itself a coefficient function: at each evaluation
    point it applies _bracket to one value_and_gradn pass of each field."""

    def coefficients(x, y, v):
        p = (x, y, v)
        return _bracket(*value_and_gradn(X, p), *value_and_gradn(Y, p))

    return coefficients


_CANDIDATE_LABELS = ("zero", "+chi1", "-chi1", "+chi2", "-chi2", "+chi3", "-chi3",
                     "+chi4", "-chi4", "+chi5", "-chi5", "+chi6", "-chi6")


def _values(F: _Field, x, y, v) -> np.ndarray:
    """F's coefficients at n points as an (n, 3) array, one row per point
    (for _coefficients, an (n, 18) array)."""
    return np.stack([np.broadcast_to(c, x.shape) for c in F(x, y, v)], axis=1)


def identify_field(
    W: _Field,
    points: Iterable[chart.JetColumns],
    tol: float,
) -> dict:
    """Match a field against {0, +/-chi_k} over sample points, as
    ``{"id": label, "residual": residual}``.

    Selection is least-squares over all samples and components; the
    reported residual is the max pointwise deviation from the winner.
    Identification requires the winner's residual < tol while every other
    candidate deviates by more than 10*tol somewhere.  W and each
    candidate are evaluated once, over all points together, and matched
    by _match, the rule bracket_table applies to all 36 brackets at once.
    """
    rows = [(p.x, p.y, p.v) for p in points]
    if not rows:
        raise ValueError("identify_field needs at least one sample point, got none")
    x, y, v = (np.array(c) for c in zip(*rows))
    generators = _values(_coefficients, x, y, v).reshape((-1, 6, 3)).swapaxes(0, 1)
    return _match(["the field"], _values(W, x, y, v)[None], _candidates(generators), tol)[0]


def _candidates(generators: np.ndarray) -> np.ndarray:
    """The 13 candidates as a (13, n, 3) array, in the order of
    _CANDIDATE_LABELS: zero, then +g and -g for each generator's (n, 3)
    values g in the (6, n, 3) ``generators`` (negation is exact, so -g is
    -chi_k's values bitwise)."""
    candidates = np.zeros((13,) + generators.shape[1:])
    candidates[1::2] = generators
    candidates[2::2] = -generators
    return candidates


def _match(names: Sequence[str], fields: np.ndarray, candidates: np.ndarray,
           tol: float) -> list[dict]:
    """identify_field's rule for each of the (k, n, 3) ``fields`` against the
    (13, n, 3) ``candidates``, one result per field: every field's sum of
    squares and max deviation from every candidate come from one broadcast
    reduction, and the verdicts from array comparisons.  If any field
    fails, raises for the first failing one, named by ``names``.

    The deviations are made absolute and then squared in place, in one
    buffer; |d| * |d| is d * d bitwise.
    """
    dev = fields[:, None] - candidates
    np.abs(dev, out=dev)
    maxdev = np.max(dev, axis=(2, 3))
    best = np.argmin(np.sum(np.multiply(dev, dev, out=dev), axis=(2, 3)), axis=1)
    chosen = best[:, None] == np.arange(len(candidates))
    residual = maxdev[chosen]
    unmatched = ~(residual < tol)  # a nan residual matches nothing
    near = (maxdev <= 10.0 * tol) & ~chosen
    failing = unmatched | near.any(axis=1)
    if failing.any():
        f = int(np.argmax(failing))
        name, label = names[f], _CANDIDATE_LABELS[best[f]]
        if unmatched[f]:
            raise AmbiguousIdentification(
                f"no candidate matches {name}: best {label} deviates by {float(residual[f]):g}"
            )
        other = _CANDIDATE_LABELS[int(np.argmax(near[f]))]
        raise AmbiguousIdentification(f"{name} matches both {label} and {other} within {10*tol:g}")
    return [{"id": _CANDIDATE_LABELS[b], "residual": r}
            for b, r in zip(best.tolist(), residual.tolist())]


def _bracket_values(x, y, v) -> tuple[np.ndarray, np.ndarray]:
    """The six generators' values at n points as a (6, n, 3) array, and the
    36 brackets there as a (6, 6, n, 3) array, [chi_i, chi_j] in row i - 1
    and column j - 1.

    The generators' coefficients and partials come from one seeded pass
    (_generator_jets), whose values equal a plain evaluation's bitwise.
    One _bracket call takes X's components on axis 0 and Y's on axis 1,
    so each element repeats lie_bracket's operations and every bracket
    equals lie_bracket's bitwise.
    """
    jets = _generator_jets(x, y, v)
    per_component = jets[:, :, 0].swapaxes(0, 1)  # (3, 6, n): X^j of each generator X
    per_partial = np.moveaxis(jets[:, :, 1:], 0, 2)  # (3, 3, 6, n)
    brackets = _bracket(per_component[:, :, None], per_partial[:, :, :, None],
                        per_component[:, None], per_partial[:, :, None])
    return np.stack(per_component, axis=-1), np.stack(brackets, axis=-1)


def bracket_table(samples: int, tol: float, seed: int) -> dict:
    """Identify all 36 pairwise brackets of chi_1..chi_6 by identify_field's
    rule, at the points of chart.domain_columns (its default 0.1 rad margin),
    as ``{"entries": grid}``: 6 rows of 6 identify_field results,
    [chi_i, chi_j] in row i - 1 and column j - 1.  Each generator is
    evaluated once, and one _bracket call (_bracket_values) and one
    broadcast reduction (_match) serve all 36 entries; if any fails, the
    first failing one in row-major order raises.

    Deterministic for fixed (samples, tol, seed).
    """
    if samples < 10:
        raise ValueError(f"need at least 10 sample points, got {samples}")
    p = chart.domain_columns(samples, seed=seed)
    generators, brackets = _bracket_values(p.x, p.y, p.v)
    names = [f"[chi{i},chi{j}]" for i in range(1, 7) for j in range(1, 7)]
    entries = _match(names, brackets.reshape((36,) + brackets.shape[2:]),
                     _candidates(generators), tol)
    return {"entries": [entries[r:r + 6] for r in range(0, 36, 6)]}


def closed_triples(grid: Sequence[Sequence[str]]) -> list[tuple[int, int, int]]:
    """The generator triples (1-based, ascending) that close under the bracket.

    ``grid[i][j]`` is the identified label of [chi_{i+1}, chi_{j+1}], the
    ``"id"`` of bracket_table's entry there.  A triple closes when each of its
    three pairwise brackets is "zero" or +/-chi_k with k in the triple.
    """
    closed = []
    for triple in itertools.combinations(range(1, 7), 3):
        allowed = {"zero"} | {f"{s}chi{k}" for k in triple for s in "+-"}
        if all(grid[a - 1][b - 1] in allowed for a, b in itertools.combinations(triple, 2)):
            closed.append(triple)
    return closed


def prolong2_apply(V: _Field, F, j: chart.JetColumns):
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
    (xi, phi, eta, phi_pr, eta_pr, _), (dxi_total, _, _, dx_phi_pr, dx_eta_pr, _) = directional(
        lambda *a: _prolong1_values(V, *a), (x, y, v, y_x, v_x), (1.0, y_x, v_x, y_xx, v_xx))
    phi_pr2 = dx_phi_pr - y_xx * dxi_total
    eta_pr2 = dx_eta_pr - v_xx * dxi_total

    args7 = (x, y, v, y_x, v_x, y_xx, v_xx)
    coeffs7 = (xi, phi, eta, phi_pr, eta_pr, phi_pr2, eta_pr2)
    _, applied = directional(F, args7, coeffs7)
    return applied
