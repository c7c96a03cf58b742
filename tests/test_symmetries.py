import itertools
import math

import numpy as np
import pytest

from glome import chart, geodesics
from glome import jetcalc as jc
from glome import symmetries as sym
from glome.suites import CLOSED_TRIPLES

REFERENCE_TABLE = [
    ["zero", "-chi6", "-chi4", "+chi3", "zero", "+chi2"],
    ["+chi6", "zero", "-chi5", "zero", "+chi3", "-chi1"],
    ["+chi4", "+chi5", "zero", "-chi1", "-chi2", "zero"],
    ["-chi3", "zero", "+chi1", "zero", "-chi6", "+chi5"],
    ["zero", "-chi3", "+chi2", "+chi6", "zero", "-chi4"],
    ["-chi2", "+chi1", "zero", "-chi5", "+chi4", "zero"],
]


def field_of(xi, phi, eta, name="test"):
    return sym.VectorField3(xi, phi, eta, name)


# ---------------------------------------------------------------- generators

def test_chi3_closed_form():
    V = sym.chi(3)
    for p in chart.sample_domain(50, 0.1, seed=0):
        xi, phi, eta = V.at(p)
        assert abs(xi - math.sin(p.y)) < 1e-15
        assert abs(phi + math.cos(p.y) * math.tan(p.x)) < 1e-14
        assert eta == 0.0


def test_chi6_is_translation():
    V = sym.chi(6)
    for p in chart.sample_domain(10, 0.1, seed=1):
        assert V.at(p) == (0.0, 0.0, 1.0)


def test_chi1_at_specific_point():
    xi, phi, eta = sym.chi(1).coefficients(0.5, 0.0, 0.0)
    assert (xi, phi, eta) == (1.0, 0.0, 0.0)


def test_chi_index_validation():
    for bad in (0, 7, -1):
        with pytest.raises(ValueError):
            sym.chi(bad)


def test_general_symmetry_zero():
    V = sym.general_symmetry([0.0] * 5)
    for p in chart.sample_domain(20, 0.1, seed=2):
        assert V.at(p) == (0.0, 0.0, 0.0)


def test_general_symmetry_recovers_chi1():
    V = sym.general_symmetry([1.0, 0.0, 0.0, 0.0, 0.0])
    W = sym.chi(1)
    for p in chart.sample_domain(100, 0.1, seed=3):
        for a, b in zip(V.at(p), W.at(p)):
            assert abs(a - b) < 1e-15


def test_general_symmetry_satisfies_determining_equations():
    V = sym.general_symmetry([0.3, -1.2, 0.5, 2.0, -0.7])
    for p in chart.sample_domain(100, 0.1, seed=4):
        for r in sym.determining_residuals(V, p):
            assert abs(r) < 1e-9


def test_general_symmetry_wrong_length():
    with pytest.raises(ValueError):
        sym.general_symmetry([1.0, 2.0])


# ---------------------------------------------------- determining equations

def test_determining_residuals_chi6_exact_zero():
    for p in chart.sample_domain(10, 0.1, seed=5):
        assert sym.determining_residuals(sym.chi(6), p) == (0.0,) * 6


def test_determining_residuals_each_generator():
    for i in range(1, 7):
        V = sym.chi(i)
        for p in chart.sample_domain(50, 0.1, seed=6):
            for r in sym.determining_residuals(V, p):
                assert abs(r) < 1e-12


def test_determining_residuals_detect_non_symmetry():
    V = field_of(lambda x, y, v: y, sym._zero, sym._zero, "xi=y")
    res = sym.determining_residuals(V, chart.ChartPoint(0.3, 0.4, 0.0))
    assert res[0] == 0.0  # xi_x
    assert abs(res[1] - 1.0) < 1e-15  # phi_x cos^2 x + xi_y = 1


# ------------------------------------------------------------- prolongation

def test_prolong1_translation_field():
    j = chart.jet1(0.4, -0.2, 1.0, 1.7, -0.3)
    P = sym.prolong1(sym.chi(6), j)
    assert (P.xi, P.phi, P.eta, P.phi_x, P.eta_x) == (0.0, 0.0, 1.0, 0.0, 0.0)


def test_prolong1_linear_coefficient_by_hand():
    V = field_of(sym._zero, lambda x, y, v: y, sym._zero, "phi=y")
    j = chart.jet1(0.1, 0.5, 0.0, 2.0, 0.0)
    P = sym.prolong1(V, j)
    assert P.phi_x == 2.0  # phi_y * y_x
    assert P.eta_x == 0.0


def finite_difference_prolongation(V, j, y_xx=0.0, v_xx=0.0, h=1e-5):
    """Oracle: phi^x = D_x(phi - xi y_x) + xi y_xx along a representative
    curve with the given curvatures (the result must not depend on them)."""

    def along(t):
        x = j.x + t
        y = j.y + j.y_x * t + 0.5 * y_xx * t * t
        v = j.v + j.v_x * t + 0.5 * v_xx * t * t
        y_x = j.y_x + y_xx * t
        xi = V.xi(x, y, v)
        phi = V.phi(x, y, v)
        return phi - xi * y_x

    d = (along(h) - along(-h)) / (2.0 * h)
    return d + V.xi(j.x, j.y, j.v) * y_xx


def test_prolong1_matches_finite_difference_oracle():
    j = chart.jet1(0.4, 0.2, 1.0, 0.5, -0.3)
    P = sym.prolong1(sym.chi(3), j)
    assert abs(P.phi_x - finite_difference_prolongation(sym.chi(3), j)) < 1e-6
    # the second-order terms cancel: a curve with curvature gives the same value
    assert abs(P.phi_x - finite_difference_prolongation(sym.chi(3), j, y_xx=1.3, v_xx=0.7)) < 1e-6


# ---------------------------------------------------- variational criterion

def test_variational_residual_translation_exact():
    r = sym.variational_residual(sym.chi(6), chart.jet_columns(10, 0.1, seed=7))
    assert np.all(np.asarray(r) == 0.0)


def test_variational_residual_all_generators():
    jets = chart.jet_columns(1000, 0.1, seed=8, max_slope=2.0)
    for i in range(1, 7):
        V = sym.chi(i)
        worst = np.max(np.abs(sym.variational_residual(V, jets)))
        assert worst < 1e-9, f"chi{i} worst residual {worst}"


def test_variational_residual_rejects_x_translation():
    V = field_of(lambda x, y, v: 1.0, sym._zero, sym._zero, "d/dx")
    j = chart.jet1(0.5, 0.2, 0.0, 1.0, 1.0)
    assert abs(sym.variational_residual(V, j)) > 1e-3


# ------------------------------------------------------------- Lie brackets

def test_bracket_with_self_vanishes():
    for i in (1, 3, 5):
        B = sym.lie_bracket(sym.chi(i), sym.chi(i))
        for p in chart.sample_domain(100, 0.1, seed=9):
            assert B.at(p) == (0.0, 0.0, 0.0)


def test_bracket_antisymmetry():
    X, Y = sym.chi(1), sym.chi(4)
    B1, B2 = sym.lie_bracket(X, Y), sym.lie_bracket(Y, X)
    for p in chart.sample_domain(100, 0.1, seed=10):
        for a, b in zip(B1.at(p), B2.at(p)):
            assert abs(a + b) < 1e-12


def test_bracket_bilinearity():
    X = sym.add(sym.scale(2.0, sym.chi(1)), sym.scale(-0.5, sym.chi(4)))
    Z = sym.chi(2)
    left = sym.lie_bracket(X, Z)
    right = sym.add(
        sym.scale(2.0, sym.lie_bracket(sym.chi(1), Z)),
        sym.scale(-0.5, sym.lie_bracket(sym.chi(4), Z)),
    )
    for p in chart.sample_domain(100, 0.1, seed=11):
        for a, b in zip(left.at(p), right.at(p)):
            assert abs(a - b) < 1e-12


def test_bracket_chi1_chi2_is_minus_chi6():
    B = sym.lie_bracket(sym.chi(1), sym.chi(2))
    M = sym.scale(-1.0, sym.chi(6))
    for p in chart.sample_domain(100, 0.1, seed=12):
        for a, b in zip(B.at(p), M.at(p)):
            assert abs(a - b) < 1e-9


def test_bracket_chi3_chi6_vanishes():
    B = sym.lie_bracket(sym.chi(3), sym.chi(6))
    for p in chart.sample_domain(100, 0.1, seed=13):
        for a in B.at(p):
            assert abs(a) < 1e-12


def test_jacobi_identity_all_triples():
    pts = chart.sample_domain(100, 0.1, seed=14)
    for (a, b, c) in itertools.combinations(range(1, 7), 3):
        J = None
        for (i, j, k) in ((a, b, c), (b, c, a), (c, a, b)):
            term = sym.lie_bracket(sym.chi(i), sym.lie_bracket(sym.chi(j), sym.chi(k)))
            J = term if J is None else sym.add(J, term)
        for p in pts:
            for comp in J.at(p):
                assert abs(comp) < 1e-8


# ------------------------------------------------------------ bracket table

def test_bracket_table_matches_reference():
    table = sym.bracket_table(samples=50, tol=1e-8, seed=7)
    grid = table.identified_grid()
    assert grid == REFERENCE_TABLE
    worst = max(e.residual for row in table.entries for e in row)
    assert worst < 1e-8


def test_bracket_table_antisymmetry_and_diagonal():
    table = sym.bracket_table(samples=50, tol=1e-8, seed=21)

    def negate(label):
        if label == "zero":
            return "zero"
        return ("-" if label[0] == "+" else "+") + label[1:]

    for i in range(1, 7):
        assert table.entry(i, i).identified == "zero"
        for j in range(1, 7):
            assert table.entry(i, j).identified == negate(table.entry(j, i).identified)


def test_bracket_table_specific_entries():
    table = sym.bracket_table(samples=50, tol=1e-8, seed=7)
    assert table.entry(3, 6).identified == "zero"
    assert table.entry(2, 6).identified == "-chi1"


def test_bracket_table_json_shape():
    table = sym.bracket_table(samples=10, tol=1e-8, seed=3)
    payload = table.to_json_dict()
    assert set(payload) == {"entries"}
    assert len(payload["entries"]) == 6
    valid = {"zero"} | {f"{s}chi{k}" for k in range(1, 7) for s in "+-"}
    for row in payload["entries"]:
        assert len(row) == 6
        for cell in row:
            assert set(cell) == {"id", "residual"}
            assert cell["id"] in valid
            assert cell["residual"] >= 0.0


def test_bracket_table_requires_samples():
    with pytest.raises(ValueError):
        sym.bracket_table(samples=5)


def test_identify_rejects_scaled_candidate():
    points = chart.sample_domain(30, 0.1, seed=15)
    with pytest.raises(sym.AmbiguousIdentification):
        sym.identify_field(sym.scale(0.5, sym.chi(1)), points, 1e-8)


# ---------------------------------------------------------------- subgroups

PAPER_TRIPLES = [(1, 2, 6), (1, 3, 4), (2, 3, 5), (4, 5, 6)]


def test_listed_subgroups_close():
    # closure is read off the reference table; the paper lists four triples
    assert sym.closed_triples(REFERENCE_TABLE) == PAPER_TRIPLES
    assert [tuple(t) for t in CLOSED_TRIPLES] == PAPER_TRIPLES


def test_counterexample_subgroup_fails():
    assert (1, 2, 3) not in sym.closed_triples(REFERENCE_TABLE)
    # one bracket leaving its triple breaks that triple's closure only
    grid = [list(row) for row in REFERENCE_TABLE]
    grid[0][1] = "+chi3"  # [chi1, chi2] outside {1, 2, 6}
    assert sym.closed_triples(grid) == PAPER_TRIPLES[1:]


def test_exactly_four_triples_close():
    grid = sym.bracket_table(samples=50, seed=7).identified_grid()
    assert sym.closed_triples(grid) == PAPER_TRIPLES


# ------------------------------------------------------ second prolongation

def test_prolong2_translation_on_v_independent_function():
    def F(x, y, v, y_x, v_x, y_xx, v_xx):
        return x * y_xx + jc.sin(y) * v_x

    j2 = chart.jet2(0.3, 0.1, 2.0, 0.4, -0.2, 0.6, 0.9)
    assert sym.prolong2_apply(sym.chi(6), F, j2) == 0.0


def test_prolong2_constant_field_on_curvature_slot():
    V = sym.VectorField3(sym._zero, sym._one, sym._zero, "const")

    def F(x, y, v, y_x, v_x, y_xx, v_xx):
        return y_xx

    j2 = chart.jet2(0.2, -0.3, 0.5, 1.1, 0.7, -0.4, 0.8)
    assert sym.prolong2_apply(V, F, j2) == 0.0


def onshell_collapsed_jet(rng, k):
    """A second-order jet solving the collapsed equation (linear in y_xx)."""
    while True:
        x = rng.uniform(-1.2, 1.2)
        y = rng.uniform(-1.2, 1.2)
        y_x = rng.uniform(-2.0, 2.0)
        if abs(x) < 0.05:
            continue
        coeff = math.cos(x) * math.cos(y) * (math.cos(x) ** 2 * math.cos(y) ** 2 - k)
        if abs(coeff) < 0.05:
            continue
        rest = geodesics.collapsed_E(x, y, y_x, 0.0, k)
        y_xx = -rest / coeff
        if abs(y_xx) > 50.0:
            continue
        return chart.jet2(x, y, 0.0, y_x, 0.0, y_xx, 0.0)


def test_prolong2_chi3_annihilates_collapsed_equation_on_shell():
    rng = np.random.default_rng(16)
    F = geodesics.collapsed_fn(0.5)
    for _ in range(50):
        j2 = onshell_collapsed_jet(rng, 0.5)
        assert abs(geodesics.collapsed_E(j2.x, j2.y, j2.y_x, j2.y_xx, 0.5)) < 1e-10
        assert abs(sym.prolong2_apply(sym.chi(3), F, j2)) < 1e-8


def test_prolong2_generators_annihilate_euler_lagrange_on_shell():
    """Variational symmetries are symmetries of the stationarity equations:
    the second prolongation of each generator kills both Euler-Lagrange
    expressions on the solution manifold."""
    c = chart.jet_columns(200, 0.1, seed=17, max_slope=2.0)
    jets = [chart.jet1(*row) for row in zip(*(a.tolist() for a in c[:5]))]
    worst = 0.0
    for i in range(1, 7):
        V = sym.chi(i)
        for j in jets:
            y_xx, v_xx = geodesics.el_rhs(j)
            j2 = chart.Jet2(j, y_xx, v_xx)
            worst = max(worst, abs(sym.prolong2_apply(V, geodesics.el_expression_y, j2)))
            worst = max(worst, abs(sym.prolong2_apply(V, geodesics.el_expression_v, j2)))
    assert worst < 1e-7
