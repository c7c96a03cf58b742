import itertools
import math

import numpy as np
import pytest

from glome import chart, geodesics
from glome import jetcalc as jc
from glome import symmetries as sym
from glome import suites
from glome.suites import CLOSED_TRIPLES
from reference import (add, bracket_table, component, el_expression_v, el_expression_y, field,
                       rotation, scale, structure_constants, variational_residual)

REFERENCE_TABLE = bracket_table()  # derived from the planes the generators rotate


def zero(x, y, v):
    return 0.0


def prolong1(V, j):
    """(xi, phi, eta, phi^x, eta^x) of V's first prolongation at a jet."""
    return sym._prolong1_values(V, j.x, j.y, j.v, j.y_x, j.v_x)[:5]


# ---------------------------------------------------------------- generators

def test_chi3_closed_form():
    V = sym.chi(3)
    for p in chart.sample_domain(50, 0.1, seed=0):
        xi, phi, eta = V(p.x, p.y, p.v)
        assert abs(xi - math.sin(p.y)) < 1e-15
        assert abs(phi + math.cos(p.y) * math.tan(p.x)) < 1e-14
        assert eta == 0.0


def test_chi6_is_translation():
    V = sym.chi(6)
    for p in chart.sample_domain(10, 0.1, seed=1):
        assert V(p.x, p.y, p.v) == (0.0, 0.0, 1.0)


def test_chi1_at_specific_point():
    xi, phi, eta = sym.chi(1)(0.5, 0.0, 0.0)
    assert (xi, phi, eta) == (1.0, 0.0, 0.0)


def test_chi_index_validation():
    for bad in (0, 7, -1):
        with pytest.raises(ValueError):
            sym.chi(bad)


def test_general_symmetry_zero():
    V = sym.general_symmetry([0.0] * 5)
    for p in chart.sample_domain(20, 0.1, seed=2):
        assert V(p.x, p.y, p.v) == (0.0, 0.0, 0.0)


def test_general_symmetry_recovers_chi1():
    V = sym.general_symmetry([1.0, 0.0, 0.0, 0.0, 0.0])
    W = sym.chi(1)
    for p in chart.sample_domain(100, 0.1, seed=3):
        for a, b in zip(V(p.x, p.y, p.v), W(p.x, p.y, p.v)):
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
    V = field(lambda x, y, v: y, zero, zero)
    res = sym.determining_residuals(V, chart.jet1(0.3, 0.4, 0.0, 0.0, 0.0))
    assert res[0] == 0.0  # xi_x
    assert abs(res[1] - 1.0) < 1e-15  # phi_x cos^2 x + xi_y = 1


# ------------------------------------------------------------- prolongation

def test_prolong1_translation_field():
    j = chart.jet1(0.4, -0.2, 1.0, 1.7, -0.3)
    assert prolong1(sym.chi(6), j) == (0.0, 0.0, 1.0, 0.0, 0.0)


def test_prolong1_linear_coefficient_by_hand():
    V = field(zero, lambda x, y, v: y, zero)
    j = chart.jet1(0.1, 0.5, 0.0, 2.0, 0.0)
    _, _, _, phi_x, eta_x = prolong1(V, j)
    assert phi_x == 2.0  # phi_y * y_x
    assert eta_x == 0.0


def test_prolong1_total_derivative_of_xi_by_hand():
    V = field(lambda x, y, v: x * y, zero, zero)
    j = chart.jet1(0.5, 0.25, 0.0, 2.0, 3.0)
    dxi_total = sym._prolong1_values(V, j.x, j.y, j.v, j.y_x, j.v_x)[5]
    assert dxi_total == 0.25 + 0.5 * 2.0  # xi_x + xi_y y_x; xi_v = 0


def finite_difference_prolongation(V, j, y_xx=0.0, v_xx=0.0, h=1e-5):
    """Oracle: phi^x = D_x(phi - xi y_x) + xi y_xx along a representative
    curve with the given curvatures (the result must not depend on them)."""

    def along(t):
        x = j.x + t
        y = j.y + j.y_x * t + 0.5 * y_xx * t * t
        v = j.v + j.v_x * t + 0.5 * v_xx * t * t
        y_x = j.y_x + y_xx * t
        xi, phi, _ = V(x, y, v)
        return phi - xi * y_x

    d = (along(h) - along(-h)) / (2.0 * h)
    return d + V(j.x, j.y, j.v)[0] * y_xx


def test_prolong1_matches_finite_difference_oracle():
    j = chart.jet1(0.4, 0.2, 1.0, 0.5, -0.3)
    phi_x = prolong1(sym.chi(3), j)[3]
    assert abs(phi_x - finite_difference_prolongation(sym.chi(3), j)) < 1e-6
    # the second-order terms cancel: a curve with curvature gives the same value
    assert abs(phi_x - finite_difference_prolongation(sym.chi(3), j, y_xx=1.3, v_xx=0.7)) < 1e-6


# ---------------------------------------------------- variational criterion

def test_variational_residual_translation_exact():
    r = variational_residual(sym.chi(6), chart.jet_columns(10, 0.1, seed=7))
    assert np.all(np.asarray(r) == 0.0)


def test_variational_residual_all_generators():
    jets = chart.jet_columns(1000, 0.1, seed=8)
    for i in range(1, 7):
        V = sym.chi(i)
        worst = np.max(np.abs(variational_residual(V, jets)))
        assert worst < 1e-9, f"chi{i} worst residual {worst}"


def test_variational_residual_rejects_x_translation():
    V = field(lambda x, y, v: 1.0, zero, zero)
    j = chart.jet1(0.5, 0.2, 0.0, 1.0, 1.0)
    assert abs(variational_residual(V, j)) > 1e-3


# ------------------------------------------------------------- Lie brackets

def test_bracket_with_self_vanishes():
    for i in (1, 3, 5):
        B = sym.lie_bracket(sym.chi(i), sym.chi(i))
        for p in chart.sample_domain(100, 0.1, seed=9):
            assert B(p.x, p.y, p.v) == (0.0, 0.0, 0.0)


def test_bracket_antisymmetry():
    X, Y = sym.chi(1), sym.chi(4)
    B1, B2 = sym.lie_bracket(X, Y), sym.lie_bracket(Y, X)
    for p in chart.sample_domain(100, 0.1, seed=10):
        for a, b in zip(B1(p.x, p.y, p.v), B2(p.x, p.y, p.v)):
            assert abs(a + b) < 1e-12


def test_bracket_bilinearity():
    X = add(scale(2.0, sym.chi(1)), scale(-0.5, sym.chi(4)))
    Z = sym.chi(2)
    left = sym.lie_bracket(X, Z)
    right = add(
        scale(2.0, sym.lie_bracket(sym.chi(1), Z)),
        scale(-0.5, sym.lie_bracket(sym.chi(4), Z)),
    )
    for p in chart.sample_domain(100, 0.1, seed=11):
        for a, b in zip(left(p.x, p.y, p.v), right(p.x, p.y, p.v)):
            assert abs(a - b) < 1e-12


def test_bracket_chi1_chi2_is_minus_chi6():
    B = sym.lie_bracket(sym.chi(1), sym.chi(2))
    M = scale(-1.0, sym.chi(6))
    for p in chart.sample_domain(100, 0.1, seed=12):
        for a, b in zip(B(p.x, p.y, p.v), M(p.x, p.y, p.v)):
            assert abs(a - b) < 1e-9


def test_bracket_chi3_chi6_vanishes():
    B = sym.lie_bracket(sym.chi(3), sym.chi(6))
    for p in chart.sample_domain(100, 0.1, seed=13):
        for a in B(p.x, p.y, p.v):
            assert abs(a) < 1e-12


def test_jacobi_identity_all_triples():
    p = chart.domain_columns(100, 0.1, seed=14)
    for (a, b, c) in itertools.combinations(range(1, 7), 3):
        J = None
        for (i, j, k) in ((a, b, c), (b, c, a), (c, a, b)):
            term = sym.lie_bracket(sym.chi(i), sym.lie_bracket(sym.chi(j), sym.chi(k)))
            J = term if J is None else add(J, term)
        for comp in J(p.x, p.y, p.v):
            assert np.max(np.abs(comp)) < 1e-8


# ------------------------------------------------------------ bracket table

def _ids(table: dict) -> list[list[str]]:
    """The identified labels of a bracket_table result, row by row."""
    return [[e["id"] for e in row] for row in table["entries"]]


def test_bracket_table_matches_reference():
    table = sym.bracket_table(samples=50, tol=1e-8, seed=7)
    grid = _ids(table)
    assert grid == REFERENCE_TABLE
    worst = max(e["residual"] for row in table["entries"] for e in row)
    assert worst < 1e-8


def test_each_generator_rotates_its_plane_of_r4():
    # the plane map behind the derived table: chi_i pushed forward through the
    # embedding is rotation(i) applied to the embedded point
    p = chart.domain_columns(200, chart.DEFAULT_MARGIN, 11)
    ambient = np.array(chart.ambient_coords(p.x, p.y, p.v))
    for i in range(1, 7):
        _, pushed = jc.directional(chart.ambient_coords, (p.x, p.y, p.v),
                                   sym.chi(i)(p.x, p.y, p.v))
        assert np.max(np.abs(np.array(pushed) - rotation(i) @ ambient)) < 1e-14


def test_derived_table_is_the_reference_so4():
    assert bracket_table() == [list(row) for row in suites.REFERENCE_TABLE]
    c = structure_constants()
    # Killing form tr(ad_i ad_j), with (ad_i)[k, l] = c[i, l, k]: -4 I, negative
    # definite, so the algebra is compact and semisimple
    assert np.array_equal(np.einsum("ilk,jkl->ij", c, c), -4 * np.eye(6, dtype=int))

    def bracket(u, w):
        return np.einsum("i,j,ijk->k", u, w, c)

    # so(4) = so(3) + so(3): {chi6 + chi3, chi4 - chi2, chi1 + chi5} and
    # {chi6 - chi3, chi4 + chi2, chi1 - chi5}, rows of coefficients of chi1..chi6
    left = np.array([[0, 0, 1, 0, 0, 1], [0, -1, 0, 1, 0, 0], [1, 0, 0, 0, 1, 0]])
    right = np.array([[0, 0, -1, 0, 0, 1], [0, 1, 0, 1, 0, 0], [1, 0, 0, 0, -1, 0]])
    for u, w in itertools.product(left, right):
        assert not bracket(u, w).any()
    for ideal in (left, right):
        for u, w in itertools.product(ideal, ideal):
            assert np.linalg.matrix_rank(np.vstack([ideal, bracket(u, w)])) == 3
        # [I, I] = I: neither ideal is abelian
        brackets = [bracket(u, w) for u, w in itertools.combinations(ideal, 2)]
        assert np.linalg.matrix_rank(np.array(brackets)) == 3


def test_bracket_table_antisymmetry_and_diagonal():
    table = sym.bracket_table(samples=50, tol=1e-8, seed=21)

    def negate(label):
        if label == "zero":
            return "zero"
        return ("-" if label[0] == "+" else "+") + label[1:]

    grid = _ids(table)
    for i in range(6):
        assert grid[i][i] == "zero"
        for j in range(6):
            assert grid[i][j] == negate(grid[j][i])


def test_bracket_table_specific_entries():
    table = sym.bracket_table(samples=50, tol=1e-8, seed=7)
    grid = _ids(table)  # [chi_i, chi_j] at grid[i - 1][j - 1]
    assert grid[2][5] == "zero"
    assert grid[1][5] == "-chi1"


def test_bracket_table_json_shape():
    payload = sym.bracket_table(samples=10, tol=1e-8, seed=3)
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
        sym.bracket_table(samples=5, tol=1e-8, seed=7)


def test_bracket_table_failures_name_the_first_failing_entry():
    # at tol 1.0 the first entry in row-major order, [chi1,chi1], already fails
    with pytest.raises(sym.AmbiguousIdentification) as err:
        sym.bracket_table(50, 1.0, 7)
    assert str(err.value) == "[chi1,chi1] matches both zero and +chi3 within 10"
    # at tol 1e-30 the exact zero [chi1,chi1] passes and [chi1,chi2] fails; the
    # residual's digits depend on libm
    with pytest.raises(sym.AmbiguousIdentification,
                       match=r"^no candidate matches \[chi1,chi2\]: best -chi6 deviates by "):
        sym.bracket_table(50, 1e-30, 7)


def _counting(monkeypatch, name: str) -> list:
    """Record each call of the symmetries module's binding ``name``."""
    calls, real = [], getattr(sym, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(sym, name, counted)
    return calls


def test_bracket_table_takes_one_gradient_pass_for_all_generators(monkeypatch):
    passes = _counting(monkeypatch, "value_and_gradn")
    sym.bracket_table(samples=10, tol=1e-8, seed=7)
    assert [args[0] for args in passes] == [sym._coefficients]


def _tan_maps(monkeypatch) -> list:
    """Record each element-wise map of math.tan that jetcalc makes."""
    maps, real = [], jc._map

    def counted(f, *args):
        if f is math.tan:
            maps.append(np.shape(args[0]))
        return real(f, *args)

    monkeypatch.setattr(jc, "_map", counted)
    return maps


def test_each_shared_factor_is_formed_once_per_evaluation(monkeypatch):
    # six passes one generator at a time map math.tan 7 times: tan x in chi1,
    # chi2 and chi3, tan y in chi4 and chi5, and the derivative of sec y in
    # chi1 and chi2; the stacked pass maps tan x once, and tan y once for
    # both tan y and sec y (jetcalc.sec_tan)
    p = chart.domain_columns(10, 0.1, 7)
    maps = _tan_maps(monkeypatch)
    sym._generator_jets(p.x, p.y, p.v)
    assert maps == [(10,)] * 2
    del maps[:]
    jc.value_and_gradn(sym.chi(3), (p.x, p.y, p.v))  # a lone generator forms only its own
    assert maps == [(10,)]
    del maps[:]
    sym.variational_residuals(chart.jet_columns(10, 0.1, seed=7))
    assert len(maps) == 2


def test_variational_residuals_take_one_pass_of_each_kind(monkeypatch):
    gradients = _counting(monkeypatch, "value_and_gradn")
    directionals = _counting(monkeypatch, "directional")
    rows = sym.variational_residuals(chart.jet_columns(10, 0.1, seed=7))
    assert rows.shape == (6, 10)
    assert len(gradients) == 1 and len(directionals) == 1


@pytest.mark.parametrize("column, want", [
    # x within the tan guard of pi/2: chi1's tan x, the first factor to fail
    (0, "tan evaluated at 1.5707963267947966 (at evaluation point"
        " (1.5707963267947966, -0.4, 2.0), index (1,))"),
    # y there: tan x passes, and chi1's sec y fails before chi4's tan y
    (1, "sec evaluated at 1.5707963267947966 (at evaluation point"
        " (0.5, 1.5707963267947966, 2.0), index (1,))"),
], ids=["x", "y"])
def test_a_failing_stacked_pass_raises_the_first_generators_domain_error(column, want):
    point = [np.array([0.3, 0.5]), np.array([0.2, -0.4]), np.array([1.0, 2.0])]
    point[column][1] = math.pi / 2 - 1e-13
    jets = chart.JetColumns(*point, np.array([0.1, 0.2]), np.array([0.3, -0.5]))
    for call in (lambda: sym._bracket_values(*point), lambda: sym.variational_residuals(jets)):
        with pytest.raises(jc.DomainError) as err:
            call()
        assert (str(err.value), err.value.func, err.value.argument, err.value.index) == (
            want, want[:3], math.pi / 2 - 1e-13, (1,))


@pytest.mark.parametrize("generator, func", [(1, "sec"), (2, "sec"), (4, "tan"), (5, "tan")])
def test_a_lone_generator_raises_the_domain_error_of_the_y_factor_it_reads_first(generator, func):
    # sec y and tan y come from one jetcalc.sec_tan; chi1 and chi2 read sec y,
    # chi4 and chi5 read tan y, and the pole error names the factor read
    point = (np.array([0.3, 0.5]), np.array([0.2, math.pi / 2 - 1e-13]), np.array([1.0, 2.0]))
    with pytest.raises(jc.DomainError) as err:
        jc.value_and_gradn(sym.chi(generator), point)
    assert str(err.value) == (f"{func} evaluated at 1.5707963267947966 (at evaluation point"
                              " (0.5, 1.5707963267947966, 2.0), index (1,))")


def test_a_generator_stores_only_the_factors_it_reads():
    f = sym._Factors(0.1, 0.2, 0.3)
    sym._chi3(f)
    assert sorted(vars(f)) == ["cos_y", "sin_y", "tan_x", "v", "x", "y"]


@pytest.mark.parametrize("first, partner", [("tan", "sec"), ("sec", "tan")])
def test_the_first_y_factor_read_forms_and_stores_both(first, partner):
    # sec y and tan y come from one jetcalc.sec_tan: at the pole the first
    # read raises its own DomainError and stores nothing; elsewhere it
    # stores both, each equal to sec_tan's half bitwise
    f = sym._Factors(0.1, chart.HALF_PI, 0.3)
    with pytest.raises(jc.DomainError) as err:
        getattr(f, f"{first}_y")
    assert err.value.func == first
    assert "tan_y" not in vars(f) and "sec_y" not in vars(f)
    for y in (0.2, np.array([-1.1, 0.0, 1.4])):
        f = sym._Factors(0.1, y, 0.3)
        getattr(f, f"{first}_y")
        stored = vars(f)
        sec_y, tan_y = jc.sec_tan(y, first)
        assert np.asarray(stored["sec_y"]).tobytes() == np.asarray(sec_y).tobytes()
        assert np.asarray(stored["tan_y"]).tobytes() == np.asarray(tan_y).tobytes()
        assert f.sec_y is stored["sec_y"] and f.tan_y is stored["tan_y"]


def test_lie_bracket_takes_one_gradient_pass_per_field(monkeypatch):
    passes = _counting(monkeypatch, "value_and_gradn")
    p = chart.domain_columns(10, 0.1, 0)
    for i, j in itertools.product(range(1, 7), repeat=2):
        B = sym.lie_bracket(sym.chi(i), sym.chi(j))
        del passes[:]
        B(p.x, p.y, p.v)
        assert len(passes) == 2
        assert [args[0] for args in passes] == [sym.chi(i), sym.chi(j)]


def test_variational_residual_reads_the_prolongations_total_derivative(monkeypatch):
    gradients = _counting(monkeypatch, "value_and_gradn")
    directionals = _counting(monkeypatch, "directional")
    variational_residual(sym.chi(1), chart.jet_columns(10, 0.1, seed=7))
    assert len(gradients) == 1 and len(directionals) == 1


def test_identify_field_rejects_an_empty_point_list():
    for points in ([], iter(())):
        with pytest.raises(ValueError, match="^identify_field needs at least one sample point"):
            sym.identify_field(sym.chi(1), points, 1e-8)


def test_identify_rejects_scaled_candidate():
    points = chart.sample_domain(30, 0.1, seed=15)
    with pytest.raises(sym.AmbiguousIdentification, match="^no candidate matches the field: "):
        sym.identify_field(scale(0.5, sym.chi(1)), points, 1e-8)


def test_identify_rejects_a_field_with_a_nan_value():
    # chi3 with xi nan at one of 20 points: every candidate's residual is nan
    points = chart.sample_domain(20, 0.1, seed=15)
    xi, phi, eta = (component(sym.chi(3), i) for i in range(3))
    bad_x = points[7].x
    planted = field(lambda x, y, v: np.where(x == bad_x, math.nan, xi(x, y, v)), phi, eta)
    with pytest.raises(sym.AmbiguousIdentification,
                       match=r"^no candidate matches the field: best zero deviates by nan$"):
        sym.identify_field(planted, points, 1e-8)


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
    table = sym.bracket_table(samples=50, tol=1e-8, seed=7)
    grid = _ids(table)
    assert sym.closed_triples(grid) == PAPER_TRIPLES


# ------------------------------------------------------ second prolongation

def test_prolong2_translation_on_v_independent_function():
    def F(x, y, v, y_x, v_x, y_xx, v_xx):
        return x * y_xx + jc.sin(y) * v_x

    j2 = chart.jet2(0.3, 0.1, 2.0, 0.4, -0.2, 0.6, 0.9)
    assert sym.prolong2_apply(sym.chi(6), F, j2) == 0.0


def test_prolong2_evaluates_the_first_prolongation_once(monkeypatch):
    prolongations = _counting(monkeypatch, "_prolong1_values")
    passes = _counting(monkeypatch, "value_and_gradn")
    F = geodesics.collapsed_fn(0.25)
    sym.prolong2_apply(sym.chi(1), F, chart.jet2(0.3, 0.1, 2.0, 0.4, -0.2, 0.6, 0.9))
    assert len(prolongations) == 1 and len(passes) == 1


def test_prolong2_constant_field_on_curvature_slot():
    def V(x, y, v):  # the constant field d/dy
        return 0.0, 1.0, 0.0

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
    c = chart.jet_columns(200, 0.1, seed=17)
    jets = [chart.jet1(*row) for row in zip(*(a.tolist() for a in c[:5]))]
    worst = 0.0
    for i in range(1, 7):
        V = sym.chi(i)
        for j in jets:
            y_xx, v_xx = geodesics.el_rhs(j)
            j2 = chart.jet2(j.x, j.y, j.v, j.y_x, j.v_x, y_xx, v_xx)
            worst = max(worst, abs(sym.prolong2_apply(V, el_expression_y, j2)))
            worst = max(worst, abs(sym.prolong2_apply(V, el_expression_v, j2)))
    assert worst < 1e-7
