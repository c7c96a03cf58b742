import math

import numpy as np
import pytest

from glome import chart, geodesics, reduction, suites, symmetries
from glome import jetcalc as jc


def central_diff(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def second_diff(f, x, h=1e-4):
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def d1(f, x0):
    """f'(x0): one dual seeded with direction 1."""
    return jc.directional(f, (x0,), (1.0,))[1]


def d2(f, x0):
    """f''(x0): two nested seeded duals."""
    return d1(lambda t: d1(f, t), x0)


def test_grad3_product_rule_exact():
    assert jc.gradn(lambda x, y, v: x * y, (2.0, 3.0, 0.0)) == (3.0, 2.0, 0.0)


def test_grad3_sin_at_zero():
    g = jc.gradn(lambda x, y, v: jc.sin(x), (0.0, 0.7, 2.0))
    assert g == (1.0, 0.0, 0.0)


def test_grad3_matches_finite_differences():
    def f(x, y, v):
        return jc.cos(x) * jc.cos(y)

    gx, gy, gv = jc.gradn(f, (0.4, 0.7, 0.0))
    fd_x = central_diff(lambda t: math.cos(t) * math.cos(0.7), 0.4)
    fd_y = central_diff(lambda t: math.cos(0.4) * math.cos(t), 0.7)
    assert abs(gx - fd_x) < 1e-8
    assert abs(gy - fd_y) < 1e-8
    assert gv == 0.0


def test_second_deriv_cubic():
    assert d2(lambda t: t * t * t, 2.0) == 12.0


def test_second_deriv_sin_at_zero():
    assert abs(d2(jc.sin, 0.0)) == 0.0


def test_second_deriv_tan_matches_finite_differences():
    fd = second_diff(math.tan, 0.5)
    assert abs(d2(jc.tan, 0.5) - fd) < 1e-6


def test_constant_and_identity_lifts():
    c = jc.DualScalar(3.5, 0.0)
    assert (c * c).derivative == 0.0
    ident = jc.DualScalar(3.5, 1.0)
    assert ident.derivative == 1.0
    assert (ident + 2.0).derivative == 1.0


def test_leibniz_rule_exact():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a, da, b, db = rng.uniform(-3, 3, 4)
        f = jc.DualScalar(a, da)
        g = jc.DualScalar(b, db)
        prod = f * g
        assert prod.derivative == da * b + a * db
        assert prod.value == a * b


def test_second_derivative_of_square_is_two_everywhere():
    rng = np.random.default_rng(1)
    for x in rng.uniform(-10, 10, 50):
        assert d2(lambda t: t * t, float(x)) == 2.0


def test_mixed_partials_commute():
    def f(x, y, v):
        return jc.sin(x * y) + jc.cos(y) * v + x * v * v

    def mixed(p, i, j):
        # d/d p_i of (d/d p_j f): the inner direction rides inside the outer dual
        e = np.eye(3).tolist()
        return jc.directional(lambda *a: jc.directional(f, a, e[j])[1], p, e[i])[1]

    rng = np.random.default_rng(2)
    for _ in range(50):
        p = tuple(rng.uniform(-1.2, 1.2, 3))
        for i in range(3):
            for j in range(i + 1, 3):
                d_ij = mixed(p, i, j)
                d_ji = mixed(p, j, i)
                assert abs(d_ij - d_ji) < 1e-12 * (1.0 + abs(d_ij))


def _random_polynomial(rng):
    """Random degree <= 4 polynomial in 3 variables with its exact gradient."""
    monos = [
        (a, b, c)
        for a in range(5)
        for b in range(5)
        for c in range(5)
        if a + b + c <= 4
    ]
    coeffs = rng.uniform(-1.0, 1.0, len(monos))

    def poly(x, y, v):
        total = 0.0
        for (a, b, c), w in zip(monos, coeffs):
            total = total + w * x**a * y**b * v**c
        return total

    def grad(x, y, v):
        gx = gy = gv = 0.0
        for (a, b, c), w in zip(monos, coeffs):
            if a:
                gx += w * a * x ** (a - 1) * y**b * v**c
            if b:
                gy += w * b * x**a * y ** (b - 1) * v**c
            if c:
                gv += w * c * x**a * y**b * v ** (c - 1)
        return (gx, gy, gv)

    return poly, grad


def test_grad3_against_expanded_polynomial_gradients():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        poly, grad = _random_polynomial(rng)
        p = tuple(rng.uniform(-1.0, 1.0, 3))
        got = jc.gradn(poly, p)
        want = grad(*p)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12 * (1.0 + abs(w))


def test_chain_rule():
    def g(x, y, v):
        return jc.cos(x) * y + v * x

    def f_of_g(x, y, v):
        u = g(x, y, v)
        return jc.sin(u) + u * u

    rng = np.random.default_rng(4)
    for _ in range(100):
        p = tuple(rng.uniform(-1.2, 1.2, 3))
        u = g(*p)
        fprime = math.cos(u) + 2.0 * u
        grad_g = jc.gradn(g, p)
        got = jc.gradn(f_of_g, p)
        for gi, gg in zip(got, grad_g):
            want = fprime * gg
            assert abs(gi - want) <= 1e-12 * (1.0 + abs(want))


def test_directional_value_and_slope():
    def f(x, y):
        return x * x + 3.0 * y

    value, slope = jc.directional(f, (2.0, 1.0), (1.0, 2.0))
    assert value == 7.0
    assert slope == 2.0 * 2.0 * 1.0 + 3.0 * 2.0


def test_atan2_derivative():
    def f(t):
        return jc.atan2(jc.sin(t), jc.cos(t))

    # d/dt atan2(sin t, cos t) = 1 away from the branch cut
    assert abs(d1(f, 0.3) - 1.0) < 1e-14
    assert abs(d1(f, -1.2) - 1.0) < 1e-14


def test_dual_atan2_whose_squared_radius_underflows_raises():
    assert jc.atan2(1e-170, 0.0) == math.pi / 2
    with pytest.raises(jc.DomainError, match=r"x\^2 \+ y\^2 is zero") as err:
        jc.atan2(jc.DualScalar(1e-170, 1.0), 0.0)
    assert err.value.argument == 0.0


def test_tan_pole_raises():
    with pytest.raises(jc.DomainError):
        jc.tan(math.pi / 2)


def test_sec_pole_raises():
    with pytest.raises(jc.DomainError):
        jc.sec(math.pi / 2)


def test_arcsin_outside_interval_raises():
    with pytest.raises(jc.DomainError):
        jc.arcsin(1.5)


def test_sqrt_negative_raises():
    with pytest.raises(jc.DomainError):
        jc.sqrt(-1.0)


def test_division_by_zero_raises():
    with pytest.raises(jc.DomainError):
        jc.DualScalar(1.0, 1.0) / 0.0
    with pytest.raises(jc.DomainError):
        jc.DualScalar(1.0, 1.0) / jc.DualScalar(0.0, 1.0)


def test_division_by_a_dual_whose_square_underflows_raises():
    tiny = jc._SQUARE_UNDERFLOW
    for den in (1e-200, -1e-160, math.nextafter(tiny, 0.0), 5e-324):
        assert not jc.squarable(den)
        with pytest.raises(jc.DomainError, match="squared denominator underflows"):
            jc.DualScalar(1.0, 1.0) / jc.DualScalar(den, 1.0)
        with pytest.raises(jc.DomainError, match="squared denominator underflows"):
            1.0 / jc.DualScalar(den, 1.0)
    assert jc.squarable(tiny) and jc.squarable(-tiny) and not jc.squarable(0.0)
    q = jc.DualScalar(1.0, 1.0) / jc.DualScalar(tiny, 1.0)  # the square is the smallest normal
    assert q.derivative == (tiny - 1.0) / (tiny * tiny)
    r = 1e-150 / jc.DualScalar(tiny, 1.0)
    assert r.derivative == -(1e-150 / tiny) * 1.0 / tiny
    dens = np.array([0.5, 1e-160, 1e-200])
    assert jc.squarable(dens).tolist() == [True, False, False]
    with pytest.raises(jc.DomainError, match=r"underflows at index \(1,\)") as err:
        jc.DualScalar(np.ones(3), 1.0) / jc.DualScalar(dens, 1.0)
    assert err.value.index == (1,) and err.value.argument == 1e-160
    for num in (1.0, np.ones(3)):
        with pytest.raises(jc.DomainError, match=r"underflows at index \(1,\)") as err:
            num / jc.DualScalar(dens, 1.0)
        assert err.value.index == (1,) and err.value.argument == 1e-160
    with pytest.raises(jc.DomainError, match="squared denominator underflows"):
        np.ones(3) / jc.DualScalar(1e-160, 1.0)


def test_arcsin_derivative_at_plus_minus_one_raises():
    for u in (1.0, -1.0):
        with pytest.raises(jc.DomainError, match="derivative singular at ±1"):
            jc.arcsin(jc.DualScalar(u, 1.0))
        with pytest.raises(jc.DomainError, match="derivative singular at ±1"):
            jc.arcsin(jc.DualScalar(jc.DualScalar(u, 1.0), 1.0))
    with pytest.raises(jc.DomainError, match=r"singular at ±1 at index \(2,\)") as err:
        jc.arcsin(jc.DualScalar(np.array([0.5, -0.25, -1.0, 1.0]), 1.0))
    assert err.value.index == (2,) and err.value.argument == -1.0
    with pytest.raises(jc.DomainError, match=r"outside \[-1, 1\]"):
        jc.arcsin(jc.DualScalar(1.5, 1.0))
    assert jc.arcsin(1.0) == math.pi / 2  # the value alone is defined at the ends
    inner = jc.arcsin(jc.DualScalar(math.nextafter(1.0, 0.0), 1.0))
    assert math.isfinite(inner.derivative)


def test_grad3_domain_error_reports_point():
    with pytest.raises(jc.DomainError) as err:
        jc.gradn(lambda x, y, v: jc.tan(x), (math.pi / 2, 0.1, 0.2))
    assert "tan" in str(err.value)
    assert "evaluation point" in str(err.value)


def test_gradn_domain_error_on_arrays_names_index_and_point():
    xs = np.linspace(-1.0, 1.0, 1000)
    xs[617] = math.pi / 2
    with pytest.raises(jc.DomainError) as err:
        jc.gradn(lambda x, y, v: jc.tan(x) * y, (xs, np.full(1000, 0.25), 0.5))
    assert err.value.index == (617,)
    message = str(err.value)
    assert message.endswith(f"(at evaluation point ({math.pi / 2!r}, 0.25, 0.5), index (617,))")
    assert len(message) < 200  # the point, not the whole arrays


def test_gradn_refuses_a_result_with_more_axes_than_its_arguments():
    # a (4, 1) constant against a float point would put the seed axis second
    with pytest.raises(ValueError, match="seed axis"):
        jc.gradn(lambda x, y: x * np.ones((4, 1)) + y, (0.5, 0.25))


@pytest.mark.parametrize("f, part", [
    (lambda x: np.ones((2, 2)), "value"),
    # a dual constant whose derivative alone has the extra axes
    (lambda x: x * jc.DualScalar(1.0, np.ones((3, 2))), "derivative"),
], ids=["value", "derivative"])
def test_value_and_gradn_names_the_part_with_too_many_axes(f, part):
    message = f"the {part} has 2 axes, but the seed axis is in front of the 0 of the arguments"
    with pytest.raises(ValueError, match=f"^{message}$"):
        jc.value_and_gradn(f, (1.0,))


def test_power_overflow_is_a_domain_error():
    with pytest.raises(jc.DomainError, match=r"pow evaluated at 1e\+200 \(power 2 overflows\)$"):
        jc.power(1e200, 2)
    with pytest.raises(jc.DomainError, match=r"power 3 overflows at index \(2,\)") as err:
        jc.power(np.array([1.0, -2.0, -1e200, 1e300]), 3)
    assert err.value.index == (2,) and err.value.argument == -1e200
    with pytest.raises(jc.DomainError, match="power -2 overflows"):
        jc.DualScalar(5e-324, 1.0) ** -2
    assert jc.power(math.inf, 2) == math.inf  # an infinite base is not an overflow


@pytest.mark.parametrize("base, exponent, message, index", [
    (0.0, -1, "pow evaluated at 0.0 (negative power -1 of zero)", None),
    (np.array([1.0, 0.0]), -1, "pow evaluated at 0.0 (negative power -1 of zero at index (1,))",
     (1,)),
    (-1.0, 0.5, "pow evaluated at -1.0 (fractional power 0.5 of a negative base)", None),
    (np.array([1.0, -1.0]), 0.5,
     "pow evaluated at -1.0 (fractional power 0.5 of a negative base at index (1,))", (1,)),
])
def test_power_of_a_float_an_array_and_a_dual_meets_one_domain_rule(base, exponent, message, index):
    # plain Python ** raises ZeroDivisionError or returns a complex number here
    for u in (base, jc.DualScalar(base, 1.0)):
        with pytest.raises(jc.DomainError) as err:
            jc.power(u, exponent)
        assert str(err.value) == message and err.value.index == index
    with pytest.raises(jc.DomainError) as err:
        jc.DualScalar(base, 1.0) ** exponent
    assert str(err.value) == message


def test_dual_through_composed_functions_matches_fd():
    def f(x):
        return jc.arctan(jc.tan(x) * jc.sec(x)) + jc.sqrt(1.0 + x * x)

    for x0 in (0.3, -0.9, 1.1):
        d = d1(f, x0)
        fd = central_diff(
            lambda t: math.atan(math.tan(t) / math.cos(t)) + math.hypot(1.0, t), x0
        )
        assert abs(d - fd) < 1e-8


def test_array_guards_name_the_offending_index():
    with pytest.raises(jc.DomainError, match=r"negative radicand at index \(1,\)"):
        jc.sqrt(np.array([1.0, -1.0, -2.0]))
    with pytest.raises(jc.DomainError, match=r"derivative singular at zero at index \(1,\)"):
        jc.sqrt(jc.DualScalar(np.array([1.0, 0.0]), 1.0))
    den = jc.DualScalar(np.array([[1.0, 2.0, 0.0], [1.0, 1.0, 1.0]]), 1.0)
    with pytest.raises(jc.DomainError, match=r"zero denominator at index \(0, 2\)"):
        jc.DualScalar(np.ones((2, 3)), 1.0) / den
    with pytest.raises(jc.DomainError, match=r"index \(0,\)"):
        1.0 / jc.DualScalar(np.array([0.0, 1.0]), 1.0)
    with pytest.raises(jc.DomainError, match=r"index \(1,\)"):
        jc.DualScalar(1.0, 1.0) / np.array([1.0, 0.0])


def test_ndarray_operands_defer_to_the_dual():
    d = jc.DualScalar(np.array([1.0, 2.0]), np.array([0.5, 0.25]))
    c = np.array([3.0, 4.0])
    for prod in (c * d, d * c):
        assert isinstance(prod, jc.DualScalar)
        assert prod.value.tolist() == [3.0, 8.0]
        assert prod.derivative.tolist() == [1.5, 1.0]
    diff = c - d
    assert isinstance(diff, jc.DualScalar)
    assert diff.value.tolist() == [2.0, 2.0] and diff.derivative.tolist() == [-0.5, -0.25]


def test_array_branches_broadcast_directions():
    # one pass, three directions stacked along a leading axis
    x = jc.DualScalar(0.3, np.array([1.0, 0.0, 2.0]))
    out = jc.sqrt(1.0 + jc.sin(x) * jc.cos(x))
    assert out.derivative.shape == (3,)
    scalar = [jc.sqrt(1.0 + jc.sin(jc.DualScalar(0.3, d)) * jc.cos(jc.DualScalar(0.3, d)))
              for d in (1.0, 0.0, 2.0)]
    assert out.derivative.tolist() == [s.derivative for s in scalar]


# ------------------------------------------------------- perturbation confusion

def _closes_over_a_dual(f) -> bool:
    """Whether f reads a DualScalar that is not an argument: one held in a
    closure cell, in a tuple or list in one, or in the closure of a
    function held in one, to any depth."""
    stack, seen = [f], set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, jc.DualScalar):
            return True
        if isinstance(obj, (tuple, list)):
            stack.extend(obj)
        for cell in getattr(obj, "__closure__", None) or ():
            try:
                stack.append(cell.cell_contents)
            except ValueError:  # a cell not yet bound
                pass
    return False


def _scan_directional(monkeypatch) -> dict:
    """Wrap every module binding of jc.directional (value_and_gradn and
    gradn call it too) to count its calls and keep each function passed in
    that closes over a dual."""
    real, seen = jc.directional, {"calls": 0, "flagged": []}

    def scanned(f, args, direction):
        seen["calls"] += 1
        if _closes_over_a_dual(f):
            seen["flagged"].append(f)
        return real(f, args, direction)

    for module in (jc, chart, geodesics, reduction, suites, symmetries):
        if getattr(module, "directional", None) is real:
            monkeypatch.setattr(module, "directional", scanned)
    return seen


def test_scan_flags_a_closure_over_an_outer_dual(monkeypatch):
    # duals carry no tag: b's pass reads s's infinitesimal as its own, so
    # d/db (s b) comes out 3.0 where it is 2.0
    seen = _scan_directional(monkeypatch)
    jc.directional(lambda s: jc.value_and_gradn(lambda b: s * b, (1.0,)), (2.0,), (1.0,))
    assert seen["calls"] == 2 and len(seen["flagged"]) == 1
    # nested in a tuple, and in the closure of a nested function
    pair = (0.0, [jc.DualScalar(1.0, 1.0)])

    def inner():
        return pair

    assert _closes_over_a_dual(lambda: inner)
    assert not _closes_over_a_dual(lambda b: b * 2.0)


def test_no_pass_in_the_package_closes_over_a_dual(monkeypatch):
    # the rule of jetcalc's docstring: every dual that f reads enters through args
    # every kernel call replays the tape of the kernel's pass; with the
    # tape reset, each run's first kernel call records it, through the scan
    seen = _scan_directional(monkeypatch)
    monkeypatch.setattr(geodesics, "_kernel_tape", None)
    suites.run_all(suites.RunConfig(samples=50, trajectories=5, step=5e-3))
    calls = [seen["calls"]]
    monkeypatch.setattr(geodesics, "_kernel_tape", None)
    traj = geodesics.integrate(chart.jet1(0.0, 0.2, 0.3, 0.1, 0.2), 0.5, 1e-3)
    calls.append(seen["calls"])
    reduction.reduction_report(traj)
    calls.append(seen["calls"])
    assert 0 < calls[0] < calls[1] < calls[2]  # each run makes passes
    assert seen["flagged"] == []
