import math

import numpy as np
import pytest

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
