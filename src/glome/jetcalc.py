"""Forward-mode dual-number scalars and pointwise derivative helpers.

Every derivative taken anywhere in this library goes through the functions
here: first order by seeding a direction, second order by nesting duals.
There are no finite differences outside the test suite and no symbolic
expression trees anywhere.

The elementary functions (`sin`, `cos`, `tan`, `sec`, `sqrt`, `arcsin`,
`arctan`, `atan2`) and `power` accept plain floats or :class:`DualScalar`
values and can be nested to any depth.  They raise :class:`DomainError`
instead of returning non-finite values, because the chart singularities
cos x = 0 and cos y = 0 lurk behind most expressions built on top of them.

Array values: the components of a :class:`DualScalar` may also be numpy
float arrays, so that one pass carries many points or many directions
(broadcasting as numpy does).  `+`, `-`, `*`, `/`, `**`, `power` and every
elementary function accept them and apply the same floating-point
operations element by element, so an element of an array result equals
the scalar result bitwise wherever numpy's `sin`, `cos` and `sqrt` equal
the `math` ones.  `tan`, `arcsin`, `arctan`, `atan2` and `**` call
`math.tan`, `math.asin`, `math.atan`, `math.atan2` and Python's `**` on
each element, because numpy's versions round differently in the last
place.  Their domain guards raise :class:`DomainError` naming the first
offending index.
"""

from __future__ import annotations

import math

import numpy as np

_ndarray = np.ndarray

__all__ = [
    "DomainError",
    "DualScalar",
    "real_value",
    "sin",
    "cos",
    "tan",
    "sec",
    "sqrt",
    "arcsin",
    "arctan",
    "atan2",
    "power",
    "directional",
    "gradn",
]

# |cos| below this counts as a tan/sec pole; generous enough to catch
# float(pi/2) itself (cos of it is ~6.1e-17) while never firing on the
# open chart sampled with the default 0.1 rad margin.
_POLE_TOL = 1e-12


class DomainError(ValueError):
    """An elementary function was evaluated outside its open domain."""

    def __init__(self, func: str, argument, detail: str = "", index=None):
        self.func = func
        self.argument = argument
        self.index = index  # position of ``argument`` in an array evaluation
        msg = f"{func} evaluated at {argument!r}"
        if detail:
            msg = f"{msg} ({detail})"
        super().__init__(msg)


def _guard(bad, func: str, values, detail: str) -> None:
    """Raise DomainError at the first True of the boolean array ``bad``."""
    if bad.any():
        idx = np.unravel_index(int(np.argmax(bad)), bad.shape)
        idx = tuple(int(i) for i in idx)
        raise DomainError(func, float(values[idx]), f"{detail} at index {idx}", idx)


def _elementwise(f, u, *more):
    """``f`` applied to each element of the array ``u`` (and of the same-shape
    arrays ``more``) as Python floats."""
    flat = (a.ravel().tolist() for a in (u, *more))
    return np.fromiter(map(f, *flat), float, u.size).reshape(u.shape)


def power(u, exponent):
    """``u ** exponent`` of a float, a dual or an array (Python's ``**`` on each element)."""
    if isinstance(u, _ndarray):
        return _elementwise(lambda b: b**exponent, u)
    return u**exponent


def _check_divisor(den) -> None:
    """Raise DomainError where the real part ``den`` of a divisor is zero."""
    if isinstance(den, _ndarray):
        _guard(den == 0.0, "divide", den, "zero denominator")
    elif den == 0.0:
        raise DomainError("divide", 0.0, "zero denominator")


class DualScalar:
    """Number carrying a value and one directional derivative.

    Components may themselves be DualScalar, which yields exact second
    (or higher) derivatives by nesting.  Arithmetic follows the Leibniz
    rule exactly; plain ints/floats and numpy arrays mix in as constants
    (derivative 0).
    """

    __slots__ = ("value", "derivative")
    __array_ufunc__ = None  # ndarray <op> DualScalar defers to the dual's reflected op

    def __init__(self, value, derivative=0.0):
        self.value = value
        self.derivative = derivative

    def __repr__(self) -> str:
        return f"DualScalar({self.value!r}, {self.derivative!r})"

    def __add__(self, other):
        if isinstance(other, DualScalar):
            return DualScalar(self.value + other.value, self.derivative + other.derivative)
        return DualScalar(self.value + other, self.derivative)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, DualScalar):
            return DualScalar(self.value - other.value, self.derivative - other.derivative)
        return DualScalar(self.value - other, self.derivative)

    def __rsub__(self, other):
        return DualScalar(other - self.value, -self.derivative)

    def __mul__(self, other):
        if isinstance(other, DualScalar):
            return DualScalar(
                self.value * other.value,
                self.derivative * other.value + self.value * other.derivative,
            )
        return DualScalar(self.value * other, self.derivative * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, DualScalar):
            _check_divisor(real_value(other))
            ov = other.value
            return DualScalar(
                self.value / ov,
                (self.derivative * ov - self.value * other.derivative) / (ov * ov),
            )
        _check_divisor(other)
        inv = 1.0 / other
        return DualScalar(self.value * inv, self.derivative * inv)

    def __rtruediv__(self, other):
        _check_divisor(real_value(self))
        quotient = other / self.value
        return DualScalar(quotient, -quotient * self.derivative / self.value)

    def __neg__(self):
        return DualScalar(-self.value, -self.derivative)

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, float)):
            raise TypeError("dual powers require a numeric exponent")
        if exponent == 0:
            return DualScalar(self.value**0, 0.0)
        base = real_value(self)
        fractional = exponent != int(exponent)
        if isinstance(base, _ndarray):
            if fractional:
                _guard(base < 0.0, "pow", base, f"fractional power {exponent} of a negative base")
            if exponent < 0:
                _guard(base == 0.0, "pow", base, f"negative power {exponent} of zero")
        elif fractional and base < 0.0:
            raise DomainError("pow", base, f"fractional power {exponent} of a negative base")
        elif exponent < 0 and base == 0.0:
            raise DomainError("pow", 0.0, f"negative power {exponent} of zero")
        return DualScalar(
            power(self.value, exponent),
            exponent * power(self.value, exponent - 1) * self.derivative,
        )

    def __float__(self):
        raise TypeError("refusing to flatten a DualScalar; use real_value()")


def real_value(u):
    """Strip all dual layers off ``u`` and return the underlying float (or array)."""
    while isinstance(u, DualScalar):
        u = u.value
    return u


def sin(u):
    if u.__class__ is float:  # the innermost layer of every dual; keep it cheapest
        return math.sin(u)
    if isinstance(u, DualScalar):
        return DualScalar(sin(u.value), cos(u.value) * u.derivative)
    if isinstance(u, _ndarray):
        return np.sin(u)
    return math.sin(u)


def cos(u):
    if u.__class__ is float:
        return math.cos(u)
    if isinstance(u, DualScalar):
        return DualScalar(cos(u.value), -sin(u.value) * u.derivative)
    if isinstance(u, _ndarray):
        return np.cos(u)
    return math.cos(u)


def tan(u):
    if isinstance(u, DualScalar):
        c = cos(u.value)
        return DualScalar(tan(u.value), u.derivative / (c * c))
    if isinstance(u, _ndarray):
        _guard(np.abs(np.cos(u)) < _POLE_TOL, "tan", u, "cosine of the argument vanishes")
        return _elementwise(math.tan, u)
    if abs(math.cos(u)) < _POLE_TOL:
        raise DomainError("tan", u, "cosine of the argument vanishes")
    return math.tan(u)


def sec(u):
    if isinstance(u, DualScalar):
        s = sec(u.value)
        return DualScalar(s, s * tan(u.value) * u.derivative)
    if isinstance(u, _ndarray):
        c = np.cos(u)
        _guard(np.abs(c) < _POLE_TOL, "sec", u, "cosine of the argument vanishes")
        return 1.0 / c
    if abs(math.cos(u)) < _POLE_TOL:
        raise DomainError("sec", u, "cosine of the argument vanishes")
    return 1.0 / math.cos(u)


def sqrt(u):
    if isinstance(u, DualScalar):
        r = sqrt(u.value)
        rv = real_value(r)
        if isinstance(rv, _ndarray):
            _guard(rv == 0.0, "sqrt", rv, "derivative singular at zero")
        elif rv == 0.0:
            raise DomainError("sqrt", 0.0, "derivative singular at zero")
        return DualScalar(r, u.derivative / (2.0 * r))
    if isinstance(u, _ndarray):
        _guard(u < 0.0, "sqrt", u, "negative radicand")
        return np.sqrt(u)
    if u < 0.0:
        raise DomainError("sqrt", u, "negative radicand")
    return math.sqrt(u)


def arcsin(u):
    if isinstance(u, DualScalar):
        return DualScalar(arcsin(u.value), u.derivative / sqrt(1.0 - u.value * u.value))
    if isinstance(u, _ndarray):
        _guard((u < -1.0) | (u > 1.0), "arcsin", u, "argument outside [-1, 1]")
        return _elementwise(math.asin, u)
    if u < -1.0 or u > 1.0:
        raise DomainError("arcsin", u, "argument outside [-1, 1]")
    return math.asin(u)


def arctan(u):
    if isinstance(u, DualScalar):
        return DualScalar(arctan(u.value), u.derivative / (1.0 + u.value * u.value))
    if isinstance(u, _ndarray):
        return _elementwise(math.atan, u)
    return math.atan(u)


def atan2(y, x):
    """Quadrant-aware arctangent, dual-capable in both arguments."""
    if isinstance(y, DualScalar) or isinstance(x, DualScalar):
        if not isinstance(y, DualScalar):
            y = DualScalar(y, 0.0)
        if not isinstance(x, DualScalar):
            x = DualScalar(x, 0.0)
        rsq = x.value * x.value + y.value * y.value
        r = real_value(rsq)
        if isinstance(r, _ndarray):
            _guard(r == 0.0, "atan2", r, "both arguments zero")
        elif r == 0.0:
            raise DomainError("atan2", (real_value(y), real_value(x)), "both arguments zero")
        return DualScalar(
            atan2(y.value, x.value),
            (x.value * y.derivative - y.value * x.derivative) / rsq,
        )
    if isinstance(y, _ndarray) or isinstance(x, _ndarray):
        y, x = np.broadcast_arrays(y, x)
        _guard((y == 0.0) & (x == 0.0), "atan2", y, "both arguments zero")
        return _elementwise(math.atan2, y, x)
    if y == 0.0 and x == 0.0:
        raise DomainError("atan2", (y, x), "both arguments zero")
    return math.atan2(y, x)


def directional(f, args, direction):
    """Value of ``f(*args)`` and its derivative along ``direction``.

    One forward pass; both ``args`` and ``direction`` entries may be duals
    (the latter happens when an outer differentiation supplies the
    direction, e.g. in total-derivative contractions).
    """
    seeded = tuple(DualScalar(a, d) for a, d in zip(args, direction))
    result = f(*seeded)
    if isinstance(result, DualScalar):
        return result.value, result.derivative
    return result, 0.0


def gradn(f, args):
    """Gradient of a scalar function of ``len(args)`` reals.

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
