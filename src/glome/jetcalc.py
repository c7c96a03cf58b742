"""Forward-mode dual-number scalars and pointwise derivative helpers.

Every derivative taken anywhere in this library goes through the functions
here: first order by seeding a direction, second order by nesting duals.
There are no finite differences outside the test suite and no symbolic
expression trees anywhere.

A gradient (`gradn`, `value_and_gradn`) is one dual pass, vector forward
mode: argument i is seeded with row i of an identity matrix, which sits
on a new leading axis in front of every axis that any layer of any
argument already has, and component i is read off that axis through
every dual layer (a layer without it is shared by all directions).
Placing the axis in front of all the arguments' axes keeps the seed axes
of nested gradients apart: a gradient inside a gradient (a bracket of a
bracket) seeds its own axis in front of the outer one.  `directional` and
`value_and_gradn` read every component of a tuple result off one pass.

The rule for nesting: every dual that ``f`` reads enters through ``args``
(or ``direction``).  Duals carry no tag telling the passes apart, so an
``f`` that closes over a dual of an enclosing pass reads that pass's
infinitesimal as its own and returns a wrong number without an error
(perturbation confusion): ``directional(lambda s: value_and_gradn(lambda
b: s * b, (1.0,)), (2.0,), (1.0,))`` gives d/db (s b) = 3.0 at s = 2.
Every pass in this package passes its outer duals as arguments, and the
functions it hands over close over constants, seeds and coefficient
functions only.

The elementary functions (`sin`, `cos`, `tan`, `sec`, `sqrt`, `arcsin`,
`arctan`, `atan2`), `power` and `sec_tan` (sec and tan of one argument
together) accept plain floats or :class:`DualScalar`
values and can be nested to any depth.  They raise :class:`DomainError`
instead of returning non-finite values, because the chart singularities
cos x = 0 and cos y = 0 lurk behind most expressions built on top of them.
An infinite argument to `sin` or `cos` is such an error (`tan` and `sec`
meet it in the `cos` they evaluate, and the dual rules of `sin` and `cos`
in the `sin` of the dual's value).  So are a `power` too large for a
float, a fractional power of a negative base and a negative power of
zero, for a float, an array or a dual alike.
Division does the same for a divisor whose real part is zero, or, for a
dual divisor, so small that its square underflows (|real part| below
1.49e-154, see `squarable`) whatever the numerator, and `arcsin` of a
dual at +/-1, where its derivative diverges.  Non-finite values still
come out of infinite inputs elsewhere: `sqrt` of +inf is inf (the
integrand overflow checks built on `chart.lagrangian` rely on that), and
dividing by an infinite dual, or `atan2` of infinite duals, gives a nan
derivative.

A :class:`glome.tape.Var` in a float's place is a value that
:func:`glome.tape.record` traces, and the dual rules reach it through its
operators.  `sin`, `cos` and `sqrt`, the division's divisor check and
the dual `sqrt`'s zero-root check record one call of themselves on it,
so a replay runs them and raises their DomainError.  The other
elementary functions call `math` or test their float layer, which a Var
refuses.

Array values: the components of a :class:`DualScalar` may also be numpy
float arrays, so that one pass carries many points or many directions
(broadcasting as numpy does).  `+`, `-`, `*`, `/`, `**`, `power` and every
elementary function accept them and apply the same floating-point
operations element by element, so an element of an array result equals
the scalar result bitwise wherever numpy's `sin`, `cos` and `sqrt` equal
the `math` ones.  `tan`, `arcsin`, `arctan`, `atan2` and `**` call
`math.tan`, `math.asin`, `math.atan`, `math.atan2` and Python's `**` on
each element, because numpy's versions round differently in the last
place.  Each domain rule is written once for floats and arrays alike: a
float that breaks it raises with the float as the argument, an array
raises at its first offending element and the message adds that index.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .tape import Var

_ndarray = np.ndarray

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
    """Raise DomainError where ``bad`` holds.

    A scalar test raises with ``values`` as the argument.  A boolean array
    raises at its first True, naming its index and the element of
    ``values`` (broadcast to the shape of ``bad``) there.
    """
    if not isinstance(bad, _ndarray):
        if bad:
            raise DomainError(func, values, detail)
    elif np.count_nonzero(bad):  # cheaper than bad.any() on the arrays here
        idx = np.unravel_index(int(np.argmax(bad)), bad.shape)
        idx = tuple(int(i) for i in idx)
        value = float(np.broadcast_to(values, bad.shape)[idx])
        raise DomainError(func, value, f"{detail} at index {idx}", idx)


def _map(f, u, *more):
    """``f(u, *more)``; for array arguments, ``f`` of each element (broadcast)
    as Python floats, because numpy's versions of the `math` functions
    round differently in the last place."""
    if not (isinstance(u, _ndarray) or more and any(isinstance(a, _ndarray) for a in more)):
        return f(u, *more)
    args = np.broadcast_arrays(u, *more) if more else (u,)
    flat = (a.ravel().tolist() for a in args)
    return np.fromiter(map(f, *flat), float, args[0].size).reshape(args[0].shape)


def _overflows(b, exponent) -> bool:
    try:
        b**exponent
    except OverflowError:
        return True
    return False


def power(u, exponent):
    """``u ** exponent`` of a float, a dual or an array (Python's ``**`` on each element).

    A fractional power of a negative base, a negative power of zero and a
    result too large for a float raise DomainError, where Python's ``**``
    returns a complex number or raises ZeroDivisionError or OverflowError."""
    base = real_value(u)
    if exponent % 1:  # a fractional exponent
        _guard(base < 0.0, "pow", base, f"fractional power {exponent} of a negative base")
    if exponent < 0:
        _guard(base == 0.0, "pow", base, f"negative power {exponent} of zero")
    try:
        return _map(lambda b: b**exponent, u)
    except OverflowError:  # Python's ** raises it where a finite base's power is too large
        _guard(_map(_overflows, u, exponent), "pow", u, f"power {exponent} overflows")
        raise  # not reached: the guard names the element that overflowed


# a nonzero divisor below this has a square below the smallest normal float,
# which the quotient rule's ov * ov loses to underflow
_SQUARE_UNDERFLOW = math.sqrt(sys.float_info.min)


def squarable(den):
    """True (per element, for an array) where ``den`` is nonzero and its
    square is a normal float, that is, where a dual whose real part is
    ``den`` may divide."""
    return np.abs(den) >= _SQUARE_UNDERFLOW


def _check_divisor(den, dual: bool) -> None:
    """Raise DomainError where the real part ``den`` of a divisor is zero or,
    for a ``dual`` divisor, too small to square."""
    if isinstance(den, Var):
        den.apply(_check_divisor, dual)
        return
    if dual:
        tiny = abs(den) < _SQUARE_UNDERFLOW  # zero included, so one test clears most divisors
        if not (np.count_nonzero(tiny) if isinstance(tiny, _ndarray) else tiny):
            return
    _guard(den == 0.0, "divide", den, "zero denominator")
    if dual:
        _guard(tiny, "divide", den, "squared denominator underflows")


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
            _check_divisor(real_value(other), dual=True)
            ov = other.value
            return DualScalar(
                self.value / ov,
                (self.derivative * ov - self.value * other.derivative) / (ov * ov),
            )
        _check_divisor(other, dual=False)
        inv = 1.0 / other
        return DualScalar(self.value * inv, self.derivative * inv)

    def __rtruediv__(self, other):
        _check_divisor(real_value(self), dual=True)
        quotient = other / self.value
        return DualScalar(quotient, -quotient * self.derivative / self.value)

    def __neg__(self):
        return DualScalar(-self.value, -self.derivative)

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, float)):
            raise TypeError("dual powers require a numeric exponent")
        if exponent == 0:
            return DualScalar(self.value**0, 0.0)
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


_INFINITE = "infinite argument"


def _sincos(u):
    """(sin u, cos u) for the dual rules of sin and cos, which need both
    of a dual's value: each layer is evaluated, and an array checked, once."""
    if isinstance(u, DualScalar):
        s, c = _sincos(u.value)
        return DualScalar(s, c * u.derivative), DualScalar(c, -s * u.derivative)
    if isinstance(u, _ndarray):
        _guard(np.isinf(u), "sin", u, _INFINITE)
        return np.sin(u), np.cos(u)
    return sin(u), cos(u)


def sin(u):
    if u.__class__ is not float:  # a float is the innermost layer of every dual
        if isinstance(u, DualScalar):
            s, c = _sincos(u.value)
            return DualScalar(s, c * u.derivative)
        if isinstance(u, _ndarray):
            _guard(np.isinf(u), "sin", u, _INFINITE)
            return np.sin(u)
        if isinstance(u, Var):
            return u.apply(sin)
    try:
        return math.sin(u)
    except ValueError:  # math.sin's one domain error
        raise DomainError("sin", u, _INFINITE) from None


def cos(u):
    if u.__class__ is not float:
        if isinstance(u, DualScalar):
            s, c = _sincos(u.value)
            return DualScalar(c, -s * u.derivative)
        if isinstance(u, _ndarray):
            _guard(np.isinf(u), "cos", u, _INFINITE)
            return np.cos(u)
        if isinstance(u, Var):
            return u.apply(cos)
    try:
        return math.cos(u)
    except ValueError:  # math.cos's one domain error
        raise DomainError("cos", u, _INFINITE) from None


def tan(u):
    return sec_tan(u, "tan")[1]


def sec(u):
    return sec_tan(u, "sec")[0]


def sec_tan(u, first: str):
    """(sec u, tan u); tan and sec each read one half.

    sec's dual rule needs the tan of the dual's value, so the pair forms
    cos, 1/cos and the math.tan map of each layer once, as _sincos does
    for sin and cos.  A pole raises the DomainError of ``first`` ("sec"
    or "tan"), the one of the two that the caller reads first; an
    infinite argument raises cos's.
    """
    if isinstance(u, DualScalar):
        c = cos(u.value)
        s, t = _sec_tan(u.value, c, first)
        return DualScalar(s, s * t * u.derivative), DualScalar(t, u.derivative / (c * c))
    return _sec_tan(u, cos(u), first)


def _sec_tan(u, c, first: str):
    """sec_tan(u, first) given c = cos u, which a dual's tan rule needs too."""
    if isinstance(u, DualScalar):
        return sec_tan(u, first)
    _guard(abs(c) < _POLE_TOL, first, u, "cosine of the argument vanishes")
    return 1.0 / c, _map(math.tan, u)


def sqrt(u):
    if isinstance(u, DualScalar):
        r = sqrt(u.value)
        if not isinstance(r, DualScalar):  # a dual root's innermost layer checked it
            _check_root(r)
        return DualScalar(r, u.derivative / (2.0 * r))
    if isinstance(u, Var):
        return u.apply(sqrt)
    _guard(u < 0.0, "sqrt", u, "negative radicand")
    return np.sqrt(u) if isinstance(u, _ndarray) else math.sqrt(u)


def _check_root(r) -> None:
    """Raise DomainError where a dual's root ``r`` is zero: sqrt's derivative diverges there."""
    if isinstance(r, Var):
        r.apply(_check_root)
        return
    _guard(r == 0.0, "sqrt", r, "derivative singular at zero")


def arcsin(u):
    if isinstance(u, DualScalar):
        value = arcsin(u.value)
        r = real_value(u)
        _guard(abs(r) == 1.0, "arcsin", r, "derivative singular at ±1")
        return DualScalar(value, u.derivative / sqrt(1.0 - u.value * u.value))
    _guard((u < -1.0) | (u > 1.0), "arcsin", u, "argument outside [-1, 1]")
    return _map(math.asin, u)


def arctan(u):
    if isinstance(u, DualScalar):
        return DualScalar(arctan(u.value), u.derivative / (1.0 + u.value * u.value))
    return _map(math.atan, u)


def atan2(y, x):
    """Quadrant-aware arctangent, dual-capable in both arguments."""
    if isinstance(y, DualScalar) or isinstance(x, DualScalar):
        if not isinstance(y, DualScalar):
            y = DualScalar(y, 0.0)
        if not isinstance(x, DualScalar):
            x = DualScalar(x, 0.0)
        rsq = x.value * x.value + y.value * y.value
        r = real_value(rsq)
        _guard(r == 0.0, "atan2", r, "x^2 + y^2 is zero")
        return DualScalar(
            atan2(y.value, x.value),
            (x.value * y.derivative - y.value * x.derivative) / rsq,
        )
    _guard((y == 0.0) & (x == 0.0), "atan2", y, "both arguments zero")
    return _map(math.atan2, y, x)


def _split(result):
    """(value, derivative) of one result of a directional pass; a constant has derivative 0."""
    if isinstance(result, DualScalar):
        return result.value, result.derivative
    return result, 0.0


def directional(f, args, direction):
    """Value of ``f(*args)`` and its derivative along ``direction``.

    One forward pass; both ``args`` and ``direction`` entries may be duals
    (the latter happens when an outer differentiation supplies the
    direction, e.g. in total-derivative contractions).  A tuple-valued
    ``f`` gives a tuple of values and one of derivatives, read off as a
    lone result's.
    """
    result = f(*map(DualScalar, args, direction))
    if isinstance(result, tuple):
        return tuple(zip(*map(_split, result))) or ((), ())
    return _split(result)


def _depth(u) -> int:
    """The most axes that any layer of ``u`` has."""
    if isinstance(u, DualScalar):
        return max(_depth(u.value), _depth(u.derivative))
    return u.ndim if isinstance(u, _ndarray) else 0


def _directions(c, what: str, n: int, depth: int) -> list:
    """The n parts of ``c``, the pass's ``what`` (value or derivative),
    seeded along a leading axis of n directions in front of ``depth`` axes,
    read off that axis layer by layer; at ``depth`` 0 they are Python
    floats.  A layer without the axis is shared by all directions: one with
    at most ``depth`` axes, or a unit leading axis, which a gradient nested
    inside this one leaves where this pass's seed axis had not reached it."""
    if isinstance(c, DualScalar):
        return list(map(DualScalar, _directions(c.value, what, n, depth),
                        _directions(c.derivative, what, n, depth)))
    if isinstance(c, _ndarray) and c.ndim > depth:
        if c.ndim > depth + 1:
            raise ValueError(f"the {what} has {c.ndim} axes, but the seed axis is"
                             f" in front of the {depth} of the arguments")
        if len(c) == n:
            return c.tolist() if depth == 0 else list(c)
    return [c] * n


def value_and_gradn(f, args):
    """``f(*args)`` and its gradient in ``len(args)`` reals, from one
    forward pass.

    Argument i is seeded with row i of an identity matrix, on a new
    leading axis in front of every axis that any layer of any argument
    has, and each gradient component is read off that axis.  The value is
    the seeded pass's own, read off as one more component: a unit axis that
    a gradient nested inside ``f`` leaves is dropped, and a float point
    gives Python floats.  It repeats the plain evaluation's
    floating-point operations, so for the generator coefficients it
    equals ``f(*args)`` bitwise; a dual divided by a plain number is
    multiplied by its reciprocal, though, and a dual's ``**`` is Python's
    on each element, so an ``f`` using those may differ from its plain
    evaluation in the last place.  A tuple-valued ``f`` gives a tuple of
    values and a tuple of gradients, each read off as a lone result's (a
    constant's gradient is ``(0.0,) * n``).  ``f`` must not give its result
    more axes than its arguments have (ValueError).  A DomainError is
    re-raised with the evaluation point attached; for array arguments,
    with the index the failure names and the point at that index.  When
    an argument is a dual (an outer differentiation), it is re-raised
    unchanged.
    """
    n = len(args)
    depth = max(map(_depth, args), default=0)
    try:
        value, derivative = directional(f, args, np.eye(n).reshape((n, n) + (1,) * depth))
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

    def read(value, derivative):
        return (_directions(value, "value", 1, depth)[0],
                tuple(_directions(derivative, "derivative", n, depth)))

    if isinstance(value, tuple):
        return tuple(zip(*map(read, value, derivative))) or ((), ())
    return read(value, derivative)


def gradn(f, args):
    """Gradient of a function of ``len(args)`` reals (one per component of a
    tuple), from the one seeded pass of :func:`value_and_gradn`.

    Exact to machine precision for compositions of the supported
    elementary functions, and bitwise equal to one pass per argument
    seeded with 1.0 there and 0.0 elsewhere, up to unit axes that
    broadcast away.  A float point gives Python floats.  Domain failures
    are re-raised as in :func:`value_and_gradn`.
    """
    return value_and_gradn(f, args)[1]
