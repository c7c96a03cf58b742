"""Record a computation on floats and arrays once; replay it as straight-line code.

:func:`record` calls a function once on :class:`Var` stand-ins for its
arguments, Python floats or numpy arrays.  Each Python operator that
reaches a Var (``+ - * /`` and unary ``-``) is carried out on the real
operands and appended to a Wengert list, and so is each function that a
Var is handed to through :meth:`Var.apply`, with any constant operands
(jetcalc's ``sin``, ``cos`` and ``sqrt`` hand on theirs, and so do its
divisor and root checks).
(Wengert, "A simple automatic derivative evaluation program", CACM 7(8),
1964; Griewank and Walther, *Evaluating Derivatives*, 2nd ed., SIAM 2008.)
The list is compiled, in memory, into one function of as many arguments,
each entry the same Python expression on the same operands, in the same
order.  A replay therefore repeats the recorded operations bitwise, and
raises where they raise; what it leaves out is whatever ran around them
(dual layers, dispatch, recursion).  A replay drops each variable that
is not an output right after the line that last reads it, so, like the
recorded computation, it holds only the intermediates still to be read.

The list holds no branch, so a function's control flow must not depend
on its Vars' values: a test of one belongs inside a function handed to
:meth:`Var.apply`, which raises where the test fails.  Whatever would
branch on a Var or leave the list fails at record time with TypeError:
a truth test, a comparison, ``abs`` and ``float()`` of a Var (so
``math`` refuses it), and a numpy call other than an operator.  A
function may not branch on its Vars' types either (a Var is neither a
float nor an ndarray to ``isinstance``), and may catch no exception that
one of its operations raises (a replay raises it).
"""

from __future__ import annotations

import math
import operator

_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


class _Recording:
    """The Wengert list of one :func:`record` call: source lines, the
    names they read besides their variables (functions and constants), and
    for each variable a line defines or reads, the index of the line that
    last reads it (or defines it, if none does)."""

    def __init__(self):
        self.count = 0
        self.lines: list[str] = []
        self.namespace: dict = {}
        self.live: dict[str, int] = {}

    def var(self, value) -> Var:
        var = Var(self, value, f"v{self.count}")
        self.count += 1
        return var

    def operand(self, x) -> str:
        """Source text of an operand: a variable's name, the literal of a
        finite float or an int, or else a name bound in the namespace."""
        if isinstance(x, Var):
            if x._recording is not self:
                raise ValueError("an operand of another recording")
            return x.name
        if type(x) is int or type(x) is float and math.isfinite(x):
            text = repr(x)
            return f"({text})" if text.startswith("-") else text
        for name, value in self.namespace.items():
            if value is x:
                return name
        name = "_" + getattr(x, "__name__", "c")  # apart from the variables' names
        if not name.isidentifier():
            name = "_c"
        while name in self.namespace:
            name += "_"
        self.namespace[name] = x
        return name

    def emit(self, value, template: str, *operands) -> Var:
        """A new Var holding ``value``, recorded as ``template`` of ``operands``."""
        text = template.format(*map(self.operand, operands))
        var = self.var(value)
        self.lines.append(f"{var.name} = {text}")
        for x in (*operands, var):
            if isinstance(x, Var):
                self.live[x.name] = len(self.lines) - 1
        return var

    def output(self, result) -> str:
        """Source text of a result; its variables stay live to the end."""
        if isinstance(result, tuple):
            items = [self.output(r) for r in result]
            return f"({', '.join(items)}{',' if len(items) == 1 else ''})"
        text = self.operand(result)
        if isinstance(result, Var):
            self.live.pop(result.name, None)
        return text

    def body(self) -> list[str]:
        """The lines, each followed by a ``del`` of the variables it reads
        last; a variable that no line reads goes at the line defining it."""
        dead: list[list[str]] = [[] for _ in self.lines]
        for name, last in self.live.items():
            dead[last].append(name)
        body = []
        for line, names in zip(self.lines, dead):
            body.append(line)
            if names:
                body.append(f"del {', '.join(names)}")
        return body


def _value(x):
    return x.value if isinstance(x, Var) else x


def _binary(symbol: str):
    op = _OPERATORS[symbol]
    template = f"{{}} {symbol} {{}}"

    def forward(self, other):
        return self._recording.emit(op(self.value, _value(other)), template, self, other)

    def reflected(self, other):
        return self._recording.emit(op(other, self.value), template, other, self)

    return forward, reflected


class Var:
    """A traced argument of :func:`record`, or a value computed from one."""

    __slots__ = ("_recording", "value", "name")
    __array_ufunc__ = None  # an ndarray operand defers to the Var's reflected operator

    def __init__(self, recording: _Recording, value, name: str):
        self._recording = recording
        self.value = value
        self.name = name

    def __repr__(self) -> str:
        return f"Var({self.name} = {self.value!r})"

    __add__, __radd__ = _binary("+")
    __sub__, __rsub__ = _binary("-")
    __mul__, __rmul__ = _binary("*")
    __truediv__, __rtruediv__ = _binary("/")

    def __neg__(self):
        return self._recording.emit(-self.value, "-{}", self)

    def __bool__(self):
        raise TypeError("refusing to branch on a traced value; a replay has no branches")

    # < and the other orderings refuse a Var as they are; == would compare identities
    def __eq__(self, other):
        raise TypeError("refusing to compare a traced value; a replay has no branches")

    def __float__(self):
        raise TypeError("refusing to flatten a traced value; it would drop out of the tape")

    def apply(self, f, *constants):
        """``f(self, *constants)``, recorded as one call: ``f`` runs on the
        real value, now and in every replay."""
        return self._recording.emit(f(self.value, *constants),
                                    "{}({}" + ", {}" * len(constants) + ")", f, self, *constants)


def record(f, args):
    """A function of ``len(args)`` arguments that replays ``f``'s operations
    on ``args`` (floats or arrays), as the module docstring describes:
    ``f(*args)`` computed by the recorded operations.  ``f`` may return a
    Var, a constant or a tuple of them, nested."""
    recording = _Recording()
    params = [recording.var(a) for a in args]
    result = recording.output(f(*params))
    source = "\n    ".join([f"def replay({', '.join(p.name for p in params)}):",
                            *recording.body(), f"return {result}"])
    namespace = dict(recording.namespace)
    exec(compile(source, "<tape>", "exec"), namespace)
    return namespace["replay"]
