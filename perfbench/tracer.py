"""In-memory call tracer for the glome modules, installed from outside.

The tracer swaps public functions of the glome modules for wrappers and
puts the originals back when it is closed.  It never edits the package's
source.  Two kinds of wrapper exist:

* span wrappers (every public function of ``suites``, ``cli``,
  ``geodesics``, ``symmetries`` and ``reduction``, plus the trajectory
  CSV methods) record one span per call: name, start, end and parent span;
* count wrappers (every public function of ``chart`` and the derivative
  helpers of ``jetcalc``) only count calls.  These leaf layers run millions
  of times per report, so spans there would swamp the run.  The dual-number
  arithmetic and elementary functions of ``jetcalc`` stay unwrapped; their
  cost is measured by the isolated calls in ``layers.py``.

A function imported elsewhere with ``from ... import`` has several
bindings (``geodesics.directional`` is ``jetcalc.directional``); every
binding in every glome module is swapped, so calls through any of them are
seen.  Calls that resolve a module global at call time, such as the RK4
closure inside ``geodesics.integrate`` calling ``el_rhs``, go through the
swapped binding as well.
"""

from __future__ import annotations

import struct
import sys
import types
from array import array
from collections import Counter, defaultdict
from time import perf_counter

SPAN_MODULES = ("suites", "cli", "geodesics", "symmetries", "reduction")
SPAN_METHODS = (("geodesics", "Trajectory", "to_csv"), ("geodesics", "Trajectory", "from_csv"))
COUNT_MODULES = {
    "chart": None,  # every public function
    "jetcalc": ("derivative", "second_deriv", "directional", "grad3", "gradn", "second_partial"),
}

PACKAGE = "glome"
_MARK = "__perfbench_original__"
_JET_KEY = struct.Struct("5d")


def _public_functions(module, only=None):
    for name, obj in vars(module).items():
        if name.startswith("_") or not isinstance(obj, types.FunctionType):
            continue
        if obj.__module__ != module.__name__:
            continue  # a binding of another module's function; swapped with its owner
        if only is None or name in only:
            yield name, obj


class Tracer:
    """Context manager: installs the wrappers on enter, restores on exit.

    Spans are kept in flat arrays (name id, parent index, start, end) so a
    full default report, about half a million spans, stays small.
    """

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.outer_s: defaultdict = defaultdict(float)
        self.el_rhs_jets: set = set()
        self.rk4_steps = 0
        self._stack: list = []
        self._patched: list = []  # (namespace owner, attribute, original object)

    # -- installation -------------------------------------------------

    def _modules(self):
        prefix = PACKAGE + "."
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(prefix))]

    def _swap_everywhere(self, original, wrapper):
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def __enter__(self):
        try:
            for short in SPAN_MODULES:
                module = sys.modules[f"{PACKAGE}.{short}"]
                for name, fn in list(_public_functions(module)):
                    self._swap_everywhere(fn, self._span_wrapper(f"{short}.{name}", fn))
            for short, cls_name, meth in SPAN_METHODS:
                cls = getattr(sys.modules[f"{PACKAGE}.{short}"], cls_name)
                self._wrap_method(cls, meth, f"{short}.{cls_name}.{meth}")
            for short, only in COUNT_MODULES.items():
                module = sys.modules[f"{PACKAGE}.{short}"]
                for name, fn in list(_public_functions(module, only)):
                    self._swap_everywhere(fn, self._count_wrapper(f"{short}.{name}", fn))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        """Put every original back, last swap first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap_method(self, cls, meth, name):
        raw = cls.__dict__[meth]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._span_wrapper(name, raw.__func__))
        else:
            wrapped = self._span_wrapper(name, raw)
        self._patched.append((cls, meth, raw))
        setattr(cls, meth, wrapped)

    # -- wrappers -----------------------------------------------------

    def _span_wrapper(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        stack = self._stack
        span_names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        counts, self_s, outer_s = self.counts, self.self_s, self.outer_s
        active = [0]  # open spans of this name; only the outermost adds to outer_s
        observe = {"geodesics.el_rhs": self._observe_el_rhs,
                   "geodesics.integrate": self._observe_integrate}.get(name)

        def wrapper(*args, **kwargs):
            idx = len(span_names)
            span_names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            active[0] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                active[0] -= 1
                if not active[0]:
                    outer_s[name] += t1 - t0
                starts[idx] = t0
                ends[idx] = t1
                counts[name] += 1
                self_s[name] += (t1 - t0) - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0
            if observe is not None:
                observe(args, result)
            return result

        setattr(wrapper, _MARK, fn)
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, _MARK, fn)
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _observe_el_rhs(self, args, result):
        j = args[0]
        self.el_rhs_jets.add(_JET_KEY.pack(j.x, j.y, j.v, j.y_x, j.v_x))

    def _observe_integrate(self, args, result):
        self.rk4_steps += len(result) - 1

    # -- queries ------------------------------------------------------

    def installed(self) -> list[str]:
        """Names still bound to a wrapper anywhere in the package (should be empty)."""
        found = []
        for module in self._modules():
            for attr, value in vars(module).items():
                if hasattr(value, _MARK):
                    found.append(f"{module.__name__}.{attr}")
                if isinstance(value, type) and value.__module__.startswith(PACKAGE):
                    for meth, raw in vars(value).items():
                        fn = raw.__func__ if isinstance(raw, classmethod) else raw
                        if hasattr(fn, _MARK):
                            found.append(f"{module.__name__}.{attr}.{meth}")
        return found

    def total_s(self, name: str) -> float:
        """Wall time of ``name`` with nested calls to itself counted once."""
        return self.outer_s.get(name, 0.0)

    def ancestors(self, name: str) -> Counter:
        """For spans of ``name``: how many have each other span name above them."""
        names, span_name, span_parent = self.names, self.span_name, self.span_parent
        found: Counter = Counter()
        for i, nid in enumerate(span_name):
            if names[nid] != name:
                continue
            seen = set()
            p = span_parent[i]
            while p >= 0:
                seen.add(names[span_name[p]])
                p = span_parent[p]
            found.update(seen)
        return found

    def el_rhs_unique_ratio(self) -> float:
        """Distinct jets over el_rhs calls; 0 when el_rhs was never called."""
        calls = self.counts["geodesics.el_rhs"]
        return len(self.el_rhs_jets) / calls if calls else 0.0

    def table(self) -> list[tuple[str, int, float | None]]:
        """(name, calls, self seconds or None for count-only names), slowest first."""
        return sorted(((n, c, self.self_s.get(n)) for n, c in self.counts.items()),
                      key=lambda row: -(row[2] or 0.0))
