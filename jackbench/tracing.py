"""Per-layer tracing of jackpoly from outside the package.

install() replaces the functions and methods of every layer module with
wrappers.  A wrapper that is entered from a different layer opens a span
(name, start, end, parent); a call that stays inside its caller's layer is
only counted, so spans mark layer boundaries.  A layer's self time is the
time of its spans minus the time of their child spans.

Q(alpha) arithmetic is far too frequent to span per call (about 155 k
operations in one default verify pass), so qalpha entry points are
aggregated instead: only the outermost qalpha call is timed, its time is
charged to qalpha and subtracted from the enclosing span as child time, and
each outermost field operation is counted.

Modules often import names by value (`from .polyalg import cherednik_apply`),
so after wrapping, every jackpoly module namespace, and every dict held in
one (the verify registry), is searched for the original function objects and
rebound to the wrappers.  Patching the defining module alone would miss
those callers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

LAYERS = ("qalpha", "combinat", "scalars", "polyalg", "jack", "oracle",
          "verify", "cli")

# Field operations counted in qalpha.ops (outermost calls only).
QALPHA_OPS = frozenset((
    "__init__", "from_fraction", "__add__", "__radd__", "__sub__", "__rsub__",
    "__neg__", "__mul__", "__rmul__", "inverse", "__truediv__",
    "__rtruediv__", "__pow__", "eval_at", "substitute"))

# Trivial members left unwrapped: their cost stays with the caller, and
# wrapping them would mostly measure the wrapper.
SKIP_MEMBERS = frozenset((
    "__hash__", "__bool__", "is_zero", "is_one", "_raw", "__setattr__",
    "__delattr__", "__init_subclass__", "__class_getitem__"))

# Functions that always open a span, even when called from their own layer,
# so that their inclusive time can be reported.
ALWAYS_SPAN = frozenset(("oracle.weight_expand",))

# Memoizing builders: a call is a cache hit when it returns an object that
# an earlier call already returned.
CACHED_BUILDERS = frozenset(("jack.build_E", "jack.build_P"))


class Tracer:
    """Counters, per-layer self time and the span list of one traced job."""

    def __init__(self):
        self.clock = time.perf_counter
        # frame: [layer, span id, child seconds]
        self.stack = [["bench", 0, 0.0]]
        self.next_id = 1
        self.spans = []
        self.self_s = Counter()
        self.calls = Counter()
        self.entries = Counter()
        self.inclusive_s = Counter()
        self.q_depth = 0
        self.q_ops = 0
        self.q_gcd = 0
        self.q_max_degree = 0
        self.builder_hits = 0
        self._returned = {}

    # -- wrappers -----------------------------------------------------------

    def layer_wrapper(self, layer, name, fn):
        tracer = self
        always = name in ALWAYS_SPAN
        cached = name in CACHED_BUILDERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            stack = tracer.stack
            parent = stack[-1]
            if parent[0] == layer and not always:
                result = fn(*args, **kwargs)
            else:
                if parent[0] != layer:
                    tracer.entries[name] += 1
                span_id = tracer.next_id
                tracer.next_id += 1
                frame = [layer, span_id, 0.0]
                stack.append(frame)
                start = tracer.clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = tracer.clock()
                    stack.pop()
                    duration = end - start
                    tracer.self_s[layer] += duration - frame[2]
                    tracer.inclusive_s[name] += duration
                    parent[2] += duration
                    tracer.spans.append((span_id, parent[1], name, start, end))
            if cached:
                seen = tracer._returned.get(id(result))
                if seen is result:
                    tracer.builder_hits += 1
                else:
                    tracer._returned[id(result)] = result
            return result

        return traced

    def qalpha_wrapper(self, name, fn, is_op):
        tracer = self
        from jackpoly.qalpha import AlphaRational

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.q_depth:
                return fn(*args, **kwargs)
            tracer.q_depth = 1
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer.clock() - start
                tracer.q_depth = 0
                tracer.self_s["qalpha"] += duration
                tracer.stack[-1][2] += duration
            tracer.calls[name] += 1
            if is_op:
                tracer.q_ops += 1
                # __init__ returns None; the constructed element is args[0]
                value = args[0] if result is None and args else result
                if isinstance(value, AlphaRational):
                    degree = max(len(value.num), len(value.den)) - 1
                    if degree > tracer.q_max_degree:
                        tracer.q_max_degree = degree
            return result

        return traced

    def gcd_counter(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args):
            tracer.q_gcd += 1
            return fn(*args)

        return counted

    # -- results ------------------------------------------------------------

    def summary(self, total_s):
        """Plain-JSON summary; total_s is the job's pass time, whose part
        outside every layer span is the benchmark's own self time."""
        self_s = {layer: self.self_s.get(layer, 0.0) for layer in LAYERS}
        self_s["bench"] = total_s - self.stack[0][2]
        return {
            "self_s": self_s,
            "calls": dict(self.calls),
            "entries": dict(self.entries),
            "inclusive_s": dict(self.inclusive_s),
            "qalpha": {"ops": self.q_ops, "gcd_calls": self.q_gcd,
                       "max_degree": self.q_max_degree},
            "builder_hits": self.builder_hits,
        }


def _wrap_member(tracer, layer, qualname, member):
    """Wrapped replacement for a class member, or None to leave it."""
    if isinstance(member, (classmethod, staticmethod)):
        inner = _wrap_member(tracer, layer, qualname, member.__func__)
        return type(member)(inner) if inner is not None else None
    if not inspect.isfunction(member):
        return None
    if layer == "qalpha":
        return tracer.qalpha_wrapper(qualname, member,
                                     qualname.rsplit(".", 1)[1] in QALPHA_OPS)
    return tracer.layer_wrapper(layer, qualname, member)


def install(tracer: Tracer):
    """Wrap every layer of the imported jackpoly package for this process.
    There is no uninstall: a traced job runs in its own interpreter."""
    replaced = {}
    for layer in LAYERS:
        module = importlib.import_module(f"jackpoly.{layer}")
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value.__module__ == module.__name__:
                name = f"{layer}.{attr}"
                if layer != "qalpha":
                    wrapper = tracer.layer_wrapper(layer, name, value)
                elif attr == "_gcd":
                    wrapper = tracer.gcd_counter(value)
                elif not attr.startswith("_"):
                    wrapper = tracer.qalpha_wrapper(name, value, False)
                else:
                    continue  # private qalpha helpers stay inside the aggregate
                replaced[id(value)] = (value, wrapper)
                setattr(module, attr, wrapper)
            elif inspect.isclass(value) and value.__module__ == module.__name__:
                for member_name, member in list(vars(value).items()):
                    if member_name in SKIP_MEMBERS:
                        continue
                    wrapped = _wrap_member(tracer, layer,
                                           f"{layer}.{attr}.{member_name}", member)
                    if wrapped is not None:
                        setattr(value, member_name, wrapped)
    # rebind names imported by value, and functions held in registries
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "jackpoly" and not mod_name.startswith("jackpoly."):
            continue
        for attr, value in list(vars(module).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    hit = replaced.get(id(item))
                    if hit is not None and hit[0] is item:
                        value[key] = hit[1]
