"""Layer tracing from outside: wrappers installed over dlogwalk's public names.

Nothing under src/ knows about tracing.  `Tracer.installed()` replaces the
module attributes through which the solve path calls each layer, both where
`walk` binds a name and where the defining module binds it, so that a call
made inside a layer (the Legendre symbol inside `sqrt_mod_p`) shows as a
child span.  Leaving the context restores every original.

A span is (id, parent id, name, start ns, end ns).  Self time is computed
online with a stack: a span's duration minus the time its direct children
took, counted from entering their wrappers to leaving them.  A wrapper's own
bookkeeping (the stack, the counters, the span record, the observers) thus
falls outside every layer's self time; it is summed under TRACE_SELF.
Aggregates cover every span; the span records themselves are kept in memory
only up to SPAN_CAP, so a long run stays small, and are written out when the
run ends.
"""

import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

from dlogwalk import gf2m, linexpr, primefield, walk

# Span name -> modules whose attribute of that name is replaced.  The first
# module defines the function.
SPANNED = {
    "walk.run_dlog": (walk,),
    "walk.build_table_one": (walk,),
    "primefield.legendre": (primefield, walk),
    "primefield.sqrt_mod_p": (primefield, walk),
    "primefield.mod_pow": (primefield, walk),
    "gf2m.gf_sqrt": (gf2m, walk),
    "gf2m.gf_div_by_x": (gf2m, walk),
    "gf2m.gf_pow": (gf2m, walk),
    "linexpr.collision_solve": (linexpr, walk),
    "linexpr.enumerate_candidates": (linexpr, walk),
}
LINEXPR_METHODS = ("dec", "halve", "triple_plus_one")
# Counted but not spanned, and in a pass of its own (`counting`): a span per
# field multiply would cost more than the multiply, and its time stays in the
# caller's (gf_sqrt, gf_pow) self time.
COUNTED = {"gf2m.gf_mul": (gf2m,)}
# Time spent in the span wrappers themselves, outside any span.
TRACE_SELF = "trace"
SPAN_CAP = 10000


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.self_ns: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.events: Counter = Counter()
        self._root = [0, 0]  # stack bottom: [span id, children's time]
        self._stack = [self._root]
        self._next_id = 0
        self._last_solution = None

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) as one span called `name`."""
        return self._span(name, fn)(*args, **kwargs)

    def _span(self, name: str, fn, observe=None):
        stack, self_ns, total_ns, calls = (
            self._stack, self.self_ns, self.total_ns, self.calls)

        def wrapper(*args, **kwargs):
            entered = perf_counter_ns()
            self._next_id += 1
            frame = [self._next_id, 0]
            stack.append(frame)
            raised = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                raised = exc
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                parent = stack[-1]
                duration = end - start
                self_ns[name] += duration - frame[1]
                total_ns[name] += duration
                calls[name] += 1
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((frame[0], parent[0], name, start, end))
                if observe is not None:
                    observe(args, None if raised else result, raised)
                left = perf_counter_ns()
                self_ns[TRACE_SELF] += left - entered - duration
                parent[1] += left - entered
            return result

        return wrapper

    def _count(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- collision sources and outcomes, read at the linexpr boundary -------

    def _observe_collision(self, args, result, raised):
        stored = args[1]
        source = "table_one" if stored.A == 0 else "history"
        self.events[f"linexpr.collisions.{source}"] += 1
        if isinstance(raised, linexpr.NoSolutionError):
            self.events["linexpr.outcome.spurious"] += 1
        elif isinstance(raised, linexpr.DegenerateCollisionError):
            self.events["linexpr.outcome.degenerate"] += 1
        self._last_solution = result

    def _observe_enumerate(self, args, result, raised):
        if isinstance(raised, linexpr.TooManyCandidatesError):
            self.events["linexpr.outcome.toomany"] += 1

    def _observe_solve(self, args, result, raised):
        # A verified answer whose congruence came out of collision_solve;
        # a direct Table I hit on the target tests no collision.
        if (result is not None and result.n is not None
                and self._last_solution is not None
                and result.congruence is self._last_solution):
            self.events["linexpr.outcome.solved"] += 1
        self._last_solution = None

    @contextmanager
    def installed(self):
        observers = {
            "walk.run_dlog": self._observe_solve,
            "linexpr.collision_solve": self._observe_collision,
            "linexpr.enumerate_candidates": self._observe_enumerate,
        }
        patches = []
        for name, modules in SPANNED.items():
            attr = name.split(".", 1)[1]
            wrapper = self._span(name, getattr(modules[0], attr),
                                 observers.get(name))
            patches += [(mod, attr, wrapper) for mod in modules]
        for method in LINEXPR_METHODS:
            original = getattr(linexpr.LinExpr, method)
            patches.append((linexpr.LinExpr, method,
                            self._span(f"linexpr.LinExpr.{method}", original)))
        with _patched(patches):
            yield self

    @contextmanager
    def counting(self):
        """Only the call counters of COUNTED, for a pass of its own: under
        the spans their cost would land in the callers' self time."""
        patches = []
        for name, modules in COUNTED.items():
            attr = name.split(".", 1)[1]
            wrapper = self._count(name, getattr(modules[0], attr))
            patches += [(mod, attr, wrapper) for mod in modules]
        with _patched(patches):
            yield self

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "name": name, "start_ns": start,
                                     "end_ns": end}) + "\n")


@contextmanager
def _patched(patches):
    """Set each (object, attribute, value) and restore the originals after."""
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
    try:
        for obj, attr, wrapper in patches:
            setattr(obj, attr, wrapper)
        yield
    finally:
        for obj, attr, original in saved:
            setattr(obj, attr, original)
