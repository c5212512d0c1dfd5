"""In-memory span tracing of ruledcone's public functions, from outside.

`Tracer.install` replaces each traced function in every ``ruledcone``
module namespace that holds it (the defining module, the modules that import
it and the package root), so calls made inside the package are caught as
well as calls made by the benchmark; `uninstall` puts the originals back.
The program's source is not edited.

A span is (name, parent, start, end, raised).  Spans stay in flat arrays
until the run ends.  A layer's self time is the sum over its spans of the
duration minus the time its direct child spans cover; its busy time is the
sum of the durations of its outermost spans, so recursion (as in
`simplest_between`) is not counted twice.
"""

from __future__ import annotations

import cProfile
import gzip
import pstats
import sys
from array import array
from time import perf_counter

# Public functions wrapped by the traced run, as (module, attribute path).
TRACED = (
    ("cli", "main"),
    ("cli", "build_parser"),
    ("planner", "verify_stability"),
    ("planner", "plan"),
    ("planner", "InflationPlan.stays_in_chamber"),
    ("inflation", "apply_step"),
    ("inflation", "normalize"),
    ("cone", "chamber_of"),
    ("cone", "active_walls"),
    ("strata", "stratum_labels"),
    ("strata", "negative_classes"),
    ("strata", "wide_negative_classes"),
    ("lattice", "codim"),
    ("rationals", "simplest_between"),
    ("rationals", "parse_rational"),
    ("rationals", "format_rational"),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_outer = array("b")
        self.span_raised = array("b")
        self._stack = [-1]
        self._depth: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self._depth.append(0)
        return len(self.names) - 1

    def wrap(self, name: str, fn, on_return=None):
        """`fn` recording one span per call; `on_return(result)` runs after
        the span closes and is recorded as its own ``perfbench.*`` span."""
        nid = self._name_id(name)
        hook_id = self._name_id(f"perfbench.{name}.hook") if on_return else -1
        stack, depth = self._stack, self._depth

        def open_span(n: int) -> int:
            i = len(self.span_name)
            self.span_name.append(n)
            self.span_parent.append(stack[-1])
            self.span_outer.append(depth[n] == 0)
            self.span_raised.append(0)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            stack.append(i)
            depth[n] += 1
            return i

        def close_span(i: int, n: int, start: float) -> None:
            end = perf_counter()
            stack.pop()
            depth[n] -= 1
            self.span_start[i] = start
            self.span_end[i] = end

        def traced(*args, **kwargs):
            i = open_span(nid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.span_raised[i] = 1
                raise
            finally:
                close_span(i, nid, start)
            if on_return is not None:
                j = open_span(hook_id)
                start = perf_counter()
                try:
                    on_return(result)
                finally:
                    close_span(j, hook_id, start)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package, hooks=None) -> None:
        """Wrap every function of TRACED wherever the package binds it."""
        hooks = hooks or {}
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == package.__name__ or k.startswith(package.__name__ + ".")]
        for mod_name, path in TRACED:
            owner = sys.modules[f"{package.__name__}.{mod_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            name = f"{mod_name}.{path}"
            wrapper = self.wrap(name, original, hooks.get(name))
            holders = [owner] if outer else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._undo.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    def layers(self) -> dict[str, dict]:
        """Per span name: calls, busy_s, self_s and fail (calls that raised)."""
        stats = {n: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "fail": 0}
                 for n in self.names}
        child_time = [0.0] * len(self.span_name)
        for i in range(len(self.span_name) - 1, -1, -1):
            dur = self.span_end[i] - self.span_start[i]
            s = stats[self.names[self.span_name[i]]]
            s["calls"] += 1
            s["fail"] += self.span_raised[i]
            s["self_s"] += dur - child_time[i]
            if self.span_outer[i]:
                s["busy_s"] += dur
            parent = self.span_parent[i]
            if parent >= 0:
                child_time[parent] += dur
        return stats

    def write(self, path) -> int:
        """Write every span as gzip CSV; returns the number written."""
        t0 = self.span_start[0] if self.span_start else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as fh:
            fh.write("span,name,parent,start_s,end_s,raised\n")
            names = self.names
            for i in range(len(self.span_name)):
                fh.write(f"{i},{names[self.span_name[i]]},{self.span_parent[i]},"
                         f"{self.span_start[i] - t0:.9f},{self.span_end[i] - t0:.9f},"
                         f"{self.span_raised[i]}\n")
        return len(self.span_name)


def fractions_share(fn, *args) -> tuple[float, float]:
    """Run fn(*args) under cProfile.

    Returns the share of profiled self time spent in ``fractions.py``, and
    that share plus the builtins `math.gcd` and `isinstance` which the
    Fraction constructor and operators call.
    """
    profiler = cProfile.Profile()
    profiler.runcall(fn, *args)
    stats = pstats.Stats(profiler).stats
    total = sum(v[2] for v in stats.values())
    in_fractions = sum(v[2] for k, v in stats.items() if k[0].endswith("fractions.py"))
    builtins = sum(v[2] for k, v in stats.items()
                   if k[2] in ("<built-in method math.gcd>",
                               "<built-in method builtins.isinstance>"))
    return in_fractions / total, (in_fractions + builtins) / total
