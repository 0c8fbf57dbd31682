"""Span tracer for the benchmark's traced run.

The tracer replaces a layer's public functions with timing wrappers, at
every place the function is bound by name: `build_symbol_table`, for
instance, is imported into resolver, rewrite, refactorings and evaluator, and
each of those bindings must be wrapped or its calls go uncounted. Spans are
kept in memory while capturing; wrappers pass straight through otherwise.

`reference` and `names` are the correctness oracles and are never wrapped, so
the verdicts the harness computes add nothing to the trace.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

# layer -> public functions timed as spans. Hot per-variable helpers
# (resolve_var, module_exports) are left out: wrapping them would cost more
# than the work they do.
WRAPPED = {
    "parse": ("parse_project", "parse_module", "parse_decl"),
    "render": ("write_project", "render_module", "render_decl"),
    "resolver": (
        "build_symbol_table", "resolve_project", "find_application",
        "occurrences_of", "unused_imports",
    ),
    "rewrite": ("minimize_qualifiers", "requalify_name", "retarget_name", "fold_instances_in_expr"),
    "refactorings": ("_finish",),
    "evaluator": ("observe_entries",),
    "script": ("run_script",),
}
UNTRACED_MODULES = ("viewshift.reference", "viewshift.names")
OP_PREFIX = "refactorings.op."
EVALUATOR_SPAN = "evaluator.Evaluator"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top


@dataclass
class SpanTotals:
    calls: int = 0
    total: float = 0.0  # seconds inside the span
    self: float = 0.0  # seconds not covered by child spans


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        # (index of its span, EvalStats) of each Evaluator built while capturing
        self.eval_stats: list = []
        self._stack: list[int] = []
        self._active = False
        self._undo: list = []  # callables restoring what install() replaced

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()

        return traced

    def _set(self, owner, attr: str, value):
        old = getattr(owner, attr)
        self._undo.append(lambda: setattr(owner, attr, old))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every WRAPPED function at each of its import sites, each
        script command as an op span, and Evaluator construction."""
        from viewshift import evaluator, script

        sites = [
            mod for name, mod in sorted(sys.modules.items())
            if (name == "viewshift" or name.startswith("viewshift."))
            and name not in UNTRACED_MODULES and mod is not None
        ]
        for layer, names in WRAPPED.items():
            home = sys.modules[f"viewshift.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for mod in sites:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, attr, wrapper)

        for command, entry in list(script.COMMANDS.items()):
            self._undo.append(lambda c=command, e=entry: script.COMMANDS.__setitem__(c, e))
            script.COMMANDS[command] = (entry[0], self.wrap(OP_PREFIX + command, entry[1]))

        init = evaluator.Evaluator.__init__
        traced_init = self.wrap(EVALUATOR_SPAN, init)
        tracer = self

        @functools.wraps(init)
        def counted_init(ev, *args, **kwargs):
            index = len(tracer.spans)
            traced_init(ev, *args, **kwargs)
            if tracer._active:
                tracer.eval_stats.append((index, ev.stats))

        self._set(evaluator.Evaluator, "__init__", counted_init)

    def uninstall(self):
        for restore in reversed(self._undo):
            restore()
        self._undo.clear()

    @contextmanager
    def capture(self):
        """Record spans (and Evaluator stats) only inside this block."""
        self.spans, self.eval_stats, self._stack = [], [], []
        self._active = True
        try:
            yield self
        finally:
            self._active = False

    def totals(self, first: int = 0, last: int | None = None) -> dict[str, SpanTotals]:
        """Calls, total and self time per span name over spans[first:last]."""
        spans = self.spans[first:last]
        child_time = [0.0] * len(spans)
        for s in spans:
            if s.parent >= first:
                child_time[s.parent - first] += s.end - s.start
        out: dict[str, SpanTotals] = {}
        for s, kids in zip(spans, child_time):
            t = out.setdefault(s.name, SpanTotals())
            t.calls += 1
            t.total += s.end - s.start
            t.self += s.end - s.start - kids
        return out
