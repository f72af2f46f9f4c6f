"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of the library from outside: every module
attribute of ``cmc_hyp`` that refers to a wrapped function is replaced, so
calls through ``from .x import f`` bindings are caught too.  Each call
records a span (name, start, end, parent, job id, and the grid size inherited
from the enclosing job span) and optional counts.  Spans stay in memory until
the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: str
    n: int | None


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=lambda: defaultdict(float))
    job: str = "setup"
    _stack: list = field(default_factory=list)
    _patched: list = field(default_factory=list)

    @contextmanager
    def span(self, name, n=None):
        parent = self._stack[-1] if self._stack else None
        if n is None and parent is not None:
            n = self.spans[parent].n
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                               self.job, n))
        self._stack.append(idx)
        try:
            yield self.spans[idx]
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def count(self, name, amount=1):
        self.counts[(self.job, name)] += amount

    def wrap(self, fn, name, counter=None):
        """``fn`` inside a span; ``counter(tracer, bound_args, result)`` adds
        counts after each call."""
        sig = inspect.signature(fn) if counter is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self, bound.arguments, result)
            return result

        return traced

    def install(self, targets):
        """Wrap ``module.function`` for each ``(module, function, span name,
        counter)`` in ``targets``; functions the library lacks are skipped and
        returned."""
        mods = [m for name, m in sys.modules.items()
                if m is not None and (name == "cmc_hyp"
                                      or name.startswith("cmc_hyp."))]
        missing = []
        for module, fname, span_name, counter in targets:
            orig = getattr(module, fname, None)
            if orig is None:
                missing.append(f"{module.__name__}.{fname}")
                continue
            traced = self.wrap(orig, span_name, counter)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, traced)
                        self._patched.append((mod, attr, orig))
        return missing

    def uninstall(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    # -- analysis -----------------------------------------------------------

    def self_times(self):
        """Per span: its duration minus the time its child spans cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def nesting_defects(self):
        """Spans that are not inside their parent's interval."""
        bad = []
        for i, s in enumerate(self.spans):
            if s.end < s.start:
                bad.append(i)
            elif s.parent is not None:
                p = self.spans[s.parent]
                if s.start < p.start or s.end > p.end:
                    bad.append(i)
        return bad

    def self_by_job(self, jobs):
        """``{(job, name, n): self seconds}`` over the given job ids."""
        out = defaultdict(float)
        for s, own in zip(self.spans, self.self_times()):
            if s.job in jobs:
                out[(s.job, s.name, s.n)] += own
        return out

    def roots(self, job):
        return [s for s in self.spans if s.job == job and s.parent is None]

    def to_json(self):
        return {"spans": [[s.name, s.start, s.end, s.parent, s.job, s.n]
                          for s in self.spans],
                "counts": [[job, name, v]
                           for (job, name), v in sorted(self.counts.items())]}
