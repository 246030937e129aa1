"""In-memory span tracer that wraps dasearch's public functions from outside.

Each wrapped call records one span: name, start, end, the index of the span
that was open when it started (its parent) and the id of the operation (a
pair or a CLI stage) it belongs to. Counters are updated at the same
boundaries, after the span has closed, so they add no time to it. Nothing is
written until the run ends; `summary()` turns the spans into per-name call
counts, total time and self time (duration minus the time covered by child
spans).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list = []   # (name, start, end, parent index or -1, op id)
        self.counts: dict = defaultdict(float)
        self.op_id = None
        self._stack: list[int] = []
        self._patches: list = []  # (owner, attribute, original)

    # -- recording ---------------------------------------------------------------

    def wrap(self, name, fn, on_return=None):
        """Return `fn` wrapped in a span; `on_return(counts, args, result)`
        runs after the span closes. With `name` None only the hook runs."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        if name is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                on_return(self.counts, args, result)
                return result
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id)
            if on_return is not None:
                on_return(self.counts, args, result)
            return result

        return traced

    def span(self, name):
        """Context manager recording one span around a block."""
        return _Block(self, name)

    # -- patching ------------------------------------------------------------------

    def patch_function(self, module, attr, name, on_return=None):
        """Wrap `module.attr` and rebind it in every dasearch module that
        imported it by name, since callers look up their own global."""
        original = getattr(module, attr)
        traced = self.wrap(name, original, on_return)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "dasearch" or mod_name.startswith("dasearch.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, traced)

    def patch_method(self, cls, attr, name, on_return=None):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, on_return))

    def unpatch(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------------

    def _child_time(self) -> list[float]:
        """Time covered by each span's direct children."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        return child_time

    def summary(self) -> dict:
        """{name: {"calls", "s", "self_s"}} over all recorded spans."""
        child_time = self._child_time()
        out: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[i]
        return dict(out)

    def self_time_under(self, roots) -> dict:
        """{root name: {descendant name: (calls, self time)}} for spans nested
        under a span named in `roots`, the root itself included."""
        child_time = self._child_time()
        root_of = [None] * len(self.spans)
        out: dict = {r: defaultdict(lambda: [0, 0.0]) for r in roots}
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if name in out:
                root_of[i] = name
            elif parent >= 0:
                root_of[i] = root_of[parent]
            if root_of[i] is not None:
                entry = out[root_of[i]][name]
                entry[0] += 1
                entry[1] += end - start - child_time[i]
        return {r: {k: tuple(v) for k, v in by.items()} for r, by in out.items()}


class _Block:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        self.idx = len(t.spans)
        t.spans.append(None)
        self.parent = t._stack[-1] if t._stack else -1
        t._stack.append(self.idx)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t = self.tracer
        end = time.perf_counter()
        t._stack.pop()
        t.spans[self.idx] = (self.name, self.start, end, self.parent, t.op_id)
        return False
