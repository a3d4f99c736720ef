"""Wall-clock tracer that measures the repository's layers from outside.

The tracer replaces public functions, methods and properties with timing
wrappers for the length of one traced run and puts the originals back
afterwards, so no source under ``src/`` carries a profiling hook.

Every wrapped call charges its wall time, minus the time of the wrapped
calls nested inside it, to one ``(layer, parent layer)`` bucket: the
layers' self times therefore partition the root call's wall time
exactly.  Hot leaves (``BlockPool.free_bytes`` runs millions of times per
run) only touch their bucket.  Layers registered with ``span=True``
(engine, router, scheduler and model-step boundaries) also record a span
``(name, start, end, parent span)``; spans are held in memory up to
``span_limit`` and written out by :meth:`Tracer.dump` when the run ends.
"""

from __future__ import annotations

import collections
import functools
import json
import time

_ROOT = "<root>"


class Tracer:
    def __init__(self, span_limit: int = 200_000):
        self.self_s: dict[tuple[str, str], float] = collections.defaultdict(
            float
        )
        self.calls: dict[tuple[str, str], int] = collections.defaultdict(int)
        #: free-form counters bumped by wrapper hooks (rows, values, ...)
        self.counts: dict[str, float] = collections.defaultdict(float)
        self.spans: list = []
        self.span_limit = span_limit
        self.spans_dropped = 0
        self._origin = time.perf_counter()
        # One frame per active wrapped call: [layer, child seconds, span].
        self._stack: list[list] = [[_ROOT, 0.0, -1]]
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------

    def _timed(self, fn, layer: str, span: bool, hook):
        stack = self._stack
        self_s, calls, spans = self.self_s, self.calls, self.spans
        clock = time.perf_counter
        origin = self._origin

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [layer, 0.0, parent[2]]
            if span:
                if len(spans) < self.span_limit:
                    frame[2] = len(spans)
                    spans.append(None)
                else:
                    self.spans_dropped += 1
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                key = (layer, parent[0])
                self_s[key] += dt - frame[1]
                # A layer re-entering itself (a ``super()`` chain) is one
                # logical call: its time still partitions correctly.
                if parent[0] != layer:
                    calls[key] += 1
                parent[1] += dt
                if frame[2] != parent[2]:
                    spans[frame[2]] = (
                        layer, t0 - origin, t1 - origin, parent[2]
                    )
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return wrapper

    def wrap(
        self, owner, attr: str, layer: str, span: bool = False, hook=None
    ) -> None:
        """Time ``owner.attr`` (a function, method, classmethod or
        property defined directly on ``owner``) as ``layer``.

        ``hook(counts, args, result)`` runs after each call to bump
        :attr:`counts`; its cost lands in the caller's self time.
        """
        raw = vars(owner)[attr]
        if isinstance(raw, property):
            new = property(
                self._timed(raw.fget, layer, span, hook),
                raw.fset,
                raw.fdel,
                raw.__doc__,
            )
        elif isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(self._timed(raw.__func__, layer, span, hook))
        else:
            new = self._timed(raw, layer, span, hook)
        setattr(owner, attr, new)
        self._patches.append((owner, attr, raw))

    def wrap_tree(
        self, base: type, attr: str, layer: str, span: bool = False, hook=None
    ) -> None:
        """Wrap ``attr`` on ``base`` and on every subclass that redefines it."""
        seen, todo = set(), [base]
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            todo.extend(cls.__subclasses__())
            if attr in vars(cls):
                self.wrap(cls, attr, layer, span, hook)

    def unwrap(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def call(self, layer: str, fn, *args, **kwargs):
        """Run ``fn`` as a span-bearing call of ``layer``."""
        return self._timed(fn, layer, True, None)(*args, **kwargs)

    # -- results -------------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        return sum(s for (name, _), s in self.self_s.items() if name == layer)

    def layer_calls(self, layer: str) -> int:
        return sum(n for (name, _), n in self.calls.items() if name == layer)

    def total_self_s(self) -> float:
        return sum(self.self_s.values())

    def dump(self, path) -> None:
        """Write the buckets and spans (times in seconds since start)."""
        buckets = [
            {
                "layer": layer,
                "parent": parent,
                "self_s": seconds,
                "calls": self.calls.get((layer, parent), 0),
            }
            for (layer, parent), seconds in sorted(self.self_s.items())
        ]
        spans = [
            {"name": s[0], "start_s": s[1], "end_s": s[2], "parent": s[3]}
            for s in self.spans
            if s is not None
        ]
        with open(path, "w") as out:
            json.dump(
                {
                    "buckets": buckets,
                    "counts": dict(self.counts),
                    "spans": spans,
                    "spans_dropped": self.spans_dropped,
                },
                out,
            )
