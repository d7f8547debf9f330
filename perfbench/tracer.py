"""In-memory span recorder for the traced benchmark run.

The traced run wraps the public calls into each layer from the
benchmark's own files; nothing under ``src/`` is instrumented.  Two
kinds of record are kept:

* **Spans** at layer boundaries: ``(name, start, end, parent, request
  id)``.  Synchronous spans nest through an open-span stack, so a
  layer's self time is its duration minus the part its child spans
  cover.  Spans are kept in memory and written out once, at the end.
* **Call timers** on hot leaf functions (tile geometry, encoder sizes,
  MPC solves): a call count and total seconds per name.  They are too
  frequent to record one span per call, so they do not take part in
  the self-time split.  Functions patched under one name share a
  re-entrancy guard, so a timed function calling another one of its
  group is counted once.

Every timestamp is ``time.perf_counter()``, which on Linux reads
``CLOCK_MONOTONIC`` and so agrees across the benchmark's processes.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

__all__ = ["Tracer"]


class Tracer:
    """Spans, call timers and counters of one traced interpreter."""

    def __init__(self) -> None:
        # [name, start, end, parent index or None, request id or None]
        self.spans: list[list] = []
        self._open: list[int] = []
        # name -> [calls, seconds, depth]
        self.timers: dict[str, list] = {}
        self.counts: dict[str, float] = {}

    def reset(self) -> None:
        """Forget everything recorded so far (the start of timed work)."""
        if self._open:
            raise RuntimeError("cannot reset inside an open span")
        self.spans.clear()
        for stat in self.timers.values():
            stat[0], stat[1] = 0, 0.0
        self.counts.clear()

    def count(self, name, n=1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    # -- spans ---------------------------------------------------------

    def add_span(self, name, start, end, request_id=None, parent=None):
        """Record a finished span whose bounds the caller measured."""
        self.spans.append([name, start, end, parent, request_id])
        return len(self.spans) - 1

    @contextmanager
    def span(self, name, request_id=None):
        index = self.add_span(
            name, time.perf_counter(), None, request_id,
            self._open[-1] if self._open else None,
        )
        self._open.append(index)
        try:
            yield index
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def patch_span(self, owner, attr, name, on_call=None, on_result=None):
        """Replace ``owner.attr`` by a wrapper that records a span.

        ``on_call(index, args, kwargs)`` runs first inside the span and
        ``on_result(result, args, kwargs)`` after it, for callers that
        count what the layer was given or produced.
        """
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            with self.span(name) as index:
                if on_call is not None:
                    on_call(index, args, kwargs)
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        setattr(owner, attr, traced)

    # -- call timers ---------------------------------------------------

    def patch_timer(self, owner, attr, name, on_call=None):
        """Replace ``owner.attr`` by a counting, timing wrapper.

        ``on_call(args, kwargs)`` runs before each outermost call.
        """
        original = getattr(owner, attr)
        stat = self.timers.setdefault(name, [0, 0.0, 0])
        clock = time.perf_counter

        def timed(*args, **kwargs):
            if stat[2]:  # nested call of the same group: counted once
                return original(*args, **kwargs)
            if on_call is not None:
                on_call(args, kwargs)
            stat[2] = 1
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                stat[1] += clock() - start
                stat[0] += 1
                stat[2] = 0

        setattr(owner, attr, timed)

    def timed_subclass(self, cls, attr, name):
        """A subclass of ``cls`` whose ``attr`` method is timed as ``name``.

        The subclass keeps the class's name, so anything keyed on the
        qualified class name (such as result-cache digests) is unchanged.
        """
        sub = type(cls.__name__, (cls,), {"__qualname__": cls.__qualname__,
                                          "__module__": cls.__module__})
        self.patch_timer(sub, attr, name)
        return sub

    def calls(self, name) -> int:
        return self.timers.get(name, [0, 0.0, 0])[0]

    def seconds(self, name) -> float:
        return self.timers.get(name, [0, 0.0, 0])[1]

    # -- summaries -----------------------------------------------------

    def total(self, name) -> float:
        """Summed duration of every span called ``name``."""
        return sum(end - start for n, start, end, _, _ in self.spans
                   if n == name)

    def self_seconds(self) -> dict[str, float]:
        """Per span name: summed duration minus child-span coverage."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def write(self, path) -> None:
        """Write every span and timer as JSON (once, at the end)."""
        with open(path, "w") as fh:
            json.dump({
                "fields": ["name", "start", "end", "parent", "request_id"],
                "spans": self.spans,
                "timers": {k: v[:2] for k, v in self.timers.items()},
                "counts": self.counts,
            }, fh)
