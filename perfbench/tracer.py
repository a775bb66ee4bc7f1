"""A tracer that works from outside the program.

It replaces names that fubuki's callers look up at call time (module globals
and class attributes) with wrappers, and puts every original back in
`restore`. Nothing under `src/` knows it is being traced.

Three kinds of wrapper keep the cost in proportion to how hot a name is:

- "span": one record (name, context, start, end, parent, self seconds) per
  call, kept in memory and handed back by `report`. Used for calls that run a
  few thousand times at most.
- "agg": calls, total seconds and self seconds summed per (context, name).
  Used for names called hundreds of thousands of times.
- "count": calls per (context, name), no clock. Used for `next_u64`.

Self time is a call's duration minus the durations of the wrapped calls made
inside it ("span" and "agg" ones). `context` is a label the caller sets
before each operation, so that counters can be split by workload phase.
"""

from __future__ import annotations

import time
from typing import Any, Callable


class Tracer:
    def __init__(self) -> None:
        self.context = ""
        self.spans: list[tuple | None] = []
        self.agg: dict[tuple[str, str], list[float]] = {}
        self.counts: dict[tuple[str, str], int] = {}
        # open frames: [start, seconds spent in wrapped children]
        self._stack: list[list[float]] = []
        self._open_span = -1
        self._replaced: list[tuple[Any, str, Any, Any]] = []

    def wrap_fn(self, name: str, fn: Callable, kind: str = "span") -> Callable:
        """A wrapper of `fn` that records its calls under `name`."""
        if kind == "count":
            counts = self.counts

            def counted(*args, **kwargs):
                key = (self.context, name)
                counts[key] = counts.get(key, 0) + 1
                return fn(*args, **kwargs)

            return counted
        if kind not in ("span", "agg"):
            raise ValueError(f"unknown wrapper kind {kind!r}")
        record = kind == "span"
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans
        agg = self.agg

        def timed(*args, **kwargs):
            context = self.context
            if record:
                index = len(spans)
                spans.append(None)
                parent, self._open_span = self._open_span, index
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                if stack:
                    stack[-1][1] += duration
                own = duration - frame[1]
                if record:
                    self._open_span = parent
                    spans[index] = (name, context, frame[0], end, parent, own)
                else:
                    totals = agg.get((context, name))
                    if totals is None:
                        agg[(context, name)] = [1, duration, own]
                    else:
                        totals[0] += 1
                        totals[1] += duration
                        totals[2] += own

        return timed

    def wrap(self, owner: Any, attr: str, name: str, kind: str = "span") -> None:
        """Replace `owner.attr` with a recording wrapper until `restore`."""
        original = owner.__dict__[attr]
        wrapper = self.wrap_fn(name, original, kind)
        setattr(owner, attr, wrapper)
        self._replaced.append((owner, attr, original, wrapper))

    def restore(self) -> None:
        """Put every wrapped name back; raise if something else replaced one."""
        while self._replaced:
            owner, attr, original, wrapper = self._replaced.pop()
            if owner.__dict__[attr] is not wrapper:
                raise RuntimeError(f"{owner.__name__}.{attr} changed while traced")
            setattr(owner, attr, original)
            if owner.__dict__[attr] is not original:
                raise RuntimeError(f"could not restore {owner.__name__}.{attr}")

    def report(self) -> dict:
        """Spans and counters in a JSON-ready form."""
        if self._stack:
            raise RuntimeError("report taken while a traced call is still open")
        return {
            "spans": self.spans,
            "agg": [[c, n, *v] for (c, n), v in self.agg.items()],
            "counts": [[c, n, v] for (c, n), v in self.counts.items()],
        }
