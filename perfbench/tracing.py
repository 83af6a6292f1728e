"""In-memory span tracer installed around the program's public layer calls.

The traced run wraps public functions and methods of ``repro`` from
here, in the benchmark's own files; nothing under ``src/`` knows it is
being traced.  Each call through a wrapped function records one span:
name, start, end, the span that was open on the same thread when it
began (its parent), the thread, and the request IDs of the serving
batch it ran for.  Spans stay in memory and are written out once, when
the workload ends.

A span's *self time* is its duration minus the part of its interval
that its child spans cover.  Per thread, self times plus the time no
span was open add up to the measured window; :func:`reconcile` checks
that they do, which catches spans given the wrong parent.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["Span", "Tracer", "self_times", "reconcile"]


class Span:
    """One call through a wrapped function."""

    __slots__ = ("name", "start", "end", "parent", "thread", "request_ids", "attrs")

    def __init__(self, name: str, parent: Optional["Span"]) -> None:
        self.name = name
        self.parent = parent
        self.thread = threading.get_ident()
        self.request_ids: Tuple[str, ...] = ()
        self.attrs: Dict[str, Any] = {}
        self.end = 0.0
        self.start = time.monotonic()

    @property
    def seconds(self) -> float:
        """Duration of the span (0 while still open)."""
        return max(self.end - self.start, 0.0)


class Tracer:
    """Installs span-recording wrappers and keeps the spans they record."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """A span around a block of the benchmark's own code."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, stack[-1] if stack else None)
        self.spans.append(span)  # list.append is atomic under the GIL
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.monotonic()
        self._stack().pop()

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        annotate: Optional[Callable[[Span, tuple, Any], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a wrapper that records a ``name`` span.

        ``owner`` is a class (for methods) or a module (for functions).
        ``annotate(span, args, result)`` may attach counts to the span
        after the call returns.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            if annotate is not None:
                annotate(span, args, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path: str, window: Tuple[float, float]) -> None:
        """Write the spans as JSON records (times relative to the window)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        origin = window[0]
        records = [
            {
                "name": span.name,
                "start": round(span.start - origin, 7),
                "end": round(span.end - origin, 7),
                "parent": index.get(id(span.parent)) if span.parent is not None else None,
                "thread": span.thread,
                "request_ids": list(span.request_ids),
                "attrs": {k: v for k, v in span.attrs.items() if _jsonable(v)},
            }
            for span in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"window_s": window[1] - window[0], "spans": records}, fh)


def _jsonable(value: Any) -> bool:
    return isinstance(value, (int, float, str, bool)) or value is None


def _union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _clip(span: Span, lo: float, hi: float) -> Tuple[float, float]:
    return max(span.start, lo), min(span.end, hi)


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time of each span, keyed by ``id(span)``."""
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append(span)
    out = {}
    for span in spans:
        covered = _union_length(
            [_clip(c, span.start, span.end) for c in children.get(id(span), ())]
        )
        out[id(span)] = span.seconds - covered
    return out


def reconcile(spans: Sequence[Span], window: Tuple[float, float]) -> Dict[int, float]:
    """Per thread: (self times + time with no span open) / window length.

    Only closed spans inside ``window`` count.  The ratio is 1.0 when
    spans nest properly; a child that sticks out of its parent's
    interval, or overlapping siblings on one thread, move it away from 1.
    """
    lo, hi = window
    inside = [s for s in spans if s.start >= lo and s.end <= hi and s.end > 0]
    selfs = self_times(inside)
    by_thread: Dict[int, List[Span]] = defaultdict(list)
    for span in inside:
        by_thread[span.thread].append(span)
    ratios = {}
    for thread, members in by_thread.items():
        ids = {id(s) for s in members}
        roots = [s for s in members if s.parent is None or id(s.parent) not in ids]
        idle = (hi - lo) - _union_length([(s.start, s.end) for s in roots])
        ratios[thread] = (sum(selfs[id(s)] for s in members) + idle) / (hi - lo)
    return ratios
