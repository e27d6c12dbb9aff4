"""The span tracer: one implementation, two retention policies.

* :class:`SpanRing` — a bounded ring buffer of *completed* spans with a
  cursor-based subscriber API.  Producers never block; a subscriber
  that falls behind loses the oldest spans and is told exactly how
  many (``dropped``), mirroring the server's own
  ``server.notifications_dropped`` policy for slow consumers.
* :class:`LiveTracer` — the one real :class:`~repro.obs.trace.Tracer`:
  ids, aliases, open-stack parent propagation.  Completed spans stream
  into a :class:`SpanRing`; open spans are tracked only while open, so
  memory is bounded by ring capacity plus in-flight work — what a
  server that stays up needs.
* Slow-transaction capture — when constructed with ``slow_threshold``
  and ``on_slow``, the tracer buffers each root span's subtree and
  hands the complete tree to ``on_slow(root, spans)`` when the root
  closes having taken at least the threshold.  Fast trees are
  discarded the moment their root closes.
* :class:`RecordingTracer` — a :class:`LiveTracer` that additionally
  keeps every span, for bounded runs replayed offline
  (:mod:`repro.obs.export`).

Timestamps default to :func:`time.monotonic` (a tick counter for the
recording tracer); the fuzzer and the simulator install their virtual
clocks through the constructor or :meth:`LiveTracer.set_clock`.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, Callable

from .trace import Span, Tracer

__all__ = ["SpanRing", "RingSubscriber", "LiveTracer", "RecordingTracer"]


class RingSubscriber:
    """A cursor into a :class:`SpanRing`.

    :meth:`poll` returns every span published since the previous poll
    — or, when the subscriber fell behind the ring window, the spans
    still available plus a count of those lost.
    """

    def __init__(self, ring: "SpanRing") -> None:
        self._ring = ring
        self._cursor = ring._next_seq  # subscribe from "now"
        self.dropped_total = 0

    def poll(self) -> tuple[list[Span], int]:
        """Return ``(new_spans, dropped)`` since the last poll."""
        spans, dropped, self._cursor = self._ring._read_from(self._cursor)
        self.dropped_total += dropped
        return spans, dropped

    def close(self) -> None:
        self._ring._unsubscribe(self)


class SpanRing:
    """Bounded, never-blocking buffer of completed spans.

    ``push`` is O(1) and never waits on consumers: the ring holds the
    last ``capacity`` spans and each subscriber reads at its own pace.
    ``on_drop(count)`` (if given) is invoked whenever a subscriber's
    poll discovers it lost spans — the server wires this to the
    ``obs.spans_dropped`` counter.
    """

    def __init__(
        self,
        capacity: int = 4096,
        on_drop: Callable[[int], None] | None = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.on_drop = on_drop
        self._buf: list[Span | None] = [None] * capacity
        self._next_seq = 0  # sequence number of the NEXT push
        self._subscribers: list[RingSubscriber] = []
        self._lock = threading.Lock()

    def push(self, span: Span) -> None:
        with self._lock:
            self._buf[self._next_seq % self.capacity] = span
            self._next_seq += 1

    def __len__(self) -> int:
        return min(self._next_seq, self.capacity)

    def subscribe(self) -> RingSubscriber:
        with self._lock:
            sub = RingSubscriber(self)
            self._subscribers.append(sub)
            return sub

    def _unsubscribe(self, sub: RingSubscriber) -> None:
        with self._lock:
            if sub in self._subscribers:
                self._subscribers.remove(sub)

    def _read_from(self, cursor: int) -> tuple[list[Span], int, int]:
        """Spans from ``cursor`` onward, dropped count, new cursor."""
        with self._lock:
            head = self._next_seq
            oldest = max(0, head - self.capacity)
            dropped = max(0, oldest - cursor)
            start = max(cursor, oldest)
            spans = [
                self._buf[seq % self.capacity]
                for seq in range(start, head)
            ]
        if dropped and self.on_drop is not None:
            self.on_drop(dropped)
        return [s for s in spans if s is not None], dropped, head

    def latest(self, n: int | None = None) -> list[Span]:
        """The most recent ``n`` spans (all buffered when ``None``)."""
        with self._lock:
            head = self._next_seq
            oldest = max(0, head - self.capacity)
            if n is not None:
                oldest = max(oldest, head - n)
            return [
                s
                for seq in range(oldest, head)
                if (s := self._buf[seq % self.capacity]) is not None
            ]


#: cap on spans buffered per slow-candidate tree, and on the number of
#: concurrently-tracked roots — keeps slow-log memory bounded even if
#: roots leak (e.g. a span never closed because the session vanished).
_MAX_TREE_SPANS = 512
_MAX_LIVE_ROOTS = 1024


class LiveTracer(Tracer):
    """A tracer that streams completed spans into a :class:`SpanRing`.

    Retention is the two hooks :meth:`_created` / :meth:`_completed`:
    here completed spans go to the ring (and optionally the
    slow-transaction buffer) and are otherwise forgotten.
    """

    enabled = True
    _default_clock = staticmethod(time.monotonic)

    def __init__(
        self,
        ring: SpanRing | None = None,
        clock: Callable[[], float] | None = None,
        *,
        slow_threshold: float | None = None,
        on_slow: Callable[[Span, list[Span]], None] | None = None,
    ) -> None:
        self.ring = ring if ring is not None else SpanRing()
        self._ids = itertools.count(1)
        self._clock = clock if clock is not None else self._default_clock
        self._aliases: dict[str, str] = {}
        self._open: dict[str, list[Span]] = {}
        self.slow_threshold = slow_threshold
        self.on_slow = on_slow
        # root span id -> spans of that tree, buffered until the root
        # closes (only when slow capture is configured).
        self._trees: dict[int, list[Span]] = {}
        # span id -> root span id, for spans still relevant to an open
        # tree; entries die with their tree.
        self._roots: dict[int, int] = {}

    # -- configuration -------------------------------------------------------

    def set_clock(self, clock: Callable[[], float] | None) -> None:
        self._clock = clock if clock is not None else self._default_clock

    def alias(self, name: str, canonical: str) -> None:
        if name == canonical:
            return
        self._aliases[name] = canonical
        self._rehome(self._open, name, self._resolve(canonical))

    @staticmethod
    def _rehome(
        index: dict[str, list[Span]], name: str, canonical: str
    ) -> None:
        """Move ``index[name]``'s spans under ``canonical``."""
        moved = index.pop(name, None)
        if moved:
            for span in moved:
                span.txn = canonical
            index.setdefault(canonical, []).extend(moved)

    # -- internals -----------------------------------------------------------

    def _resolve(self, txn: str) -> str:
        if txn not in self._aliases:  # fast path: no set allocation
            return txn
        seen = set()
        while txn in self._aliases and txn not in seen:
            seen.add(txn)
            txn = self._aliases[txn]
        return txn

    def _created(self, span: Span) -> None:
        """Retention hook: ``span`` now exists (open or instantaneous)."""
        if self.on_slow is not None:
            self._track(span)

    def _completed(self, span: Span) -> None:
        """Retention hook: ``span`` has its end time."""
        self.ring.push(span)
        if self.on_slow is not None:
            self._finish_slow(span)

    def _track(self, span: Span) -> None:
        """Attach ``span`` to its root's slow-candidate tree."""
        parent = span.parent_id
        if parent is None or parent not in self._roots:
            # A new root. Evict the oldest tree if at capacity.
            if len(self._trees) >= _MAX_LIVE_ROOTS:
                victim = next(iter(self._trees))
                for s in self._trees.pop(victim):
                    self._roots.pop(s.span_id, None)
            self._roots[span.span_id] = span.span_id
            self._trees[span.span_id] = [span]
            return
        root = self._roots[parent]
        tree = self._trees.get(root)
        if tree is not None and len(tree) < _MAX_TREE_SPANS:
            self._roots[span.span_id] = root
            tree.append(span)

    def _finish_slow(self, span: Span) -> None:
        """Fire slow capture when a completed span closes its root."""
        root = self._roots.get(span.span_id)
        if root != span.span_id:
            return  # not a root — tree resolves when the root closes
        spans = self._trees.pop(span.span_id, None)
        if spans is None:
            return
        for s in spans:
            self._roots.pop(s.span_id, None)
        duration = span.duration
        threshold = self.slow_threshold
        if (
            duration is not None
            and threshold is not None
            and duration >= threshold
        ):
            self.on_slow(span, spans)

    # -- recording -----------------------------------------------------------

    # The producers below inline parent resolution — the tracer rides
    # the dispatcher hot path, and with slow capture off (the common
    # case) a span costs: id, clock, Span(), open-stack append, the two
    # retention hooks (one ring push).

    def start(
        self,
        kind: str,
        txn: str,
        parent: Span | int | None = None,
        **attrs: Any,
    ) -> Span:
        txn = self._resolve(txn)
        if parent is None:
            stack = self._open.get(txn)
            parent_id = stack[-1].span_id if stack else None
        elif parent.__class__ is Span:
            parent_id = parent.span_id
        else:
            parent_id = int(parent)
        span = Span(
            span_id=next(self._ids),
            kind=kind,
            txn=txn,
            start=self._clock(),
            parent_id=parent_id,
            attrs=attrs,  # **attrs is already a fresh dict we own
        )
        self._open.setdefault(txn, []).append(span)
        self._created(span)
        return span

    def end(self, span: Span | None, **attrs: Any) -> None:
        if span is None or span.end is not None:
            return
        span.end = self._clock()
        if attrs:
            span.attrs.update(attrs)
        stack = self._open.get(span.txn)
        if stack and span in stack:
            stack.remove(span)
            if not stack:
                del self._open[span.txn]
        self._completed(span)

    def event(
        self,
        kind: str,
        txn: str,
        parent: Span | int | None = None,
        **attrs: Any,
    ) -> Span:
        now = self._clock()
        return self.record(kind, txn, now, now, parent, **attrs)

    def record(
        self,
        kind: str,
        txn: str,
        start: float,
        end: float,
        parent: Span | int | None = None,
        **attrs: Any,
    ) -> Span:
        txn = self._resolve(txn)
        if parent is None:
            stack = self._open.get(txn)
            parent_id = stack[-1].span_id if stack else None
        elif parent.__class__ is Span:
            parent_id = parent.span_id
        else:
            parent_id = int(parent)
        span = Span(
            span_id=next(self._ids),
            kind=kind,
            txn=txn,
            start=start,
            end=end,
            parent_id=parent_id,
            attrs=attrs,  # **attrs is already a fresh dict we own
        )
        self._created(span)
        self._completed(span)
        return span

    def current_span_id(self, txn: str) -> int | None:
        stack = self._open.get(self._resolve(txn))
        return stack[-1].span_id if stack else None

    def reparent(self, span: Span | None, parent: Span | None) -> None:
        if span is None:
            return
        span.parent_id = None if parent is None else parent.span_id
        if self.on_slow is None or parent is None:
            return
        # Merge the span's slow-candidate tree into the new parent's.
        old_root = self._roots.get(span.span_id)
        new_root = self._roots.get(parent.span_id)
        if old_root is None or new_root is None or old_root == new_root:
            return
        moved = self._trees.pop(old_root, [])
        target = self._trees.get(new_root)
        for s in moved:
            if target is not None and len(target) < _MAX_TREE_SPANS:
                target.append(s)
                self._roots[s.span_id] = new_root
            else:
                self._roots.pop(s.span_id, None)

    # -- introspection -------------------------------------------------------

    def open_spans(self) -> list[Span]:
        """Every currently-open span (oldest first), for live views."""
        spans = [s for stack in self._open.values() for s in stack]
        spans.sort(key=lambda s: s.start)
        return spans


class RecordingTracer(LiveTracer):
    """A :class:`LiveTracer` that also keeps every span, from creation
    and indexed by transaction (a late alias re-homes what was already
    recorded).  Its default clock counts ticks, so clock-less protocol
    sessions still get a total order."""

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        self._spans: list[Span] = []
        self._by_txn: dict[str, list[Span]] = {}
        self._ticks = itertools.count()
        super().__init__(clock=clock)

    def _default_clock(self) -> float:
        return float(next(self._ticks))

    def _created(self, span: Span) -> None:
        super()._created(span)
        self._spans.append(span)
        self._by_txn.setdefault(span.txn, []).append(span)

    def alias(self, name: str, canonical: str) -> None:
        super().alias(name, canonical)
        if name != canonical:
            self._rehome(self._by_txn, name, self._resolve(canonical))

    @property
    def spans(self) -> tuple[Span, ...]:
        return tuple(self._spans)

    def spans_for(self, txn: str) -> list[Span]:
        return list(self._by_txn.get(self._resolve(txn), ()))

    def of_kind(self, kind: str) -> list[Span]:
        return [span for span in self._spans if span.kind == kind]

    def kinds(self) -> set[str]:
        return {span.kind for span in self._spans}

    def __len__(self) -> int:
        return len(self._spans)
