"""Tests for the live layer: SpanRing, subscribers, LiveTracer, and its
agreement with the RecordingTracer retention mode."""

from __future__ import annotations

import itertools
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import LiveTracer, RecordingTracer, SpanRing
from repro.obs.trace import Span


def _fake_clock(start: float = 0.0, step: float = 1.0):
    ticks = itertools.count()
    return lambda: start + step * next(ticks)


class TestSpanRing:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            SpanRing(0)

    def test_len_saturates_at_capacity(self):
        ring = SpanRing(4)
        for i in range(7):
            ring.push(Span(span_id=i, kind="e", txn="t", start=0.0, end=0.0))
        assert len(ring) == 4

    def test_subscriber_sees_only_spans_after_subscribe(self):
        ring = SpanRing(8)
        ring.push(Span(span_id=1, kind="e", txn="t", start=0.0, end=0.0))
        sub = ring.subscribe()
        ring.push(Span(span_id=2, kind="e", txn="t", start=1.0, end=1.0))
        spans, dropped = sub.poll()
        assert [s.span_id for s in spans] == [2]
        assert dropped == 0

    def test_poll_is_incremental(self):
        ring = SpanRing(8)
        sub = ring.subscribe()
        ring.push(Span(span_id=1, kind="e", txn="t", start=0.0, end=0.0))
        assert [s.span_id for s in sub.poll()[0]] == [1]
        # Nothing new: second poll is empty, not a replay.
        assert sub.poll() == ([], 0)

    def test_wraparound_reports_exact_drop_count(self):
        ring = SpanRing(4)
        sub = ring.subscribe()
        for i in range(10):  # 6 spans fall out of the window
            ring.push(Span(span_id=i, kind="e", txn="t", start=0.0, end=0.0))
        spans, dropped = sub.poll()
        assert dropped == 6
        assert [s.span_id for s in spans] == [6, 7, 8, 9]
        assert sub.dropped_total == 6

    def test_slow_subscriber_never_blocks_the_producer(self):
        # A subscriber that never polls must not stop pushes: the ring
        # overwrites the oldest spans and accounts for every loss.
        ring = SpanRing(16)
        sub = ring.subscribe()
        for i in range(16 * 3):
            ring.push(Span(span_id=i, kind="e", txn="t", start=0.0, end=0.0))
        spans, dropped = sub.poll()
        assert len(spans) == 16
        assert dropped == 32
        assert [s.span_id for s in spans] == list(range(32, 48))

    def test_on_drop_fires_with_the_lost_count(self):
        drops: list[int] = []
        ring = SpanRing(2, on_drop=drops.append)
        sub = ring.subscribe()
        for i in range(5):
            ring.push(Span(span_id=i, kind="e", txn="t", start=0.0, end=0.0))
        sub.poll()
        assert drops == [3]
        sub.poll()  # nothing new, nothing dropped
        assert drops == [3]

    def test_independent_subscriber_cursors(self):
        ring = SpanRing(8)
        fast, slow = ring.subscribe(), ring.subscribe()
        ring.push(Span(span_id=1, kind="e", txn="t", start=0.0, end=0.0))
        assert len(fast.poll()[0]) == 1
        ring.push(Span(span_id=2, kind="e", txn="t", start=1.0, end=1.0))
        assert [s.span_id for s in fast.poll()[0]] == [2]
        assert [s.span_id for s in slow.poll()[0]] == [1, 2]

    def test_unsubscribe_is_idempotent(self):
        ring = SpanRing(4)
        sub = ring.subscribe()
        sub.close()
        sub.close()
        assert ring._subscribers == []

    def test_latest(self):
        ring = SpanRing(4)
        for i in range(6):
            ring.push(Span(span_id=i, kind="e", txn="t", start=0.0, end=0.0))
        assert [s.span_id for s in ring.latest()] == [2, 3, 4, 5]
        assert [s.span_id for s in ring.latest(2)] == [4, 5]

    def test_concurrent_pushes_all_accounted_for(self):
        ring = SpanRing(64)
        sub = ring.subscribe()

        def produce(base: int) -> None:
            for i in range(200):
                ring.push(
                    Span(
                        span_id=base + i, kind="e", txn="t",
                        start=0.0, end=0.0,
                    )
                )

        threads = [
            threading.Thread(target=produce, args=(1000 * n,))
            for n in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        spans, dropped = sub.poll()
        assert len(spans) + dropped == 800


class TestLiveTracer:
    def test_completed_spans_stream_open_spans_do_not(self):
        tracer = LiveTracer(SpanRing(16), clock=_fake_clock())
        feed = tracer.ring.subscribe()
        outer = tracer.start("txn", "T1")
        inner = tracer.start("read", "T1")
        assert feed.poll() == ([], 0)  # nothing closed yet
        tracer.end(inner)
        tracer.end(outer)
        spans, _ = feed.poll()
        assert [s.kind for s in spans] == ["read", "txn"]  # close order

    def test_parent_comes_from_open_stack(self):
        tracer = LiveTracer(clock=_fake_clock())
        outer = tracer.start("txn", "T1")
        inner = tracer.start("validate", "T1")
        event = tracer.event("predicate.eval", "T1")
        assert inner.parent_id == outer.span_id
        assert event.parent_id == inner.span_id

    def test_explicit_parent_by_span_and_by_id(self):
        tracer = LiveTracer(clock=_fake_clock())
        root = tracer.start("txn", "T1")
        by_span = tracer.start("read", "T1", parent=root)
        by_id = tracer.event("note", "T1", parent=root.span_id)
        assert by_span.parent_id == root.span_id
        assert by_id.parent_id == root.span_id

    def test_end_merges_attrs_and_is_idempotent(self):
        tracer = LiveTracer(SpanRing(8), clock=_fake_clock())
        feed = tracer.ring.subscribe()
        span = tracer.start("txn", "T1", attempt=0)
        tracer.end(span, outcome="committed")
        tracer.end(span, outcome="late")  # no-op: already closed
        spans, _ = feed.poll()
        assert len(spans) == 1
        assert spans[0].attrs == {"attempt": 0, "outcome": "committed"}

    def test_alias_rehomes_open_spans(self):
        tracer = LiveTracer(clock=_fake_clock())
        span = tracer.start("request", "session.r1")
        tracer.alias("session.r1", "t.0")
        assert span.txn == "t.0"
        # Later spans under the alias chain land on the canonical name
        # and still see the open stack.
        child = tracer.start("read", "session.r1")
        assert child.txn == "t.0"
        assert child.parent_id == span.span_id

    def test_record_keeps_explicit_timestamps(self):
        tracer = LiveTracer(SpanRing(8), clock=_fake_clock())
        feed = tracer.ring.subscribe()
        root = tracer.start("txn", "T1")
        span = tracer.record(
            "wal.fsync", "wal", 3.0, 7.0, parent=root.span_id, records=2
        )
        assert (span.start, span.end) == (3.0, 7.0)
        assert span.parent_id == root.span_id
        assert [s.kind for s in feed.poll()[0]] == ["wal.fsync"]

    def test_event_is_a_point_span(self):
        tracer = LiveTracer(clock=_fake_clock(start=5.0, step=0.0))
        span = tracer.event("arrive", "T1")
        assert span.is_event
        assert span.start == span.end == 5.0

    def test_current_span_id_and_reparent(self):
        tracer = LiveTracer(clock=_fake_clock())
        root = tracer.start("txn", "T1")
        assert tracer.current_span_id("T1") == root.span_id
        assert tracer.current_span_id("unknown") is None
        stray = tracer.start("request", "other")
        tracer.reparent(stray, root)
        assert stray.parent_id == root.span_id
        tracer.reparent(stray, None)
        assert stray.parent_id is None

    def test_open_spans_sorted_by_start(self):
        tracer = LiveTracer(clock=_fake_clock())
        a = tracer.start("txn", "T1")
        b = tracer.start("txn", "T2")
        assert tracer.open_spans() == [a, b]
        tracer.end(a)
        assert tracer.open_spans() == [b]
        tracer.end(b)
        assert tracer.open_spans() == []


class TestSlowCapture:
    def _tracer(self, threshold: float):
        captured: list[tuple[Span, list[Span]]] = []
        tracer = LiveTracer(
            SpanRing(64),
            clock=_fake_clock(),
            slow_threshold=threshold,
            on_slow=lambda root, spans: captured.append((root, spans)),
        )
        return tracer, captured

    def test_slow_root_delivers_the_whole_tree(self):
        tracer, captured = self._tracer(threshold=2.0)
        root = tracer.start("txn", "T1")  # t=0
        child = tracer.start("read", "T1")  # t=1
        tracer.end(child)  # t=2
        tracer.end(root)  # t=3 → duration 3 >= 2
        assert len(captured) == 1
        got_root, spans = captured[0]
        assert got_root is root
        assert {s.kind for s in spans} == {"txn", "read"}

    def test_fast_tree_is_discarded(self):
        tracer, captured = self._tracer(threshold=100.0)
        root = tracer.start("txn", "T1")
        tracer.end(root)
        assert captured == []
        # The buffered tree died with its root — no leak.
        assert tracer._trees == {}
        assert tracer._roots == {}

    def test_point_root_resolves_immediately(self):
        tracer, captured = self._tracer(threshold=0.0)
        tracer.event("define", "T1")  # parent-less point span is a root
        assert len(captured) == 1
        assert tracer._trees == {}

    def test_tree_span_cap_keeps_memory_bounded(self):
        from repro.obs import live

        tracer, captured = self._tracer(threshold=0.0)
        root = tracer.start("txn", "T1")
        for _ in range(live._MAX_TREE_SPANS + 10):
            tracer.event("predicate.eval", "T1", parent=root.span_id)
        tracer.end(root)
        assert len(captured) == 1
        _, spans = captured[0]
        assert len(spans) == live._MAX_TREE_SPANS


# One implementation, two retention modes: the same call sequence must
# produce the same span ids, parents and transaction names whether the
# spans stream to a ring or are all kept.

_PROTOCOL_NAMES = ("t.0", "t.1", "t.2")
_ENGINE_IDS = ("D0", "D1")
_names = st.sampled_from(_PROTOCOL_NAMES + _ENGINE_IDS)
_pick = st.integers(min_value=0, max_value=63)
_calls = st.lists(
    st.one_of(
        st.tuples(st.just("start"), _names, st.none() | _pick),
        st.tuples(st.just("end"), _pick),
        st.tuples(st.just("event"), _names, st.none() | _pick),
        st.tuples(st.just("record"), _names, st.none() | _pick),
        st.tuples(
            st.just("alias"),
            st.sampled_from(_PROTOCOL_NAMES),
            st.sampled_from(_ENGINE_IDS),
        ),
        st.tuples(st.just("reparent"), _pick, st.none() | _pick),
        st.tuples(st.just("current"), _names),
    ),
    max_size=60,
)


def _drive(tracer, calls):
    """Apply ``calls``; return what each call let its caller observe."""
    spans: list[Span] = []
    aliased: set[str] = set()
    seen = []

    def chosen(index):
        return spans[index % len(spans)] if spans and index is not None else None

    for call in calls:
        op = call[0]
        if op in ("start", "event", "record"):
            parent = chosen(call[2])
            if op == "record":
                span = tracer.record("k", call[1], 2.0, 5.0, parent, n=len(spans))
            else:
                span = getattr(tracer, op)("k", call[1], parent, n=len(spans))
            spans.append(span)
            seen.append((span.span_id, span.parent_id, span.txn))
        elif op == "end" and spans:
            tracer.end(chosen(call[1]), closed=True)
        elif op == "alias" and call[1] not in aliased:
            aliased.add(call[1])  # a protocol name is learned once
            tracer.alias(call[1], call[2])
        elif op == "reparent" and spans:
            tracer.reparent(chosen(call[1]), chosen(call[2]))
        elif op == "current":
            seen.append(tracer.current_span_id(call[1]))
    final = [
        (
            span.span_id,
            span.parent_id,
            tracer._resolve(span.txn),
            span.start,
            span.end,
            span.attrs,
        )
        for span in spans
    ]
    return seen, final, spans


@settings(max_examples=60, deadline=None)
@given(calls=_calls)
def test_retention_modes_agree_on_ids_parents_and_names(calls):
    live = LiveTracer(SpanRing(256), clock=_fake_clock())
    recording = RecordingTracer(clock=_fake_clock())
    live_seen, live_final, live_spans = _drive(live, calls)
    rec_seen, rec_final, rec_spans = _drive(recording, calls)
    assert live_seen == rec_seen
    assert live_final == rec_final
    # Retention is the only difference: the recording tracer kept every
    # span in creation order (and re-homed them all); the live one
    # holds exactly the open ones and streamed the completed ones.
    assert list(recording.spans) == rec_spans
    assert all(s.txn == recording._resolve(s.txn) for s in rec_spans)
    assert {s.span_id for s in live.open_spans()} == {
        s.span_id for s in live_spans if s.end is None
    }
    for tracer, spans in ((live, live_spans), (recording, rec_spans)):
        assert sorted(s.span_id for s in tracer.ring.latest()) == sorted(
            s.span_id for s in spans if s.end is not None
        )
