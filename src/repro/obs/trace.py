"""Span-based transaction-lifecycle tracing.

The paper's motivation (Section 2.4) is quantitative — "reduce the
number and duration of waits, reduce the number and effect of aborts" —
but aggregates alone cannot say *why* a transaction waited, restarted,
or failed validation.  The tracer records the lifecycle as **spans**
(intervals: validate, wait, read, write, commit) and **events**
(points: arrive, define, re-eval, lock.block) with causal parent
links, so a run can be replayed offline as a per-transaction timeline
(:mod:`repro.obs.export`).

Design constraints:

* **Zero-cost when off.**  The base :class:`Tracer` is a no-op and is
  the default everywhere; instrumented hot paths guard attribute
  construction behind ``tracer.enabled`` so the disabled cost is one
  attribute load and a branch.
* **Clock-agnostic.**  The protocol layer has no clock, the simulator
  runs in virtual time.  The recording tracer
  (:mod:`repro.obs.live`) defaults to a monotonic tick counter and
  accepts any ``clock()`` callable (the simulation engine installs
  ``lambda: queue.now``).
* **Two name spaces, one timeline.**  The simulator names transactions
  by engine id (``T1``, ``T1#2``); the protocol by hierarchical name
  (``t.0.5``).  :meth:`Tracer.alias` maps protocol names onto engine
  ids at record time so one transaction's spans land in one group.

Span taxonomy (see ``docs/observability.md``):

========  ======  ==================================================
kind      form    meaning
========  ======  ==================================================
txn       span    one attempt at a transaction, begin → outcome
arrive    event   the attempt entered the system
define    event   protocol registration (parent, update set)
validate  span    R_v locks + D-sets + version selection
wait      span    parked on a blocked request, entity attached
read      span    one read request (version, value)
write     span    write-begin → write-end (the short W-lock window)
commit    span    commit-rule checks + release
abort     event   abort, with reason and cascade cause
restart   event   the simulator restarted the transaction
give-up   event   restart budget exhausted
reeval    event   Figure-4 re-evaluation decision
reassign  event   Figure-4 re-assignment to a new version
lock.*    event   lock block / grant transitions, queue depth
predicate.eval  event  a predicate evaluated against a state
========  ======  ==================================================
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator


@dataclass(slots=True)
class Span:
    """One recorded interval (or point event, when ``end == start``).

    ``parent_id`` is the causal link: the enclosing open span of the
    same transaction at start time, unless overridden.
    """

    span_id: int
    kind: str
    txn: str
    start: float
    end: float | None = None
    parent_id: int | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float | None:
        if self.end is None:
            return None
        return self.end - self.start

    @property
    def is_event(self) -> bool:
        return self.end == self.start

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (see :mod:`repro.obs.export`)."""
        return {
            "span_id": self.span_id,
            "kind": self.kind,
            "txn": self.txn,
            "start": self.start,
            "end": self.end,
            "parent_id": self.parent_id,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Span":
        return cls(
            span_id=int(data["span_id"]),
            kind=str(data["kind"]),
            txn=str(data["txn"]),
            start=float(data["start"]),
            end=None if data.get("end") is None else float(data["end"]),
            parent_id=(
                None
                if data.get("parent_id") is None
                else int(data["parent_id"])
            ),
            attrs=dict(data.get("attrs", {})),
        )


class Tracer:
    """The no-op tracer — the default on every instrumented path.

    Every hook is a ``pass``/``return None``; hot paths additionally
    check :attr:`enabled` before building attribute dictionaries, so a
    disabled tracer costs one branch per instrumentation point.
    """

    enabled: bool = False

    def start(
        self,
        kind: str,
        txn: str,
        parent: "Span | int | None" = None,
        **attrs: Any,
    ) -> Span | None:
        """Open a span; returns ``None`` when disabled."""
        return None

    def end(self, span: Span | None, **attrs: Any) -> None:
        """Close a span previously returned by :meth:`start`."""

    def event(
        self,
        kind: str,
        txn: str,
        parent: "Span | int | None" = None,
        **attrs: Any,
    ) -> Span | None:
        """Record a point event."""
        return None

    @contextmanager
    def span(self, kind: str, txn: str, **attrs: Any) -> Iterator[Span | None]:
        handle = self.start(kind, txn, **attrs)
        try:
            yield handle
        finally:
            self.end(handle)

    def alias(self, name: str, canonical: str) -> None:
        """Record that ``name`` denotes the same transaction as
        ``canonical`` (protocol name → engine id)."""

    def record(
        self,
        kind: str,
        txn: str,
        start: float,
        end: float,
        parent: "Span | int | None" = None,
        **attrs: Any,
    ) -> Span | None:
        """Record an already-measured interval with explicit timestamps.

        Used by layers whose work completes *after* the causal parent
        closed — most importantly the WAL's group-commit fsync, which
        covers records appended during requests already answered.
        """
        return None

    def current_span_id(self, txn: str) -> int | None:
        """The innermost open span of ``txn`` (``None`` when disabled).

        Lets a lower layer capture a causal parent now for a span it
        will only :meth:`record` later (the group-commit pattern).
        """
        return None

    def reparent(self, span: Span | None, parent: Span | None) -> None:
        """Re-home ``span`` under ``parent`` after the fact.

        The server uses this for ``define``: the request span opens
        before the transaction (and its lifetime root span) exists, and
        is folded under the root once ``define`` returns the name.
        """

    def set_clock(self, clock: Callable[[], float] | None) -> None:
        """Install a timestamp source (no-op when disabled)."""


NULL_TRACER = Tracer()
"""The shared disabled tracer instance."""
