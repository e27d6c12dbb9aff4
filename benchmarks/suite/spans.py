"""Span recording for the traced run, from the benchmark's own files.

The system under test is not instrumented.  The traced run hands the
in-process server a benchmark-owned manager subclass whose public calls
(and whose WAL's append/flush) open and close spans on one
:class:`SpanRecorder`; the driver opens the root span around each
client request.  With one connection there is one request in flight at
a time, and everything the server does for it runs synchronously inside
that window, so a plain stack gives every span its parent.

A span is ``[name, start, end, parent, txn]`` on ``time.perf_counter``;
spans stay in memory until the run ends.  A layer's *self time* is its
spans' duration minus the part their children cover, so the layers of
one request sum to the request.
"""

from __future__ import annotations

import json
from time import perf_counter
from typing import Any, Callable

NAME, START, END, PARENT, TXN = range(5)

#: Manager calls the dispatcher makes, each wrapped in a span.
MANAGER_CALLS = (
    "define",
    "validate",
    "read",
    "write",
    "begin_write",
    "end_write",
    "can_commit",
    "unstable_reads_from",
    "commit",
    "prepare",
    "abort",
    "checkpoint",
)
WAL_CALLS = ("append", "flush", "maybe_flush")


def layer_of(name: str) -> str:
    """The layer (module) a span's self time is charged to."""
    if name.startswith("request"):
        return "server"
    if name.startswith("wal.") or name == "manager.checkpoint":
        return "durability"
    return "protocol"


class SpanRecorder:
    """In-memory span list with a stack for the current parent."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []

    def open(self, name: str, txn: Any = None) -> int:
        parent = self._stack[-1] if self._stack else None
        if txn is None and parent is not None:
            txn = self.spans[parent][TXN]
        index = len(self.spans)
        self.spans.append([name, perf_counter(), None, parent, txn])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(
                f"span {index} closed while {popped} was innermost"
            )

    def wrap(self, func: Callable, name: str) -> Callable:
        """``func`` with a span around each call (for bound methods)."""

        def spanned(*args: Any, **kwargs: Any) -> Any:
            index = self.open(name)
            try:
                return func(*args, **kwargs)
            finally:
                self.close(index)

        return spanned

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": span[NAME],
                            "start": span[START],
                            "end": span[END],
                            "parent": span[PARENT],
                            "txn": span[TXN],
                        }
                    )
                    + "\n"
                )


def _spanned_method(func: Callable, name: str) -> Callable:
    def method(self, *args: Any, **kwargs: Any) -> Any:
        recorder = self.spans
        if recorder is None:
            return func(self, *args, **kwargs)
        index = recorder.open(name)
        try:
            return func(self, *args, **kwargs)
        finally:
            recorder.close(index)

    method.__name__ = func.__name__
    return method


def traced_manager_class(base: type) -> type:
    """A subclass of ``base`` with a span around each public call.

    ``spans`` starts as ``None`` (calls pass straight through) because
    ``DurableTransactionManager.open`` checkpoints before the caller
    can attach a recorder; :func:`attach` sets it.
    """
    namespace: dict[str, Any] = {"spans": None}
    for call in MANAGER_CALLS:
        func = getattr(base, call, None)
        if func is not None:
            namespace[call] = _spanned_method(func, f"manager.{call}")
    return type(f"Traced{base.__name__}", (base,), namespace)


def attach(manager: Any, recorder: SpanRecorder) -> None:
    """Start recording ``manager``'s calls and its WAL's, if it has one."""
    manager.spans = recorder
    wal = getattr(manager, "wal", None)
    if wal is not None:
        for call in WAL_CALLS:
            setattr(wal, call, recorder.wrap(getattr(wal, call), f"wal.{call}"))


def self_times(spans: list[list[Any]]) -> list[float]:
    """Each span's duration minus what its direct children cover."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        parent = span[PARENT]
        if parent is not None:
            own[parent] -= span[END] - span[START]
    return own


def root_of(spans: list[list[Any]]) -> list[int]:
    """Index of each span's root (its outermost ancestor)."""
    roots: list[int] = []
    for index, span in enumerate(spans):
        parent = span[PARENT]
        # Parents are recorded before their children.
        roots.append(index if parent is None else roots[parent])
    return roots


def layer_seconds_by_root(
    spans: list[list[Any]],
) -> dict[int, dict[str, float]]:
    """Per request (root span index): self time of each layer under it.

    Background spans (a group-commit tick between requests) have no
    request above them and are left out, so a request's layers sum to
    the request.
    """
    own = self_times(spans)
    roots = root_of(spans)
    by_root: dict[int, dict[str, float]] = {}
    for index, span in enumerate(spans):
        root = roots[index]
        if not spans[root][NAME].startswith("request"):
            continue
        layers = by_root.setdefault(
            root, {"server": 0.0, "protocol": 0.0, "durability": 0.0}
        )
        layers[layer_of(span[NAME])] += own[index]
    return by_root


def layer_self_seconds(spans: list[list[Any]]) -> dict[str, float]:
    """Self time per layer, summed over every request of the run."""
    totals = {"server": 0.0, "protocol": 0.0, "durability": 0.0}
    for layers in layer_seconds_by_root(spans).values():
        for layer, seconds in layers.items():
            totals[layer] += seconds
    return totals


def exclusive_of_wal(spans: list[list[Any]]) -> list[float]:
    """Each span's duration minus the WAL spans anywhere beneath it.

    This is what ``protocol.<call>_us`` reports: the manager call as
    the §5 protocol (and the version store under it) costs it, without
    the logging a durable manager adds.
    """
    wal_inside = [0.0] * len(spans)
    for index in range(len(spans) - 1, -1, -1):
        span = spans[index]
        parent = span[PARENT]
        if parent is None:
            continue
        if span[NAME].startswith("wal."):
            # Outermost WAL span only: flush inside append is covered.
            if not spans[parent][NAME].startswith("wal."):
                wal_inside[parent] += span[END] - span[START]
        else:
            wal_inside[parent] += wal_inside[index]
    return [
        span[END] - span[START] - wal_inside[index]
        for index, span in enumerate(spans)
    ]
