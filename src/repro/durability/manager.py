"""The WAL-backed Section-5 transaction manager.

:class:`DurableTransactionManager` is the in-memory
:class:`~repro.protocol.scheduler.TransactionManager` with a
write-ahead log attached as the sink of its step records, plus the
directory plumbing around it: open/recover, checkpoints and the closing
flush (flushing and the durable 2PC promise need only the sink, so the
base class has them).  The manager itself emits one logical record
per state transition (writes ahead of the version they create, one
ABORT per aborted transaction, re-assignments as they are decided),
so replay never re-runs selection or Figure-4 logic.

Use :meth:`DurableTransactionManager.open` to bind a WAL directory:
it recovers (with verification — refusing to serve on a mismatch) when
the directory has history, or starts fresh and writes the initial
checkpoint so the directory is always recoverable from its checkpoint
plus WAL suffix.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from ..core.transactions import Spec
from ..errors import RecoveryError
from ..obs.metrics import MetricsRegistry
from ..obs.trace import Tracer
from ..protocol.scheduler import TransactionManager
from .crashpoints import CrashPoints
from .recovery import RecoveryResult, recover_with
from .snapshot import CheckpointStore
from .wal import WriteAheadLog, cleanup_segments, list_segments


class DurableTransactionManager(TransactionManager):
    """A :class:`TransactionManager` that survives crashes."""

    _checkpoints: CheckpointStore | None = None
    checkpoint_every = 0
    #: The WAL position of the newest checkpoint.
    _checkpoint_lsn = 0

    # -- opening a WAL directory -------------------------------------------

    @classmethod
    def open(
        cls,
        wal_dir: "Path | str",
        database_factory: "Any | None" = None,
        *,
        flush_interval: float = 0.0,
        checkpoint_every: int = 0,
        segment_bytes: int = 0,
        retain: int = 3,
        root_spec: Spec | None = None,
        tracer: Tracer | None = None,
        registry: MetricsRegistry | None = None,
        strict: bool = False,
        crash_points: CrashPoints | None = None,
        verify: bool = True,
        root_name: str | None = None,
    ) -> "tuple[DurableTransactionManager, RecoveryResult | None]":
        """Bind a WAL directory: recover it, or initialize it fresh.

        Returns ``(manager, recovery)`` where ``recovery`` is ``None``
        on a fresh start.  Raises :class:`RecoveryError` when recovery
        verification fails (the caller must not serve) or when the
        directory is fresh but no ``database_factory`` was given.
        """
        wal_dir = Path(wal_dir)
        wal_dir.mkdir(parents=True, exist_ok=True)
        checkpoints = CheckpointStore(
            wal_dir,
            retain=retain,
            registry=registry,
            crash_points=crash_points,
        )
        has_history = bool(checkpoints.checkpoints()) or bool(
            list_segments(wal_dir)
        )
        options = dict(tracer=tracer, registry=registry, strict=strict)
        recovery: RecoveryResult | None = None
        if has_history:
            recovery = recover_with(
                lambda state: cls(state, **options),
                wal_dir,
                verify=verify,
                registry=registry,
            )
            if verify and not recovery.verified:
                raise RecoveryError(
                    "refusing to serve: recovered state failed "
                    "verification: " + "; ".join(recovery.violations)
                )
            manager = recovery.manager
            assert isinstance(manager, cls)
        elif database_factory is None:
            raise RecoveryError(
                f"{wal_dir} has no history and no database factory "
                "was provided"
            )
        else:
            manager = cls(
                database_factory(),
                root_spec=root_spec,
                root_name=root_name,
                **options,
            )
        manager._sink = WriteAheadLog(
            wal_dir,
            next_lsn=recovery.last_lsn + 1 if recovery is not None else 1,
            flush_interval=flush_interval,
            segment_bytes=segment_bytes,
            registry=registry,
            tracer=tracer,
            crash_points=crash_points,
        )
        manager._checkpoints = checkpoints
        manager.checkpoint_every = checkpoint_every
        # Re-anchor the directory: a checkpoint of the current state
        # (post-recovery, or the fresh initial state) so it is always
        # recoverable from checkpoint + WAL suffix.
        manager.checkpoint()
        return manager, recovery

    # -- durability plumbing -----------------------------------------------

    @property
    def checkpoints(self) -> CheckpointStore | None:
        return self._checkpoints

    def checkpoint(self) -> "Path | None":
        """Write a checkpoint of the current state and rotate the WAL."""
        if self._sink is None or self._checkpoints is None:
            return None
        self._sink.flush()
        last_lsn = self._sink.last_lsn
        path = self._checkpoints.write(self._state.encoded(), last_lsn)
        self._sink.rotate()
        oldest = self._checkpoints.oldest_retained_lsn()
        if oldest is not None:
            cleanup_segments(self._sink.directory, oldest)
        self._checkpoint_lsn = last_lsn
        return path

    def _after_step(self) -> None:
        wal = self._sink
        if (
            wal is not None
            and 0 < self.checkpoint_every
            <= wal.last_lsn - self._checkpoint_lsn
        ):
            self.checkpoint()

    def close(self, checkpoint: bool = True) -> None:
        """Flush (and by default checkpoint) before shutting down."""
        if self._sink is None or self._sink.closed:
            return
        if checkpoint:
            self.checkpoint()
        self._sink.close()
