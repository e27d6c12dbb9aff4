"""Atomic checkpoint files with checksums and retention.

A checkpoint is one JSON file ``checkpoint-{last_lsn:012d}.json``
holding the full logical state of the manager (see
:meth:`repro.protocol.state.ProtocolState.dump`) as of WAL position ``last_lsn``,
protected by a SHA-256 over the canonical payload.  The writer takes
the state already encoded (:class:`~repro.protocol.state.EncodedState`),
so a live manager re-encodes only the records that changed since its
last checkpoint; the bytes are those of ``json.dumps`` of the whole
payload.  Publication is the classic atomic dance: write to a temp
file, fsync it, ``os.replace`` into place, fsync the directory — a
crash at any point leaves either the old set of checkpoints or the old
set plus a complete new one, never a half-written one with a valid
name.

Retention keeps the newest ``retain`` checkpoints; recovery falls back
through them newest-first, skipping any that fail their checksum.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any

from ..errors import DurabilityError
from ..obs.metrics import MetricsRegistry
from ..protocol.state import EncodedState
from .crashpoints import NULL_CRASH_POINTS, CrashPoints, SimulatedCrash
from .wal import _fsync_dir

CHECKPOINT_PREFIX = "checkpoint-"
CHECKPOINT_SUFFIX = ".json"
FORMAT_VERSION = 1


def checkpoint_name(last_lsn: int) -> str:
    return f"{CHECKPOINT_PREFIX}{last_lsn:012d}{CHECKPOINT_SUFFIX}"


def checkpoint_lsn(path: Path) -> int:
    stem = path.name[len(CHECKPOINT_PREFIX) : -len(CHECKPOINT_SUFFIX)]
    try:
        return int(stem)
    except ValueError:
        raise DurabilityError(
            f"not a checkpoint file name: {path.name}"
        ) from None


def _digest(last_lsn: int, state: dict[str, Any]) -> str:
    canonical = json.dumps(
        {"last_lsn": last_lsn, "state": state},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    return hashlib.sha256(canonical).hexdigest()


class CheckpointStore:
    """Reads and writes the checkpoint files of one WAL directory."""

    def __init__(
        self,
        wal_dir: "Path | str",
        *,
        retain: int = 3,
        registry: MetricsRegistry | None = None,
        crash_points: CrashPoints | None = None,
    ) -> None:
        if retain < 1:
            raise DurabilityError("must retain at least one checkpoint")
        self._dir = Path(wal_dir)
        self._dir.mkdir(parents=True, exist_ok=True)
        self.retain = retain
        self._registry = registry
        self._points = (
            crash_points if crash_points is not None else NULL_CRASH_POINTS
        )

    def checkpoints(self) -> list[Path]:
        """Checkpoint files, oldest first."""
        return sorted(
            (
                path
                for path in self._dir.iterdir()
                if path.name.startswith(CHECKPOINT_PREFIX)
                and path.name.endswith(CHECKPOINT_SUFFIX)
            ),
            key=checkpoint_lsn,
        )

    def oldest_retained_lsn(self) -> int | None:
        existing = self.checkpoints()
        return checkpoint_lsn(existing[0]) if existing else None

    # -- write -------------------------------------------------------------

    def write(self, state: EncodedState, last_lsn: int) -> Path:
        """Publish a checkpoint atomically; prune beyond ``retain``.

        The bytes are ``json.dumps(payload, sort_keys=True)`` and the
        digest is :func:`_digest`'s, spliced from ``state``'s two forms.
        """
        target = self._dir / checkpoint_name(last_lsn)
        digest = hashlib.sha256(
            f'{{"last_lsn":{last_lsn},"state":{state.canonical}}}'.encode(
                "utf-8"
            )
        ).hexdigest()
        encoded = (
            f'{{"format": {FORMAT_VERSION}, "last_lsn": {last_lsn}, '
            f'"sha256": "{digest}", "state": {state.text}}}'
        ).encode("utf-8")
        tmp = target.with_suffix(target.suffix + ".tmp")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            if self._points.hit("checkpoint.mid_write"):
                os.write(fd, encoded[: max(1, len(encoded) // 2)])
                raise SimulatedCrash("checkpoint.mid_write")
            os.write(fd, encoded)
            os.fsync(fd)
        finally:
            os.close(fd)
        self._points.check("checkpoint.before_rename")
        os.replace(tmp, target)
        _fsync_dir(self._dir)
        self._points.check("checkpoint.after_rename")
        if self._registry is not None:
            self._registry.counter("durability.checkpoints").inc()
            self._registry.counter("durability.checkpoint_bytes").inc(
                len(encoded)
            )
        self._prune()
        self._points.check("checkpoint.after_retention")
        return target

    def _prune(self) -> None:
        existing = self.checkpoints()
        for stale in existing[: max(0, len(existing) - self.retain)]:
            stale.unlink()
        for leftover in self._dir.glob(f"{CHECKPOINT_PREFIX}*.tmp"):
            leftover.unlink()

    # -- read --------------------------------------------------------------

    def load_newest(self) -> "tuple[dict[str, Any], int] | None":
        """The newest checkpoint that passes its checksum, if any.

        Falls back through older checkpoints on damage; returns
        ``(state, last_lsn)`` or ``None`` when no usable checkpoint
        exists (fresh directory, or every candidate corrupt — the
        caller decides whether replay-from-scratch is possible).
        """
        for path in reversed(self.checkpoints()):
            loaded = self._load(path)
            if loaded is not None:
                return loaded
        return None

    def _load(self, path: Path) -> "tuple[dict[str, Any], int] | None":
        try:
            payload = json.loads(path.read_bytes())
        except (ValueError, OSError):
            return None
        if not isinstance(payload, dict):
            return None
        if payload.get("format") != FORMAT_VERSION:
            return None
        state = payload.get("state")
        last_lsn = payload.get("last_lsn")
        if not isinstance(state, dict) or not isinstance(last_lsn, int):
            return None
        if payload.get("sha256") != _digest(last_lsn, state):
            return None
        if last_lsn != checkpoint_lsn(path):
            return None
        return state, last_lsn
