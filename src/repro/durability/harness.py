"""Crash-point fault-injection harness.

Runs a workload against a :class:`DurableTransactionManager` with one
armed crash point, lets the :class:`SimulatedCrash` fire, then builds a
*survivor copy* of the WAL directory modelling what stable storage
would hold and runs recovery on it.

Two survival models:

``kill``
    The process died (SIGKILL) but the machine did not.  Every byte
    handed to the OS survives — full file copies.  This is the model
    for the ``os.write``-before-return contract of the WAL.

``powerloss``
    The machine died.  Only fsynced bytes survive: each WAL segment in
    the survivor copy is truncated to the appender's
    :meth:`WriteAheadLog.durable_lengths` figure (group-committed but
    unflushed records vanish).  Checkpoint files are copied whole —
    they are fsynced before their atomic rename, so a visible
    checkpoint is a durable checkpoint; a half-written ``*.tmp`` is
    copied as-is and ignored by recovery.

The harness never asserts — it reports.  Tests make the claims:
recovery must land on exactly the durable committed prefix, and the
recovered state must verify.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from ..obs.metrics import MetricsRegistry
from ..storage.database import Database
from .crashpoints import CRASH_POINTS, CrashPoints, SimulatedCrash
from .manager import DurableTransactionManager
from .recovery import RecoveryResult, recover
from .wal import SEGMENT_PREFIX, SEGMENT_SUFFIX

MODES = ("kill", "powerloss")


@dataclass
class CrashOutcome:
    """What one simulated crash-and-recover run produced."""

    crash_point: str
    mode: str
    fired: bool
    #: Transactions the live manager saw committed at crash time.
    pre_crash_committed: list[str]
    #: Root-level world view at crash time (live manager's view).
    pre_crash_view: dict[str, int]
    survivor_dir: Path
    recovery: RecoveryResult
    workload_result: Any = None
    error: "Exception | None" = field(default=None, repr=False)

    @property
    def recovered_committed(self) -> list[str]:
        return list(self.recovery.committed)


def build_survivor_copy(
    live_dir: Path,
    survivor_dir: Path,
    *,
    mode: str = "kill",
    durable_lengths: "dict[str, int] | None" = None,
) -> Path:
    """Copy a WAL directory the way stable storage would keep it.

    ``durable_lengths`` (from :meth:`WriteAheadLog.durable_lengths`,
    captured at crash time) drives ``powerloss`` truncation; segments
    absent from the map predate this appender and are fully durable.
    """
    if mode not in MODES:
        raise ValueError(f"unknown crash mode {mode!r}; expected {MODES}")
    durable_lengths = durable_lengths or {}
    survivor_dir.mkdir(parents=True, exist_ok=True)
    for path in sorted(live_dir.iterdir()):
        if not path.is_file():
            continue
        target = survivor_dir / path.name
        is_segment = path.name.startswith(
            SEGMENT_PREFIX
        ) and path.name.endswith(SEGMENT_SUFFIX)
        if (
            mode == "powerloss"
            and is_segment
            and path.name in durable_lengths
        ):
            keep = durable_lengths[path.name]
            target.write_bytes(path.read_bytes()[:keep])
        else:
            shutil.copyfile(path, target)
    return survivor_dir


def simulate_crash(
    scratch_dir: "Path | str",
    database_factory: Callable[[], Database],
    workload: Callable[[DurableTransactionManager], Any],
    *,
    crash_point: str,
    at_hit: int = 1,
    mode: str = "kill",
    flush_interval: float = 0.0,
    checkpoint_every: int = 0,
    retain: int = 3,
    strict: bool = False,
    verify: bool = True,
    registry: MetricsRegistry | None = None,
) -> CrashOutcome:
    """Arm one crash point, run the workload, crash, recover a copy.

    ``scratch_dir`` receives two subdirectories: ``live`` (the dying
    process's WAL) and ``survivor`` (what recovery actually reads).
    The workload may itself raise — any non-crash exception is captured
    in :attr:`CrashOutcome.error` and recovery still runs, because a
    crashed *workload* is just another thing recovery must survive.
    """
    if crash_point not in CRASH_POINTS:
        raise ValueError(
            f"unknown crash point {crash_point!r}; "
            f"expected one of {CRASH_POINTS}"
        )
    scratch_dir = Path(scratch_dir)
    live_dir = scratch_dir / "live"
    survivor_dir = scratch_dir / "survivor"
    points = CrashPoints()

    manager, _ = DurableTransactionManager.open(
        live_dir,
        database_factory,
        flush_interval=flush_interval,
        checkpoint_every=checkpoint_every,
        retain=retain,
        strict=strict,
        crash_points=points,
    )
    # Arm only once the service is up: the crash targets the workload,
    # not the bootstrap checkpoint that open() writes.
    points.arm(crash_point, at_hit=at_hit)
    fired = False
    workload_result: Any = None
    error: "Exception | None" = None
    try:
        workload_result = workload(manager)
    except SimulatedCrash:
        fired = True
    except Exception as caught:  # noqa: BLE001 - reported, not hidden
        error = caught

    pre_crash_committed = sorted(manager.state.committed_names())
    pre_crash_view = dict(manager.view(manager.root))
    durable_lengths = (
        manager.wal.durable_lengths() if manager.wal is not None else {}
    )
    # The live directory is the dead machine's disk from here on: no
    # close(), no final flush — that is exactly what a crash denies us.
    build_survivor_copy(
        live_dir,
        survivor_dir,
        mode=mode,
        durable_lengths=durable_lengths,
    )
    recovery = recover(
        survivor_dir, verify=verify, strict=strict, registry=registry
    )
    return CrashOutcome(
        crash_point=crash_point,
        mode=mode,
        fired=fired,
        pre_crash_committed=pre_crash_committed,
        pre_crash_view=pre_crash_view,
        survivor_dir=survivor_dir,
        recovery=recovery,
        workload_result=workload_result,
        error=error,
    )
