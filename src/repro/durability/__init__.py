"""Durability: write-ahead log, checkpoints, and verified recovery.

The paper's opening criticism of serializability is that it admits
schedules hostile to crash recovery; :mod:`repro.schedules.recovery`
encodes the RC/ACA/ST hierarchy at the model level.  This package makes
the complementary systems argument: it gives the Section-5 transaction
manager a write-ahead log with group commit, periodic checkpoints, and
a recovery pass whose result is *verified* — the recovered state must
be exactly the committed prefix of the pre-crash execution and satisfy
the database consistency predicate, or the service refuses to start.

Layout
------
``records``     WAL record types, JSONL encoding, checksums.
``crashpoints`` Fault-injection hooks (``CrashPoint``) used by tests.
``wal``         The append-only segmented log with group commit.
``snapshot``    Atomic checkpoint files with retention.
``recovery``    The recovery pass (checkpoint + redo + undo over
                :class:`repro.protocol.state.ProtocolState`) plus
                independent verification.
``manager``     :class:`DurableTransactionManager` — the §5 manager with
                the WAL as its record sink.
``harness``     Crash-simulation harness driving the crash points.
``history``     WAL records → flat schedules for RC/ACA/ST checks.
``shard_recovery``  In-doubt 2PC resolution over per-shard WALs.
"""

from .crashpoints import CRASH_POINTS, CrashPoints, SimulatedCrash
from .harness import CrashOutcome, simulate_crash
from .manager import DurableTransactionManager
from .records import WalRecord
from .recovery import RecoveryResult, recover
from .shard_recovery import (
    ShardedRecoveryResult,
    is_sharded_layout,
    list_shard_dirs,
    recover_sharded,
    resolve_in_doubt,
    shard_wal_dir,
)
from .wal import WriteAheadLog

__all__ = [
    "CRASH_POINTS",
    "CrashOutcome",
    "CrashPoints",
    "DurableTransactionManager",
    "RecoveryResult",
    "ShardedRecoveryResult",
    "SimulatedCrash",
    "WalRecord",
    "WriteAheadLog",
    "is_sharded_layout",
    "list_shard_dirs",
    "recover",
    "recover_sharded",
    "resolve_in_doubt",
    "shard_wal_dir",
    "simulate_crash",
]
