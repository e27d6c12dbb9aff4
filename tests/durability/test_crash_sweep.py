"""Acceptance sweep: every crash point, both survival models.

For EVERY registered :data:`CRASH_POINTS` entry, a crash followed by
recovery must yield exactly the committed prefix — no committed write
lost, no uncommitted write visible — and the recovered state must
satisfy the consistency predicate (both enforced by the recovery
pass's own verification, asserted here via ``recovery.verified``).

The one indeterminate transaction is the one whose *own* commit append
was still in flight when the crash hit: its client never received an
acknowledgment, and — a record reaches the log before it is applied —
the dying manager never saw it commit.  Recovery may find that commit
in the log and keep it; it is gone only when the record was torn
(``wal.mid_record``) or, under ``powerloss``, never flushed
(``wal.before_flush``).
"""

from __future__ import annotations

import pytest

from repro.durability import simulate_crash
from repro.durability.crashpoints import CRASH_POINTS
from repro.durability.harness import MODES
from repro.protocol.state import TxnPhase

from .conftest import abort_cascade_session, make_database, run_leaf

#: Crash points at which the not-yet-acknowledged commit vanishes.
LOSS_OK = {
    "kill": {"wal.mid_record"},
    "powerloss": {"wal.mid_record", "wal.before_flush"},
}


def workload(manager):
    for index, (entity, value) in enumerate(
        [("x", 11), ("y", 22), ("z", 33), ("x", 44), ("y", 55), ("z", 66)]
    ):
        run_leaf(manager, entity, value)
    run_leaf(manager, "z", 77, commit=False)  # caught in flight


#: How often :func:`abort_cascade_session` hits each WAL crash point
#: under sync commit: every append, and every fsync.
CASCADE_HITS = {"wal.mid_record": 35, "wal.after_flush": 7}


def sweep_one(tmp_path, crash_point, mode, at_hit=1, session=workload):
    out = simulate_crash(
        tmp_path,
        make_database,
        session,
        crash_point=crash_point,
        at_hit=at_hit,
        mode=mode,
        flush_interval=0.0,  # sync commit: fsync per durable op
        checkpoint_every=8,  # several checkpoints mid-workload
    )
    assert out.error is None, f"workload died of {out.error!r}"
    assert out.fired, f"{crash_point} never fired in this workload"
    assert out.recovery.verified, out.recovery.violations

    pre = set(out.pre_crash_committed)
    recovered = set(out.recovery.committed)
    survivors_or_dead = recovered | set(out.recovery.undo.all_dead)

    # No phantom commit: beyond what the live manager had performed,
    # recovery keeps at most the one commit whose record was being
    # appended when the crash hit — and not even that one where the
    # record cannot have survived.
    extra = recovered - pre
    if crash_point in LOSS_OK[mode]:
        assert extra == set(), extra
    else:
        assert len(extra) <= 1, extra

    # No committed write lost.
    missing = pre - survivors_or_dead
    assert missing == set(), missing

    # No uncommitted write visible: every recovered version belongs to
    # a (still-)committed author or is an initial version.
    records = out.recovery.state.records
    for version in out.recovery.state.database.store:
        if version.author is None:
            continue
        assert records[version.author].phase is TxnPhase.COMMITTED, version

    # The recovered world view is the committed prefix's view.
    view = out.recovery.manager.view(out.recovery.manager.root)
    assert out.recovery.manager.database.constraint.evaluate(view)
    return out


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("crash_point", CRASH_POINTS)
class TestEveryCrashPoint:
    def test_first_hit(self, tmp_path, crash_point, mode):
        sweep_one(tmp_path, crash_point, mode, at_hit=1)

    def test_third_hit(self, tmp_path, crash_point, mode):
        sweep_one(tmp_path, crash_point, mode, at_hit=3)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize(
    "crash_point, at_hit",
    [
        (point, hit)
        for point, hits in CASCADE_HITS.items()
        for hit in range(1, hits + 1)
    ],
)
def test_abort_cascade_every_append(tmp_path, crash_point, at_hit, mode):
    """A crash anywhere in a cascade — between a cause's ABORT and its
    victims', before a survivor's REASSIGN — recovers verified."""
    sweep_one(
        tmp_path, crash_point, mode, at_hit, session=abort_cascade_session
    )


@pytest.mark.parametrize("crash_point", CASCADE_HITS)
def test_the_cascade_sweep_covers_every_hit(tmp_path, crash_point):
    out = simulate_crash(
        tmp_path,
        make_database,
        abort_cascade_session,
        crash_point=crash_point,
        at_hit=CASCADE_HITS[crash_point] + 1,
    )
    assert not out.fired and out.error is None


class TestSweepDetails:
    def test_kill_mode_keeps_all_acknowledged_commits(self, tmp_path):
        out = sweep_one(tmp_path, "checkpoint.after_rename", "kill")
        assert set(out.recovery.committed) | set(
            out.recovery.undo.all_dead
        ) >= set(out.pre_crash_committed)

    def test_powerloss_is_a_prefix_of_kill(self, tmp_path):
        kill = sweep_one(tmp_path / "kill", "wal.before_flush", "kill")
        power = sweep_one(
            tmp_path / "power", "wal.before_flush", "powerloss"
        )
        assert set(power.recovery.committed) <= set(
            kill.recovery.committed
        )

    def test_unknown_point_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown crash point"):
            simulate_crash(
                tmp_path,
                make_database,
                workload,
                crash_point="wal.nonsense",
            )

    def test_unknown_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown crash mode"):
            simulate_crash(
                tmp_path,
                make_database,
                workload,
                crash_point="wal.mid_record",
                mode="meteor",
            )
