"""Scale tests: the simulator and protocol at larger configurations."""

from __future__ import annotations

import pytest

from repro.sim import DEFAULT_SCHEDULERS, run_one
from repro.workload import cad_workload, oltp_workload


class TestProtocolAtScale:
    def test_sixteen_designers_all_commit(self):
        workload = cad_workload(
            num_designers=16,
            num_modules=4,
            entities_per_module=4,
            accesses_per_txn=8,
            think_time=50.0,
            cooperation_probability=0.4,
            seed=11,
        )
        metrics = run_one(
            DEFAULT_SCHEDULERS["korth-speegle"], workload, seed=2
        )
        assert metrics.committed_count == 16
        assert metrics.gave_up_count == 0
        # Still no lock-wait pathology at scale.
        assert metrics.total_wait_time < metrics.makespan

    def test_heavy_contention_single_module(self):
        workload = cad_workload(
            num_designers=10,
            num_modules=1,
            entities_per_module=3,
            accesses_per_txn=5,
            think_time=40.0,
            seed=13,
        )
        metrics = run_one(
            DEFAULT_SCHEDULERS["korth-speegle"], workload, seed=2
        )
        assert metrics.committed_count == 10
        assert metrics.gave_up_count == 0

    def test_determinism_at_scale(self):
        workload = cad_workload(num_designers=12, seed=17)
        first = run_one(
            DEFAULT_SCHEDULERS["korth-speegle"], workload, seed=4
        )
        second = run_one(
            DEFAULT_SCHEDULERS["korth-speegle"], workload, seed=4
        )
        assert first.summary_row() == second.summary_row()


class TestBaselinesAtScale:
    @pytest.mark.parametrize(
        "name", ["s2pl", "mvto", "pw2pl", "conservative-to"]
    )
    def test_everything_terminates(self, name):
        workload = oltp_workload(num_transactions=30, seed=19)
        metrics = run_one(DEFAULT_SCHEDULERS[name], workload, seed=2)
        assert (
            metrics.committed_count + metrics.gave_up_count == 30
        )
        assert metrics.events_processed < 100_000
