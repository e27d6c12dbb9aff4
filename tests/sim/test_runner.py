"""Tests for the scheduler-comparison harness (experiment P1)."""

from __future__ import annotations

import pytest

from repro.sim import (
    DEFAULT_SCHEDULERS,
    compare_schedulers,
    metrics_table,
    run_one,
)
from repro.workload import cad_workload, oltp_workload


@pytest.fixture(scope="module")
def cad_results():
    workload = cad_workload(num_designers=5, think_time=80.0, seed=3)
    return compare_schedulers(workload, seed=1)


class TestComparison:
    def test_all_schedulers_present(self, cad_results):
        assert set(cad_results) == set(DEFAULT_SCHEDULERS)

    def test_everyone_commits_everything(self, cad_results):
        for name, metrics in cad_results.items():
            assert metrics.committed_count == 5, name
            assert metrics.gave_up_count == 0, name

    def test_paper_shape_no_lock_waits_for_protocol(self, cad_results):
        # Section 2.4's first goal: reduce number and duration of waits.
        ks = cad_results["korth-speegle"]
        s2pl = cad_results["s2pl"]
        assert ks.total_wait_time <= s2pl.total_wait_time

    def test_paper_shape_fewer_aborts_than_to(self, cad_results):
        # Second goal: reduce the number and effect of aborts.
        ks = cad_results["korth-speegle"]
        to = cad_results["to"]
        assert ks.total_restarts <= to.total_restarts
        assert ks.total_wasted_time <= to.total_wasted_time

    def test_beats_serial_makespan(self, cad_results):
        assert (
            cad_results["korth-speegle"].makespan
            < cad_results["serial"].makespan
        )

    def test_table_rendering(self, cad_results):
        table = metrics_table(cad_results)
        assert "korth-speegle" in table
        assert "makespan" in table


class TestOltpAgreement:
    def test_all_protocols_fine_on_short_transactions(self):
        workload = oltp_workload(num_transactions=10, seed=5)
        results = compare_schedulers(workload, seed=1)
        for name, metrics in results.items():
            assert metrics.committed_count == 10, name


class TestRunOne:
    def test_isolated_database_per_run(self):
        workload = cad_workload(num_designers=3, seed=7)
        first = run_one(DEFAULT_SCHEDULERS["s2pl"], workload, seed=1)
        second = run_one(DEFAULT_SCHEDULERS["s2pl"], workload, seed=1)
        # Deterministic: same metrics both times.
        assert first.summary_row() == second.summary_row()
