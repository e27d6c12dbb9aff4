"""Tests for workload generation."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.workload import Read, Write, cad_workload, oltp_workload


class TestCadWorkload:
    def test_deterministic_with_seed(self):
        a = cad_workload(num_designers=4, seed=9)
        b = cad_workload(num_designers=4, seed=9)
        assert [s.txn_id for s in a.scripts] == [
            s.txn_id for s in b.scripts
        ]
        assert [len(s.steps) for s in a.scripts] == [
            len(s.steps) for s in b.scripts
        ]

    def test_structure(self):
        workload = cad_workload(
            num_designers=5, accesses_per_txn=4, seed=1
        )
        assert len(workload.scripts) == 5
        for script in workload.scripts:
            accesses = [
                step
                for step in script.steps
                if isinstance(step, (Read, Write))
            ]
            assert len(accesses) == 4

    def test_think_time_dominates(self):
        workload = cad_workload(
            num_designers=3, think_time=100.0, seed=2
        )
        for script in workload.scripts:
            assert script.total_think >= 100.0

    def test_predecessor_edges_reference_earlier_designers(self):
        workload = cad_workload(
            num_designers=10, cooperation_probability=1.0, seed=3
        )
        ids = [script.txn_id for script in workload.scripts]
        for index, script in enumerate(workload.scripts):
            for predecessor in script.predecessors:
                assert predecessor in ids[:index]

    def test_fresh_database_per_call(self):
        workload = cad_workload(num_designers=2, seed=4)
        first = workload.fresh_database()
        second = workload.fresh_database()
        assert first is not second
        first.write("m0_e0", 99, "txn")
        assert second.store.values_of("m0_e0") == {1}

    def test_database_objects_are_modules(self):
        workload = cad_workload(
            num_designers=2,
            num_modules=3,
            entities_per_module=2,
            seed=5,
        )
        db = workload.fresh_database()
        module_objects = [obj for obj in db.objects() if len(obj) > 1]
        assert len(module_objects) == 3

    def test_validation(self):
        with pytest.raises(SimulationError):
            cad_workload(num_designers=0)


class TestOltpWorkload:
    def test_no_think_time(self):
        workload = oltp_workload(num_transactions=5, seed=1)
        for script in workload.scripts:
            assert script.total_think == 0.0

    def test_txn_ids_renamed(self):
        workload = oltp_workload(num_transactions=3, seed=1)
        assert all(
            script.txn_id.startswith("T") for script in workload.scripts
        )

    def test_no_cooperation_edges(self):
        workload = oltp_workload(num_transactions=8, seed=2)
        assert all(not s.predecessors for s in workload.scripts)


class TestKeyDistribution:
    @staticmethod
    def _accesses(workload):
        return [
            access.entity
            for script in workload.scripts
            for access in script.flat_accesses()
        ]

    def test_uniform_is_the_historical_stream(self):
        # ``key_dist="uniform"`` must be byte-identical to the default:
        # old seeds keep replaying the exact same access sequence.
        default = cad_workload(num_designers=6, seed=3)
        explicit = cad_workload(
            num_designers=6, seed=3, key_dist="uniform"
        )
        assert self._accesses(default) == self._accesses(explicit)
        assert default.key_dist == explicit.key_dist == "uniform"

    def test_zipf_concentrates_on_low_ranks(self):
        zipf = cad_workload(
            num_designers=12,
            accesses_per_txn=8,
            entities_per_module=6,
            seed=3,
            key_dist="zipf",
        )
        assert zipf.key_dist == "zipf"
        counts = {}
        for entity in self._accesses(zipf):
            rank = int(entity.rpartition("_e")[2])
            counts[rank] = counts.get(rank, 0) + 1
        # rank 0 (the hot entity of every module) dominates the tail
        assert counts[0] > counts[max(counts)]
        assert counts[0] >= max(
            count for rank, count in counts.items() if rank > 0
        )

    def test_zipf_is_seeded(self):
        a = cad_workload(num_designers=5, seed=7, key_dist="zipf")
        b = cad_workload(num_designers=5, seed=7, key_dist="zipf")
        assert self._accesses(a) == self._accesses(b)

    def test_oltp_passes_the_knob_through(self):
        workload = oltp_workload(num_transactions=4, key_dist="zipf")
        assert workload.key_dist == "zipf"

    def test_unknown_distribution_rejected(self):
        with pytest.raises(SimulationError, match="key distribution"):
            cad_workload(num_designers=2, key_dist="pareto")


class TestScriptProperties:
    def test_read_write_entity_sets(self):
        workload = cad_workload(num_designers=3, seed=6)
        for script in workload.scripts:
            reads = {
                step.entity
                for step in script.steps
                if isinstance(step, Read)
            }
            assert script.read_entities == reads

    def test_write_value_resolution(self):
        step = Write("x", lambda ctx: ctx["y"] + 1)
        assert step.resolve({"y": 4}) == 5
        assert Write("x", 9).resolve({}) == 9
