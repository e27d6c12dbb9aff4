"""End-to-end: instrumented protocol and simulator produce real traces."""

from __future__ import annotations

from repro.core import Domain, Predicate, Schema, Spec
from repro.obs import (
    MetricsRegistry,
    RecordingTracer,
    render_timeline,
    write_jsonl,
    load_jsonl,
)
from repro.protocol import TransactionManager
from repro.sim import DEFAULT_SCHEDULERS, run_one
from repro.storage import Database
from repro.workload import cad_workload


def _database():
    schema = Schema.of("x", "y", domain=Domain.interval(0, 1000))
    constraint = Predicate.parse("x >= 0 & y >= 0")
    return Database(schema, constraint, {"x": 1, "y": 1})


class TestProtocolTracing:
    def test_lifecycle_spans(self):
        tracer = RecordingTracer()
        tm = TransactionManager(_database())
        tm.set_tracer(tracer)
        spec = Spec(Predicate.parse("x >= 0"), Predicate.parse("y >= 0"))
        txn = tm.define(tm.root, spec, {"y"})
        tm.validate(txn)
        tm.read(txn, "x")
        tm.write(txn, "y", 5)
        tm.commit(txn)
        kinds = [span.kind for span in tracer.spans_for(txn)]
        assert "define" in kinds
        assert "validate" in kinds
        assert "read" in kinds
        assert "write" in kinds
        assert "commit" in kinds

    def test_registry_histograms(self):
        registry = MetricsRegistry()
        tm = TransactionManager(_database())
        tm.set_registry(registry)
        spec = Spec(Predicate.parse("x >= 0"), Predicate.parse("true"))
        txn = tm.define(tm.root, spec, set())
        tm.validate(txn)
        tm.commit(txn)
        assert registry.histogram("validation_latency_us").count >= 1

    def test_abort_closes_write_span(self):
        tracer = RecordingTracer()
        tm = TransactionManager(_database())
        tm.set_tracer(tracer)
        spec = Spec(Predicate.parse("true"), Predicate.parse("true"))
        txn = tm.define(tm.root, spec, {"x"})
        tm.validate(txn)
        tm.begin_write(txn, "x")
        tm.abort(txn, reason="test")
        writes = [
            span for span in tracer.spans_for(txn) if span.kind == "write"
        ]
        assert writes and writes[0].end is not None
        assert writes[0].attrs.get("outcome") == "aborted"


class TestSimulatorTracing:
    def test_run_one_produces_full_timeline(self, tmp_path):
        workload = cad_workload(num_designers=10, think_time=1.0, seed=3)
        tracer = RecordingTracer()
        metrics = run_one(
            DEFAULT_SCHEDULERS["korth-speegle"],
            workload,
            seed=3,
            tracer=tracer,
        )
        assert metrics.committed_count > 0
        # The acceptance-criterion kinds, all present in one trace.
        assert {"arrive", "wait", "validate", "commit"} <= tracer.kinds()
        # Spans use the simulator's virtual clock.
        assert max(span.start for span in tracer.spans) > 1.0
        # Protocol and engine spans share the engine's txn naming.
        for span in tracer.spans:
            assert not span.txn.startswith("t.")
        # Round-trip through JSONL and render the timeline.
        path = tmp_path / "run.jsonl"
        write_jsonl(list(tracer.spans), path)
        text = render_timeline(load_jsonl(path))
        assert "== D0 ==" in text
        for kind in ("arrive", "wait", "validate", "commit"):
            assert kind in text

    def test_untraced_run_unchanged(self):
        workload = cad_workload(num_designers=4, seed=0)
        baseline = run_one(
            DEFAULT_SCHEDULERS["korth-speegle"], workload, seed=0
        )
        tracer = RecordingTracer()
        traced = run_one(
            DEFAULT_SCHEDULERS["korth-speegle"],
            workload,
            seed=0,
            tracer=tracer,
        )
        # Tracing must not perturb the simulation.
        assert traced.summary_row() == baseline.summary_row()
        assert len(tracer) > 0

    def test_wait_spans_carry_entity(self):
        workload = cad_workload(num_designers=10, think_time=1.0, seed=3)
        tracer = RecordingTracer()
        run_one(
            DEFAULT_SCHEDULERS["korth-speegle"],
            workload,
            seed=3,
            tracer=tracer,
        )
        waits = tracer.of_kind("wait")
        assert waits
        for span in waits:
            assert "entity" in span.attrs


class TestClassifierTracing:
    def test_class_check_spans(self):
        from repro.classes import classify
        from repro.schedules import Schedule

        tracer = RecordingTracer()
        schedule = Schedule.parse("r1(x) w1(x) r2(x) w2(y)")
        membership = classify(schedule, tracer=tracer, exact=True)
        checks = tracer.of_kind("class.check")
        assert {span.attrs["cls"] for span in checks} == {
            "CSR", "SR", "MVCSR", "MVSR", "PWCSR", "PWSR", "CPC", "PC",
        }
        verdicts = {
            span.attrs["cls"]: span.attrs["member"] for span in checks
        }
        assert verdicts["CSR"] == membership.csr

    def test_fast_path_traces_only_the_tests_that_run(self):
        from repro.classes import classify
        from repro.schedules import Schedule

        tracer = RecordingTracer()
        schedule = Schedule.parse("r1(x) w1(x) r2(x) w2(y)")
        membership = classify(schedule, tracer=tracer)
        checks = tracer.of_kind("class.check")
        # A CSR schedule settles all eight classes with one graph
        # check; lattice-derived memberships produce no span.
        assert [span.attrs["cls"] for span in checks] == ["CSR"]
        assert membership.csr and membership.pc

    def test_default_is_untraced(self):
        from repro.classes import classify
        from repro.schedules import Schedule

        schedule = Schedule.parse("r1(x) w1(x)")
        membership = classify(schedule)
        assert membership.csr
