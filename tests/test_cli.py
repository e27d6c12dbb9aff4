"""Tests for the command-line interface."""

from __future__ import annotations

import pathlib
import subprocess
import sys

import pytest

from repro.cli import COMMANDS, build_parser, main

SRC = pathlib.Path(__file__).parent.parent / "src"


def _command_paths(commands, prefix=()):
    for command in commands:
        yield (*prefix, command.name)
        yield from _command_paths(command.commands, (*prefix, command.name))


class TestClassify:
    def test_example1(self, capsys):
        code = main(
            [
                "classify",
                "r1(x) w1(x) r2(x) r2(y) w2(y) r1(y) w1(y)",
                "--objects",
                "x;y",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Figure-2 region: 4" in out
        assert "MVSR" in out

    def test_default_objects(self, capsys):
        code = main(["classify", "r1(x) w1(x)"])
        out = capsys.readouterr().out
        assert code == 0
        assert "region: 9" in out

    def test_multi_entity_objects(self, capsys):
        code = main(
            ["classify", "r1(x) w1(y) r2(z)", "--objects", "x,y;z"]
        )
        assert code == 0
        assert "[['x', 'y'], ['z']]" in capsys.readouterr().out


class TestExamples:
    def test_all_verify(self, capsys):
        assert main(["examples"]) == 0
        out = capsys.readouterr().out
        assert out.count("OK") >= 11


class TestCensus:
    def test_exhaustive(self, capsys):
        assert main(["census"]) == 0
        out = capsys.readouterr().out
        assert "containment violations: 0" in out

    def test_random(self, capsys):
        assert main(["census", "--random", "40", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "40 schedules" in out


class TestAdmission:
    def test_ladder(self, capsys):
        assert main(["admission"]) == 0
        out = capsys.readouterr().out
        assert "s2pl" in out and "PC" in out


class TestShowdown:
    def test_small_comparison(self, capsys):
        assert (
            main(
                [
                    "showdown",
                    "--designers",
                    "3",
                    "--think",
                    "20",
                    "--seed",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "korth-speegle" in out
        assert "makespan" in out


class TestDot:
    def test_conflict_graph(self, capsys):
        assert main(["dot", "r1(x) w2(x)"]) == 0
        out = capsys.readouterr().out
        assert "digraph" in out
        assert '"t1" -> "t2"' in out

    def test_mv_graph(self, capsys):
        assert main(["dot", "w1(x) r2(x)", "--graph", "mv"]) == 0
        out = capsys.readouterr().out
        # wr is not an MV conflict: no edges.
        assert "->" not in out.split("labelloc")[1]

    def test_cpc_clusters(self, capsys):
        assert (
            main(
                [
                    "dot",
                    "r1(x) w2(x) r2(y) w1(y)",
                    "--graph",
                    "cpc",
                    "--objects",
                    "x;y",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "cluster_0" in out and "cluster_1" in out


class TestTrace:
    def _record(self, tmp_path, *extra):
        path = tmp_path / "trace.jsonl"
        args = [
            "trace", str(path), "--record",
            "--designers", "10", "--think", "1", "--seed", "3",
        ]
        assert main(args + list(extra)) == 0
        return path

    def test_record_then_replay(self, tmp_path, capsys):
        path = self._record(tmp_path)
        out = capsys.readouterr().out
        assert "recorded" in out and str(path) in out
        assert main(["trace", str(path)]) == 0
        timeline = capsys.readouterr().out
        assert "== D0 ==" in timeline
        for kind in ("arrive", "wait", "validate", "commit"):
            assert kind in timeline

    def test_txn_filter(self, tmp_path, capsys):
        path = self._record(tmp_path)
        capsys.readouterr()
        assert main(["trace", str(path), "--txn", "D2"]) == 0
        out = capsys.readouterr().out
        assert "== D2 ==" in out
        assert "== D0 ==" not in out

    def test_kind_filter_and_stats(self, tmp_path, capsys):
        path = self._record(tmp_path)
        capsys.readouterr()
        assert main(["trace", str(path), "--kind", "wait", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "wait" in out
        assert "commit" not in out

    def test_no_matching_spans(self, tmp_path, capsys):
        path = self._record(tmp_path)
        capsys.readouterr()
        assert main(["trace", str(path), "--txn", "nope"]) == 0
        assert "(no spans match)" in capsys.readouterr().out

    def test_record_with_timeline(self, tmp_path, capsys):
        self._record(tmp_path, "--timeline")
        out = capsys.readouterr().out
        assert "recorded" in out
        assert "== D0 ==" in out


class TestShowdownTrace:
    def test_trace_flag_writes_jsonl(self, tmp_path, capsys):
        from repro.obs import load_jsonl

        path = tmp_path / "showdown.jsonl"
        code = main(
            ["showdown", "--designers", "3", "--trace", str(path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "trace:" in out
        spans = load_jsonl(path)
        assert spans
        assert {"arrive", "commit"} <= {span.kind for span in spans}

    def test_trace_repeats_byte_for_byte(self, tmp_path, capsys):
        # Spans carry virtual time and work counts only, so two runs of
        # one seed write the same bytes (validate.select included).
        paths = [tmp_path / "first.jsonl", tmp_path / "second.jsonl"]
        for path in paths:
            argv = ["showdown", "--designers", "10", "--think", "1"]
            assert main([*argv, "--seed", "1", "--trace", str(path)]) == 0
        first, second = (path.read_bytes() for path in paths)
        assert b'"validate.select"' in first
        assert first == second


class TestCensusJobsValidation:
    @pytest.mark.parametrize("jobs", ["0", "-3", "two"])
    def test_rejects_bad_jobs(self, jobs, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["census", "--jobs", jobs])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--jobs" in err
        assert "must be >= 1" in err or "not an integer" in err

    def test_accepts_one(self, capsys):
        assert main(["census", "--jobs", "1", "--limit", "5"]) == 0


class TestServeLoadgenParsers:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 7455
        assert args.workload == "cad"
        assert args.queue_size == 256

    def test_loadgen_defaults(self):
        args = build_parser().parse_args(["loadgen"])
        assert args.clients == 8
        assert args.output == "BENCH_server.json"

    def test_sharding_and_key_dist_flags(self):
        args = build_parser().parse_args(
            ["serve", "--shards", "4", "--key-dist", "zipf"]
        )
        assert args.shards == 4
        assert args.key_dist == "zipf"
        args = build_parser().parse_args(["loadgen", "--key-dist", "zipf"])
        assert args.key_dist == "zipf"
        assert build_parser().parse_args(["serve"]).shards == 1

    def test_serve_defaults_are_server_config_defaults(self):
        from repro.cli.service import server_config
        from repro.server import ServerConfig

        args = build_parser().parse_args(["serve"])
        assert server_config(args) == ServerConfig(port=7455)
        args = build_parser().parse_args(
            ["serve", "--wal-segment-bytes", "9", "--shards", "2"]
        )
        assert server_config(args) == ServerConfig(
            port=7455, segment_bytes=9, shards=2
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["loadgen", "--clients", "0"],
            ["serve", "--queue-size", "0"],
            ["serve", "--workload", "tpcc"],
            ["serve", "--shards", "0"],
            ["serve", "--key-dist", "pareto"],
            ["loadgen", "--key-dist", "pareto"],
        ],
    )
    def test_rejects_bad_values(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2


class TestLoadgenCommand:
    def test_unreachable_server_exits_2(self, capsys):
        code = main(
            [
                "loadgen",
                "--port", "1",
                "--connect-retries", "0",
                "--transactions", "1",
                "--output", "",
            ]
        )
        assert code == 2
        assert "cannot reach server" in capsys.readouterr().err

    def test_against_running_server(self, tmp_path, capsys):
        import json

        from repro.server import ServerThread
        from repro.workload import build_workload

        workload = build_workload("cad", transactions=4, seed=0)
        bench = tmp_path / "BENCH_server.json"
        with ServerThread(workload.fresh_database) as handle:
            code = main(
                [
                    "loadgen",
                    "--port", str(handle.port),
                    "--transactions", "4",
                    "--clients", "2",
                    "--output", str(bench),
                ]
            )
        out = capsys.readouterr().out
        assert code == 0
        assert "wire-protocol errors: 0" in out
        data = json.loads(bench.read_text())
        assert data["protocol_errors"] == 0
        assert data["committed"] + data["gave_up"] == 4


class TestServeBadFlags:
    @pytest.mark.parametrize(
        "flags",
        [
            ["--shards", "2", "--repl-port", "0"],
            ["--follow-of", "nonsense"],
        ],
    )
    def test_refused_combination_is_a_usage_error(
        self, flags, tmp_path, capsys
    ):
        wal_dir = str(tmp_path / "wal")
        code = main(["serve", "--port", "0", "--wal-dir", wal_dir, *flags])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "listening on" not in captured.out


class TestTop:
    def test_frames_from_a_running_server(self, capsys):
        from repro.server import ServerThread
        from repro.workload import build_workload

        workload = build_workload("cad", transactions=4, seed=0)
        with ServerThread(workload.fresh_database) as handle:
            code = main(
                [
                    "top",
                    "--port", str(handle.port),
                    "--iterations", "2",
                    "--interval", "0",
                ]
            )
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("repro top — ") == 2
        assert "lifetime" in out and "s window" in out
        assert "\x1b[" not in out  # no screen clearing off a terminal

    def test_unreachable_server_exits_2(self, capsys):
        assert main(["top", "--port", "1", "--iterations", "1"]) == 2
        assert "cannot reach server" in capsys.readouterr().err


class TestPromote:
    def test_bad_peer_exits_2(self, capsys):
        assert main(["promote", "--peer", "nowhere:http"]) == 2
        assert (
            "error: bad peer 'nowhere:http' (expected host:port)"
            in capsys.readouterr().err
        )


class TestParser:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize(
        "path", list(_command_paths(COMMANDS)), ids=" ".join
    )
    def test_every_command_answers_help(self, path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*path, "--help"])
        assert excinfo.value.code == 0
        assert f"usage: repro {' '.join(path)}" in capsys.readouterr().out

    def test_building_the_parser_loads_no_subsystem(self):
        forbidden = (
            "repro.server",
            "repro.durability",
            "repro.replication",
            "repro.sim",
            "repro.baselines",
            "repro.fuzz",
            "repro.des",
            "repro.workload",
        )
        code = (
            "import sys, repro.cli\n"
            "repro.cli.build_parser()\n"
            f"forbidden = {forbidden!r}\n"
            "loaded = sorted(m for m in sys.modules if any(\n"
            "    m == p or m.startswith(p + '.') for p in forbidden))\n"
            "assert not loaded, loaded\n"
        )
        subprocess.run(
            [sys.executable, "-c", code],
            check=True,
            env={"PYTHONPATH": str(SRC)},
            timeout=60,
        )


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        import repro

        assert out.strip() == f"repro {repro.__version__}"


def _seed_wal_dir(wal_dir):
    """A tiny recovered-able WAL directory: one commit, one in-flight."""
    from repro.core.entities import Domain, Entity, Schema
    from repro.core.predicates import Predicate
    from repro.core.transactions import Spec
    from repro.durability import DurableTransactionManager
    from repro.storage.database import Database

    def factory():
        schema = Schema([Entity("x", Domain.interval(0, 100))])
        return Database(schema, Predicate.parse("x >= 0"), {"x": 1})

    manager, _ = DurableTransactionManager.open(wal_dir, factory)
    spec = Spec(Predicate.parse("x >= 0"), Predicate.parse("true"))
    done = manager.define(manager.root, spec, ["x"])
    manager.validate(done)
    manager.read(done, "x")
    manager.begin_write(done, "x")
    manager.end_write(done, "x", 42)
    manager.commit(done)
    dangling = manager.define(manager.root, spec, ["x"])
    manager.validate(dangling)
    manager.flush()
    # No close: like a crash, the WAL suffix is all recovery gets.


class TestRecover:
    def test_human_summary(self, tmp_path, capsys):
        wal_dir = tmp_path / "wal"
        _seed_wal_dir(wal_dir)
        code = main(["recover", "--wal-dir", str(wal_dir)])
        out = capsys.readouterr().out
        assert code == 0
        assert "committed txns:     1" in out
        assert "verification:       VERIFIED" in out

    def test_json_summary(self, tmp_path, capsys):
        import json

        wal_dir = tmp_path / "wal"
        _seed_wal_dir(wal_dir)
        code = main(["recover", "--wal-dir", str(wal_dir), "--json"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["verified"] is True
        assert summary["committed"] == 1
        assert summary["aborted_in_flight"] == ["t.1"]

    def test_missing_directory_exits_2(self, tmp_path, capsys):
        code = main(
            ["recover", "--wal-dir", str(tmp_path / "nothing")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_verification_failure_exits_1(self, tmp_path, capsys):
        import json

        from repro.durability.records import WalRecord
        from repro.durability.wal import list_segments

        wal_dir = tmp_path / "wal"
        _seed_wal_dir(wal_dir)
        for path in list_segments(wal_dir):
            lines = path.read_bytes().splitlines(keepends=True)
            for index, line in enumerate(lines):
                record = WalRecord.decode(line.rstrip(b"\n"))
                if record.op == "commit":
                    forged = WalRecord(
                        record.lsn,
                        record.op,
                        record.txn,
                        {"released": {"x": -1}},
                    )
                    lines[index] = forged.encode()
                    path.write_bytes(b"".join(lines))
        code = main(
            ["recover", "--wal-dir", str(wal_dir), "--json"]
        )
        assert code == 1
        summary = json.loads(capsys.readouterr().out)
        assert summary["verified"] is False
        assert summary["violations"]

    def test_sharded_layout_is_routed(self, tmp_path, capsys):
        import json

        base = tmp_path / "wal"
        for index in (0, 1):
            _seed_wal_dir(base / f"shard{index}")
        code = main(["recover", "--wal-dir", str(base)])
        out = capsys.readouterr().out
        assert code == 0
        assert "(sharded)" in out
        assert "shards:             2" in out
        assert "in-doubt 2PC branches: none" in out
        assert "verification:       VERIFIED" in out
        code = main(["recover", "--wal-dir", str(base), "--json"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["verified"] is True
        assert set(summary["shards"]) == {"0", "1"}
        assert summary["resolutions"] == []

    def test_no_verify_skips_the_gate(self, tmp_path, capsys):
        wal_dir = tmp_path / "wal"
        _seed_wal_dir(wal_dir)
        code = main(
            ["recover", "--wal-dir", str(wal_dir), "--no-verify"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "verification:" not in out
