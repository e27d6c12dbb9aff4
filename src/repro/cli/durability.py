"""Verified crash recovery over a WAL directory (plain or sharded)."""

from __future__ import annotations

import argparse
import json
import sys

from .common import arg, command


def _plain_report(result) -> tuple[list[str], list[str]]:
    summary = result.summary()
    lines = [
        f"checkpoint lsn:     {summary['checkpoint_lsn']}",
        f"last lsn:           {summary['last_lsn']}",
        f"records replayed:   {summary['records_replayed']}",
        f"torn tail:          {summary['torn_tail_truncated']}",
        f"committed txns:     {summary['committed']}",
        f"aborted in flight:  {summary['aborted_in_flight']} "
        f"(cascaded: {summary['cascaded_aborts']})",
        f"cascaded commits:   {summary['cascaded_commits']}",
        f"recovery time:      {summary['recovery_ms']} ms",
    ]
    return lines, [f"violation: {v}" for v in summary["violations"]]


def _sharded_report(result) -> tuple[list[str], list[str]]:
    lines = [f"shards:             {len(result.shards)}"]
    violations = []
    for index, shard in sorted(result.shards.items()):
        summary = shard.summary()
        lines.append(
            f"  shard{index}: last lsn {summary['last_lsn']}, "
            f"replayed {summary['records_replayed']}, "
            f"committed={summary['committed']}, "
            f"aborted in flight={len(summary['aborted_in_flight'])}"
        )
        violations += [
            f"shard{index} violation: {v}" for v in summary["violations"]
        ]
    lines.append(
        "in-doubt 2PC branches resolved:"
        if result.resolutions
        else "in-doubt 2PC branches: none"
    )
    lines += [
        f"  {entry['txn']} (gid {entry['gid']}, shard {entry['shard']}, "
        f"coordinator {entry['coordinator']}): {entry['decision']}"
        for entry in result.resolutions
    ]
    return lines, violations


@command(
    "recover",
    "run verified crash recovery over a WAL directory",
    arg("--wal-dir", required=True,
        help="the WAL + checkpoint directory to recover"),
    arg("--verify", action=argparse.BooleanOptionalAction, default=True,
        help="verify the recovered state (committed-prefix equality + "
        "consistency predicate); exit 1 on failure"),
    arg("--strict", action="store_true",
        help="materialize the recovered manager in strict mode"),
    arg("--json", action="store_true",
        help="print the recovery summary as JSON"),
)
def recover(args: argparse.Namespace) -> int:
    from ..durability import is_sharded_layout, recover_sharded
    from ..durability import recover as recover_plain
    from ..errors import DurabilityError

    try:
        sharded = is_sharded_layout(args.wal_dir)
        result = (recover_sharded if sharded else recover_plain)(
            args.wal_dir, verify=args.verify, strict=args.strict
        )
    except DurabilityError as error:
        if args.json:
            print(json.dumps({"ok": False, "error": str(error)}))
        else:
            print(f"error: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(result.summary(), indent=2, sort_keys=True))
    else:
        lines, violations = (_sharded_report if sharded else _plain_report)(
            result
        )
        layout = " (sharded)" if sharded else ""
        print(f"wal dir:            {args.wal_dir}{layout}")
        print("\n".join(lines))
        if args.verify:
            status = "VERIFIED" if result.verified else "FAILED"
            print(f"verification:       {status}")
            for line in violations:
                print(f"  {line}")
    return 1 if args.verify and not result.verified else 0
