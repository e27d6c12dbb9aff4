"""Replay ≡ live, checked after every step.

:func:`attach_shadow` loads the checkpoint a freshly opened durable
manager's directory holds into a second :class:`ProtocolState`, feeds
it every record the manager's WAL is handed — through the encoded
line, so a JSON round-trip loss shows — and, each time an outermost
step returns, requires the replica's ``dump()`` to equal the live one.
Any record-field assignment outside ``ProtocolState.apply``, any value
the WAL payload does not carry, breaks the equality at the step that
made it.  Each check also requires the live state's checkpoint
encoding, kept per record across steps, to equal a from-scratch
``json.dumps`` of its ``dump()`` in both forms — any record a step
changes without ``apply`` dropping its cached encoding shows there.
"""

from __future__ import annotations

import json

from repro.durability.records import WalRecord
from repro.durability.snapshot import CheckpointStore
from repro.protocol.state import EncodedState, ProtocolState


def canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


class Shadow:
    def __init__(self, manager, wal_dir) -> None:
        loaded = CheckpointStore(wal_dir).load_newest()
        assert loaded is not None and loaded[1] == manager.wal.last_lsn
        self.manager = manager
        self.replica = ProtocolState.load(loaded[0])
        self.steps = 0
        wal = manager.wal
        real_append = wal.append

        def append(op, txn, data):
            record = real_append(op, txn, data)
            self.replica.apply_record(WalRecord.decode(record.encode()))
            return record

        wal.append = append
        after_step = manager._after_step  # the class's hook, bound

        def checked_after_step():
            self.check()
            after_step()

        manager._after_step = checked_after_step

    def check(self) -> None:
        state = self.manager.state
        dump = state.dump()
        live = canonical(dump)
        assert canonical(self.replica.dump()) == live, self._diff()
        assert state.encoded() == EncodedState(
            json.dumps(dump, sort_keys=True, separators=(",", ":")), live
        )
        self.steps += 1

    def _diff(self) -> str:
        live = self.manager.state.dump()
        mine = self.replica.dump()
        lines = [
            f"{name}: live {live['txns'].get(name)} replica {txn}"
            for name, txn in mine["txns"].items()
            if live["txns"].get(name) != txn
        ]
        if live["store"] != mine["store"]:
            lines.append(f"store: live {live['store']} replica {mine['store']}")
        return "\n".join(lines) or "header differs"


def attach_shadow(manager, wal_dir) -> Shadow:
    return Shadow(manager, wal_dir)
