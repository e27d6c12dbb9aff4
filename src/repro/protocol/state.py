"""The records a manager step produces, and their WAL encoding.

A step's record is ``(op, txn, data)`` with ``data`` holding live
values (a :class:`Spec`, :class:`Version` objects); :func:`encode`
turns it into the JSON payload the write-ahead log stores.
"""

from __future__ import annotations

from typing import Any

from ..storage.version_store import Version

# Logical operation kinds, mirroring the manager's API.
OP_DEFINE = "define"
OP_VALIDATE = "validate"
OP_REASSIGN = "reassign"
OP_READ = "read"
OP_WRITE = "write"
OP_COMMIT = "commit"
OP_UNDO_COMMIT = "undo_commit"
OP_ABORT = "abort"
#: Two-phase commit, phase 1: the shard promises to commit this branch
#: if the coordinator decides commit.  ``data`` carries the global
#: transaction id, the participant branch names keyed by shard, and the
#: coordinator shard — enough for recovery to resolve the branch
#: in-doubt (presumed abort) against the coordinator shard's decision.
OP_PREPARE = "prepare"


def version_ref(version: Version) -> list[Any]:
    return [version.value, version.author, version.sequence]


def encode(op: str, data: dict[str, Any]) -> dict[str, Any]:
    """The JSON payload of one record (WAL wire format)."""
    if op == OP_DEFINE:
        spec = data["spec"]
        return {
            "parent": data["parent"],
            "update_set": sorted(data["update_set"]),
            "predecessors": data["predecessors"],
            "successors": data["successors"],
            "input_constraint": str(spec.input_constraint),
            "output_condition": str(spec.output_condition),
        }
    if op == OP_VALIDATE or op == OP_REASSIGN:
        return {
            "assigned": {
                item: version_ref(version)
                for item, version in sorted(data["assigned"].items())
            }
        }
    return data
