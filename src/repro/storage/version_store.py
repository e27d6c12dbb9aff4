"""Multi-version storage — the substrate design databases need anyway.

Section 2.1 argues versions "must be supported in a design environment
anyway, so it is desirable to take advantage of them to enhance
concurrency".  :class:`VersionStore` is that substrate: an append-only,
per-entity version history with authorship, creation order, and
liveness (aborted authors' versions are expunged, which the protocol's
cascading-abort handling relies on).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from ..core.entities import Schema
from ..core.states import DatabaseState, UniqueState
from ..errors import SchemaError, UnknownEntityError


@dataclass(frozen=True)
class Version:
    """One immutable version of one entity.

    ``author`` is the creating transaction's name (``None`` for the
    initial version written by the pseudo-transaction ``t_0``);
    ``sequence`` is a store-wide monotonically increasing creation
    stamp, giving a total creation order across entities.
    """

    entity: str
    value: int
    author: str | None
    sequence: int

    def __str__(self) -> str:
        who = self.author if self.author is not None else "t_0"
        return f"{self.entity}={self.value}@{who}#{self.sequence}"


@dataclass
class _EntityHistory:
    versions: list[Version] = field(default_factory=list)


class VersionStore:
    """Append-only per-entity version histories.

    Every write creates a new version and "leaves the other versions
    alone" (Section 2.1); old values are never destroyed except by
    :meth:`expunge_author` (abort handling) or :meth:`prune`
    (housekeeping, never called by the protocol itself).
    """

    def __init__(self, schema: Schema, initial: UniqueState) -> None:
        if initial.schema != schema:
            raise SchemaError("initial state schema mismatch")
        self._schema = schema
        self._next_sequence = 0
        self._histories: dict[str, _EntityHistory] = {}
        for name in schema.names:
            history = _EntityHistory()
            history.versions.append(
                Version(name, initial[name], None, self._take_sequence())
            )
            self._histories[name] = history

    def _take_sequence(self) -> int:
        sequence = self._next_sequence
        self._next_sequence += 1
        return sequence

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def sequence_watermark(self) -> int:
        """The next creation stamp the store will issue.

        The watermark never rewinds — not on :meth:`expunge_author`,
        not on :meth:`prune`, and not across a snapshot/restore cycle —
        so creation stamps stay unique and monotone for the lifetime of
        the logical database, which recovery relies on to identify
        versions by ``(entity, sequence)``.
        """
        return self._next_sequence

    def _history(self, entity: str) -> _EntityHistory:
        try:
            return self._histories[entity]
        except KeyError:
            raise UnknownEntityError(f"unknown entity {entity!r}") from None

    # -- writes ------------------------------------------------------------

    def write(self, entity: str, value: int, author: str | None) -> Version:
        """Create (and return) a new version; earlier versions survive."""
        self._schema[entity].validate(value)
        version = Version(entity, value, author, self._take_sequence())
        self._history(entity).versions.append(version)
        return version

    # -- reads --------------------------------------------------------------

    def versions(self, entity: str) -> tuple[Version, ...]:
        """All live versions of an entity, in creation order."""
        return tuple(self._history(entity).versions)

    def initial(self, entity: str) -> Version:
        """The entity's oldest surviving version."""
        return self._history(entity).versions[0]

    def latest(self, entity: str) -> Version:
        """The most recently created live version."""
        return self._history(entity).versions[-1]

    def latest_by(self, entity: str, author: str | None) -> Version | None:
        """An author's most recent live version of an entity, if any."""
        for version in reversed(self._history(entity).versions):
            if version.author == author:
                return version
        return None

    def values_of(self, entity: str) -> frozenset[int]:
        """The retained value set — ``versions_of`` in model terms."""
        return frozenset(
            version.value for version in self._history(entity).versions
        )

    def version_count(self, entity: str) -> int:
        return len(self._history(entity).versions)

    def total_versions(self) -> int:
        return sum(
            len(history.versions) for history in self._histories.values()
        )

    def __iter__(self) -> Iterator[Version]:
        for name in self._schema.names:
            yield from self._histories[name].versions

    # -- maintenance ------------------------------------------------------------

    def expunge_author(self, author: str) -> list[Version]:
        """Remove all of one author's versions (abort handling).

        Returns the removed versions so the protocol can cascade to
        their readers.  The initial versions (author ``None``) can
        never be expunged.
        """
        removed: list[Version] = []
        for history in self._histories.values():
            kept = [v for v in history.versions if v.author != author]
            removed.extend(
                v for v in history.versions if v.author == author
            )
            history.versions = kept
        return removed

    def expunge(self, refs: Iterable[tuple[str, int]]) -> int:
        """Remove the versions named as ``(entity, sequence)`` pairs.

        Idempotent — pairs already gone are skipped — and the initial
        versions go only if named.  Returns how many were removed.
        """
        dead: dict[str, set[int]] = {}
        for entity, sequence in refs:
            dead.setdefault(entity, set()).add(sequence)
        removed = 0
        for entity, sequences in dead.items():
            history = self._history(entity)
            kept = [
                v for v in history.versions if v.sequence not in sequences
            ]
            removed += len(history.versions) - len(kept)
            history.versions = kept
        return removed

    def prune(self, entity: str, keep_last: int) -> int:
        """Drop all but the newest ``keep_last`` versions of an entity.

        Housekeeping only; returns how many versions were dropped.  At
        least one version always survives.
        """
        if keep_last < 1:
            raise SchemaError("must keep at least one version")
        history = self._history(entity)
        drop = max(0, len(history.versions) - keep_last)
        history.versions = history.versions[drop:]
        return drop

    # -- durability bridge -------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """A JSON-serializable image of every live version.

        Rows are emitted in creation-stamp order so a restored store
        rebuilds identical per-entity histories.  ``next_sequence``
        preserves the watermark across the cycle (see
        :attr:`sequence_watermark`).
        """
        rows = sorted(
            ([v.entity, v.value, v.author, v.sequence] for v in self),
            key=lambda row: row[3],
        )
        return {"next_sequence": self._next_sequence, "versions": rows}

    @classmethod
    def from_snapshot(
        cls, schema: Schema, snapshot: dict[str, Any]
    ) -> "VersionStore":
        """Rebuild a store from a :meth:`snapshot` image."""
        store = cls.__new__(cls)
        store._schema = schema
        store._next_sequence = int(snapshot["next_sequence"])
        store._histories = {name: _EntityHistory() for name in schema.names}
        seen: set[int] = set()
        for entity, value, author, sequence in snapshot["versions"]:
            sequence = int(sequence)
            if sequence in seen or sequence >= store._next_sequence:
                raise SchemaError(
                    f"corrupt snapshot: bad sequence stamp {sequence}"
                )
            seen.add(sequence)
            schema[entity].validate(value)
            store._history(entity).versions.append(
                Version(entity, value, author, sequence)
            )
        for name in schema.names:
            if not store._histories[name].versions:
                raise SchemaError(
                    f"corrupt snapshot: entity {name!r} has no versions"
                )
        return store

    # -- model bridge ------------------------------------------------------------

    def latest_unique_state(self) -> UniqueState:
        """The single-version view: every entity's newest value."""
        return UniqueState(
            self._schema,
            {name: self.latest(name).value for name in self._schema.names},
        )

    def as_database_state(self) -> DatabaseState:
        """A model :class:`DatabaseState` with the same version sets.

        The model represents a database state as a *set of unique
        states*; this bridge builds one unique state per "layer" of
        history (padding short histories with their latest value) so
        that ``versions_of`` agrees with the store's value sets.
        """
        depth = max(
            len(history.versions) for history in self._histories.values()
        )
        states = []
        for layer in range(depth):
            values = {}
            for name in self._schema.names:
                versions = self._histories[name].versions
                index = min(layer, len(versions) - 1)
                values[name] = versions[index].value
            states.append(UniqueState(self._schema, values))
        return DatabaseState(states)


def store_from_values(
    schema: Schema, values: "dict[str, int] | Iterable[tuple[str, int]]"
) -> VersionStore:
    """Convenience: a store initialized from a plain value mapping."""
    mapping = dict(values)
    return VersionStore(schema, UniqueState(schema, mapping))
