"""The transaction validation phase (Section 5.1).

Validation assigns versions to a freshly defined transaction in two
parts.

**Part 1 — the D-set.**  For each data item ``d`` in the transaction's
input constraint, the set ``D`` of siblings whose versions of ``d`` may
be read without partial-order invalidation, and the candidate versions
they contribute (:class:`DSet`).  The manager answers the three
exclusion rules from a bitmask index
(:meth:`~repro.protocol.scheduler.TransactionManager._compute_d_sets`);
:mod:`repro.reference.validation` transcribes them rule by rule.

**Part 2 — selection.**  Choose one candidate version per item so the
input constraint is satisfied (:func:`select_versions`).  Lemma 1 makes
this NP-complete in general and the paper leaves the search strategy
open; the manager uses one exact most-constrained-variable
backtracking search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..core.predicates import Predicate
from ..storage.version_store import Version


@dataclass(frozen=True, slots=True)
class DSet:
    """The validation-phase candidate set for one data item.

    ``members`` is the set ``D`` the three exclusion rules leave, and
    ``predecessors`` its members that precede the transaction in
    ``P+``.  Selection reads neither, only ``candidates``, so each side
    keeps them in the form it computes them in: the manager's live path
    as :class:`~repro.protocol.fastpath.ParentIndex` bitmasks over the
    parent's children (``index.names_from`` turns one into names), the
    rule-by-rule transcription in :mod:`repro.reference` as names.
    """

    item: str
    members: int | frozenset[str]
    predecessors: int | frozenset[str]
    candidates: tuple[Version, ...]
    used_parent_version: bool


def _value_index(
    d_sets: Mapping[str, DSet],
    pinned: Mapping[str, Version] | None,
) -> tuple[dict[str, list[int]], dict[tuple[str, int], Version]]:
    """Candidate values per item, plus a (item, value) → version map.

    When several candidate versions share a value, the newest wins —
    reading the freshest witness of a value keeps re-evaluation churn
    low.
    """
    pinned = pinned or {}
    values: dict[str, list[int]] = {}
    back: dict[tuple[str, int], Version] = {}
    for item, d_set in d_sets.items():
        if item in pinned:
            version = pinned[item]
            values[item] = [version.value]
            back[(item, version.value)] = version
            continue
        seen: dict[int, Version] = {}
        for version in d_set.candidates:
            existing = seen.get(version.value)
            if existing is None or version.sequence > existing.sequence:
                seen[version.value] = version
        values[item] = sorted(seen)
        for value, version in seen.items():
            back[(item, value)] = version
    return values, back


def select_versions(
    d_sets: Mapping[str, DSet],
    constraint: Predicate,
    pinned: Mapping[str, Version] | None = None,
) -> dict[str, Version] | None:
    """A version per item satisfying ``constraint``, or ``None``.

    Exact selection by most-constrained-variable backtracking over each
    item's distinct candidate values.  ``pinned`` forces specific items
    to specific versions — used by re-assignment, which must include a
    predecessor's new version.
    """
    values, back = _value_index(d_sets, pinned)
    relevant = {
        name: values[name]
        for name in constraint.entities()
        if name in values
    }
    chosen = constraint.find_satisfying_assignment(relevant)
    if chosen is None:
        return None
    full = {name: candidates[0] for name, candidates in values.items()}
    full.update(chosen)
    return {name: back[(name, value)] for name, value in full.items()}
