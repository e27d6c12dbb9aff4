"""The transaction validation phase (Section 5.1).

Validation assigns versions to a freshly defined transaction in two
parts, implemented faithfully:

**Part 1 — the D-set.**  For each data item ``d`` in the transaction's
input constraint, collect the set ``D`` of sibling transactions whose
versions of ``d`` may be read without partial-order invalidation.  A
sibling ``t_j`` is in ``D`` unless

1. ``(t_i, t_j) ∈ P+`` — it is a successor of the transaction being
   validated, or
2. ``d ∉ U_{t_j}`` — it does not update the item, or
3. some other updater of ``d`` lies strictly between ``t_j`` and
   ``t_i`` in ``P+``.

If some member of ``D`` is a *predecessor* of ``t_i``, only the
predecessor-written versions are allowed; otherwise any version written
by a member of ``D``, or the version assigned to the parent, may be
used.  Members that have not yet written the item contribute nothing —
the protocol's **optimistic assumption** (re-evaluation repairs the
assignment if they write later).

**Part 2 — selection.**  Choose one candidate version per item so the
input constraint is satisfied.  The paper notes exhaustive search is
exponential and suggests heuristics or query-style processing; the
library offers pluggable selectors:

* :class:`BacktrackingSelector` — most-constrained-variable
  backtracking (the default; exact, usually fast);
* :class:`SatSelector` — compile to CNF and run DPLL (exact;
  demonstrates the "treat selection as a query" idea);
* :class:`GreedyLatestSelector` — latest-version-first greedy probe
  with backtracking fallback, modelling the "expected case" the paper
  argues is cheap.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Mapping, Protocol

from ..core.orders import PartialOrder
from ..core.predicates import Predicate
from ..obs.metrics import MetricsRegistry
from ..obs.trace import NULL_TRACER, Tracer
from ..storage.version_store import Version


@dataclass(frozen=True, slots=True)
class DSet:
    """The validation-phase candidate set for one data item."""

    item: str
    members: frozenset[str]
    predecessors: frozenset[str]
    candidates: tuple[Version, ...]
    used_parent_version: bool


def compute_d_set(
    item: str,
    txn: str,
    siblings: Iterable[str],
    order: PartialOrder[str],
    update_sets: Mapping[str, frozenset[str]],
    versions_by: Mapping[str, tuple[Version, ...]],
    parent_version: Version,
) -> DSet:
    """Apply the three §5.1 exclusion rules and the predecessor rule.

    Parameters
    ----------
    item:
        The data item ``d`` being provisioned.
    txn:
        The transaction ``t_i`` being validated.
    siblings:
        Names of ``t_i``'s siblings (same parent), excluding ``t_i``.
    order:
        The parent's partial order ``P`` over its children.
    update_sets:
        Declared update set ``U_t`` per sibling.
    versions_by:
        Versions of ``item`` already written, per sibling (creation
        order).  Siblings that have not written are simply absent or
        mapped to an empty tuple — the optimistic assumption.
    parent_version:
        The version of ``item`` assigned to the parent (its world
        view), the fallback candidate.
    """
    members: set[str] = set()
    for sibling in siblings:
        if sibling == txn:
            continue
        if order.precedes(txn, sibling):  # rule 1: successor
            continue
        if item not in update_sets.get(sibling, frozenset()):  # rule 2
            continue
        intervening = any(
            item in update_sets.get(other, frozenset())
            and order.precedes(sibling, other)
            and order.precedes(other, txn)
            for other in siblings
            if other not in (sibling, txn)
        )
        if intervening:  # rule 3
            continue
        members.add(sibling)

    predecessors = frozenset(
        member for member in members if order.precedes(member, txn)
    )

    candidates: list[Version] = []
    used_parent = False
    if predecessors:
        # Only predecessor-written versions are allowed.  A predecessor
        # that has not written yet contributes nothing (optimism); if
        # none has written, fall back to the parent's version, which
        # re-evaluation will revisit when the predecessor writes.
        for member in sorted(predecessors):
            candidates.extend(versions_by.get(member, ()))
        if not candidates:
            candidates.append(parent_version)
            used_parent = True
    else:
        for member in sorted(members):
            candidates.extend(versions_by.get(member, ()))
        candidates.append(parent_version)
        used_parent = True

    return DSet(
        item=item,
        members=frozenset(members),
        predecessors=predecessors,
        candidates=tuple(candidates),
        used_parent_version=used_parent,
    )


class VersionSelector(Protocol):
    """Part-2 strategy: pick one candidate version per item."""

    def select(
        self,
        d_sets: Mapping[str, DSet],
        constraint: Predicate,
        pinned: Mapping[str, Version] | None = None,
    ) -> dict[str, Version] | None:
        """A satisfying assignment of versions, or ``None``.

        ``pinned`` forces specific items to specific versions — used by
        re-assignment, which must include a predecessor's new version.
        """
        ...


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


class BacktrackingSelector:
    """Exact selection by most-constrained-variable backtracking."""

    def select(
        self,
        d_sets: Mapping[str, DSet],
        constraint: Predicate,
        pinned: Mapping[str, Version] | None = None,
    ) -> dict[str, Version] | None:
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


class SatSelector:
    """Exact selection via the DPLL SAT back-end.

    Demonstrates the paper's suggestion of treating version selection
    as a query over an indexed search structure — here the CNF encoding
    plays the role of the query plan.
    """

    def select(
        self,
        d_sets: Mapping[str, DSet],
        constraint: Predicate,
        pinned: Mapping[str, Version] | None = None,
    ) -> dict[str, Version] | None:
        from ..sat.reduction import solve_candidate_selection

        values, back = _value_index(d_sets, pinned)
        relevant = {
            name: values[name]
            for name in constraint.entities()
            if name in values
        }
        if relevant:
            chosen = solve_candidate_selection(relevant, constraint)
            if chosen is None:
                return None
        else:
            chosen = {}
        full = {name: candidates[0] for name, candidates in values.items()}
        full.update(chosen)
        return {name: back[(name, value)] for name, value in full.items()}


class TracedSelector:
    """Observability wrapper around any :class:`VersionSelector`.

    Times each selection into the registry's ``validation_latency_us``
    histogram (wall-clock microseconds — selection is real CPU work,
    unlike the simulator's virtual time) and emits a
    ``validate.select`` event carrying the candidate-space size, so
    slow validations are attributable to their search space.
    """

    def __init__(
        self,
        inner: VersionSelector,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.inner = inner
        self._registry = registry
        self._tracer = tracer if tracer is not None else NULL_TRACER
        #: The transaction the next selection is on behalf of; set by
        #: the transaction manager before each call (single-threaded).
        self.txn_hint: str = "-"

    def select(
        self,
        d_sets: Mapping[str, DSet],
        constraint: Predicate,
        pinned: Mapping[str, Version] | None = None,
    ) -> dict[str, Version] | None:
        started = time.perf_counter()
        assignment = self.inner.select(d_sets, constraint, pinned)
        elapsed_us = (time.perf_counter() - started) * 1e6
        if self._registry is not None:
            self._registry.histogram(
                "validation_latency_us"
            ).observe(elapsed_us)
        if self._tracer.enabled:
            self._tracer.event(
                "validate.select",
                self.txn_hint,
                items=len(d_sets),
                candidates=sum(
                    len(d_set.candidates) for d_set in d_sets.values()
                ),
                satisfiable=assignment is not None,
                elapsed_us=round(elapsed_us, 1),
            )
        return assignment


class GreedyLatestSelector:
    """Latest-versions-first probe, falling back to exact search.

    The paper argues the expected case is cheap because most items have
    few versions and any satisfying set will do.  This selector first
    tries the single all-latest assignment (O(|I_t|)); only on failure
    does it pay for the exact search.
    """

    def __init__(self) -> None:
        self._fallback = BacktrackingSelector()
        self.probe_hits = 0
        self.probe_misses = 0

    def select(
        self,
        d_sets: Mapping[str, DSet],
        constraint: Predicate,
        pinned: Mapping[str, Version] | None = None,
    ) -> dict[str, Version] | None:
        pinned = pinned or {}
        probe: dict[str, Version] = {}
        for item, d_set in d_sets.items():
            if item in pinned:
                probe[item] = pinned[item]
            else:
                probe[item] = max(
                    d_set.candidates, key=lambda v: v.sequence
                )
        trial = {item: version.value for item, version in probe.items()}
        relevant_entities = constraint.entities()
        if all(name in trial for name in relevant_entities):
            if constraint.evaluate(
                {name: trial[name] for name in trial}
            ):
                self.probe_hits += 1
                return probe
        self.probe_misses += 1
        return self._fallback.select(d_sets, constraint, pinned)
