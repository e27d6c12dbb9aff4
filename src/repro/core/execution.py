"""Executions ``(R, X)`` of nested transactions (Section 3.1).

An execution of ``t = (T, P, I_t, O_t)`` is a pair ``(R, X)`` where

* ``R ⊆ T × T`` is a relation constrained by
  ``(t_i, t_j) ∈ P+ ⇒ (t_j, t_i) ∉ R+`` — it records which
  subtransactions' results each subtransaction depends on (think
  "reads from"); and
* ``X`` maps every subtransaction to its *input version state*.

The paper adds two pseudo-transactions: ``t_0`` writes the initial
state and precedes everything; ``t_f`` reads every entity after
everything (its input state ``X(t_f)`` is the *final state*).  Here the
initial state is an explicit :class:`~repro.core.states.DatabaseState`
and the final state an explicit version state; ``R`` relates only the
real subtransactions.

Three checks matter (all implemented here):

* **validity** — the structural constraint between ``P+`` and ``R+``;
* **parent-based** — every entity value a subtransaction sees comes
  either from the parent's input state or from an ``R``-predecessor's
  output (Section 3.1's parent-based execution);
* **correctness** — every subtransaction's input constraint holds on
  its assigned state and the parent's output condition holds on the
  final state.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Union

from ..errors import ExecutionError
from .naming import TxnName
from .states import DatabaseState, UniqueState, VersionState
from .transactions import NestedTransaction

ParentSource = Union[VersionState, DatabaseState]
"""What the parent makes available to its children.

For a *nested* (non-root) execution this is the parent's own input
version state ``X(t)``.  For the *root* execution the parent is the
pseudo-transaction ``t_0``, whose update set is all of ``E`` and whose
output is the whole (possibly multi-version) initial database state —
so children of the root may read **any** retained initial version,
which is exactly what Theorem 1's two-state construction requires.
"""


def source_provides(source: ParentSource, entity: str, value: int) -> bool:
    """Does the parent source offer ``value`` for ``entity``?"""
    if isinstance(source, DatabaseState):
        return value in source.versions_of(entity)
    return source[entity] == value


def _relation_closure(
    pairs: frozenset[tuple[TxnName, TxnName]],
) -> frozenset[tuple[TxnName, TxnName]]:
    """Transitive closure of an arbitrary (possibly cyclic) relation."""
    succ: dict[TxnName, set[TxnName]] = {}
    for a, b in pairs:
        succ.setdefault(a, set()).add(b)
    closed: set[tuple[TxnName, TxnName]] = set()
    for start in succ:
        stack = list(succ[start])
        seen: set[TxnName] = set()
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            closed.add((start, node))
            stack.extend(succ.get(node, ()))
    return frozenset(closed)


class Execution:
    """A concrete execution ``(R, X)`` of one nested transaction.

    Parameters
    ----------
    transaction:
        The parent transaction ``t = (T, P, I_t, O_t)``.
    initial:
        The database state written by the pseudo-transaction ``t_0``.
    reads_from:
        The relation ``R`` over child names.
    assignment:
        ``X`` restricted to the children: child name → input version
        state.  Every child must be assigned.
    final_state:
        ``X(t_f)`` — the version state the final pseudo-transaction
        reads (all entities).
    """

    def __init__(
        self,
        transaction: NestedTransaction,
        initial: DatabaseState,
        reads_from: Iterable[tuple[TxnName, TxnName]],
        assignment: Mapping[TxnName, VersionState],
        final_state: VersionState,
    ) -> None:
        self._transaction = transaction
        self._initial = initial
        self._reads_from = frozenset(reads_from)
        self._assignment = dict(assignment)
        self._final_state = final_state

        children = set(transaction.child_names)
        for a, b in self._reads_from:
            if a not in children or b not in children:
                raise ExecutionError(
                    f"R pair ({a}, {b}) mentions a non-child transaction"
                )
        missing = children - set(self._assignment)
        if missing:
            raise ExecutionError(
                f"X does not assign a state to {sorted(map(str, missing))}"
            )
        self._closure = _relation_closure(self._reads_from)
        self._results: dict[TxnName, UniqueState] | None = None

    # -- accessors ---------------------------------------------------------

    @property
    def transaction(self) -> NestedTransaction:
        return self._transaction

    @property
    def initial(self) -> DatabaseState:
        return self._initial

    @property
    def reads_from(self) -> frozenset[tuple[TxnName, TxnName]]:
        """``R`` as given."""
        return self._reads_from

    @property
    def final_state(self) -> VersionState:
        """``X(t_f)`` — the final state of the execution."""
        return self._final_state

    def input_state(self, child: TxnName) -> VersionState:
        """``X(t_i)`` for a child."""
        try:
            return self._assignment[child]
        except KeyError:
            raise ExecutionError(f"{child} has no assigned state") from None

    def results(self) -> dict[TxnName, UniqueState]:
        """``t_i(X(t_i))`` for every child — each child's output state."""
        if self._results is None:
            self._results = {
                name: self._transaction.child(name).apply(state)
                for name, state in self._assignment.items()
            }
        return dict(self._results)

    def database_state_after(self) -> DatabaseState:
        """All versions after the execution: ``S ∪ {t_i(X(t_i)) …}``.

        The model's result-of-a-transaction rule applied to every
        child: old versions are retained, each child's output is added.
        """
        state = self._initial
        for result in self.results().values():
            state = state.add(result)
        return state

    # -- the three checks ----------------------------------------------------

    def is_valid(self) -> bool:
        """Structural validity: ``(t_i,t_j) ∈ P+ ⇒ (t_j,t_i) ∉ R+``."""
        order = self._transaction.order
        return all(
            (b, a) not in self._closure for (a, b) in order.closure
        )

    def parent_based_violations(
        self, parent_input: ParentSource
    ) -> list[tuple[TxnName, str]]:
        """Entities whose provenance breaks the parent-based rule.

        For every child ``t_i`` and entity ``e``, the value
        ``X(t_i)(e)`` must be offered by the parent source (see
        :data:`ParentSource`) or be the output value of some direct
        ``R``-predecessor.  Returns the offending (child, entity)
        pairs; empty means parent-based.
        """
        results = self.results()
        violations: list[tuple[TxnName, str]] = []
        for child, state in self._assignment.items():
            providers = [a for (a, b) in self._reads_from if b == child]
            for entity in state:
                value = state[entity]
                if source_provides(parent_input, entity, value):
                    continue
                if any(
                    results[provider][entity] == value
                    for provider in providers
                ):
                    continue
                violations.append((child, entity))
        return violations

    def is_parent_based(self, parent_input: ParentSource) -> bool:
        """Does every read trace to the parent or an R-predecessor?"""
        return not self.parent_based_violations(parent_input)

    def final_state_violations(
        self, parent_input: ParentSource
    ) -> list[str]:
        """Entities of the final state with no legal provenance.

        ``t_f`` follows every child in ``R+``, so it may read any
        parent-offered value or any child's output value.
        """
        results = self.results()
        bad: list[str] = []
        for entity in self._final_state:
            value = self._final_state[entity]
            if source_provides(parent_input, entity, value):
                continue
            if any(
                result[entity] == value for result in results.values()
            ):
                continue
            bad.append(entity)
        return bad

    def is_correct(self) -> bool:
        """The paper's correctness: ``∀t_i I_{t_i}(X(t_i)) ∧ O_t(X(t_f))``."""
        for child, state in self._assignment.items():
            constraint = self._transaction.child(child).input_constraint
            if not constraint.evaluate(state):
                return False
        return self._transaction.output_condition.evaluate(
            self._final_state
        )

    def incorrectness_witnesses(self) -> list[str]:
        """Human-readable reasons :meth:`is_correct` fails (empty if ok)."""
        reasons: list[str] = []
        for child in sorted(self._assignment):
            constraint = self._transaction.child(child).input_constraint
            if not constraint.evaluate(self._assignment[child]):
                reasons.append(
                    f"I_{child} fails on X({child}): {constraint}"
                )
        output = self._transaction.output_condition
        if not output.evaluate(self._final_state):
            reasons.append(f"O_t fails on the final state: {output}")
        return reasons

    def __repr__(self) -> str:
        return (
            f"Execution({self._transaction.name}, |R|="
            f"{len(self._reads_from)}, |X|={len(self._assignment)})"
        )
