"""Executable forms of the paper's complexity results (Section 3.2).

* :func:`lemma1_instance` — Lemma 1's reduction: a SAT formula becomes
  a one-transaction version-correctness instance (delegates to
  :mod:`repro.sat.reduction`).
* :func:`theorem1_instance` — Theorem 1's embedding: the Lemma-1
  instance is wrapped into an *execution correctness* instance with a
  single subtransaction ``T = {t_1}`` and ``O_t = true``, exactly the
  two steps of the paper's NP-hardness proof.
* :func:`verify_certificate` — the polynomial "Part 1" direction: a
  guessed ``X`` is checked in time linear in the predicate size.

These functions are exercised by experiment L1/T1 benchmarks, which
also chart how the honest exponential search scales against DPLL.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.correctness import find_correct_execution
from ..core.execution import Execution
from ..core.naming import TxnName
from ..core.predicates import Predicate
from ..core.states import DatabaseState, VersionState
from ..core.transactions import (
    Effect,
    LeafTransaction,
    NestedTransaction,
    Spec,
)
from .cnf import CNFFormula
from .reduction import VersionCorrectnessInstance, sat_to_version_correctness


def lemma1_instance(formula: CNFFormula) -> VersionCorrectnessInstance:
    """Lemma 1: SAT ≤p one-transaction version correctness."""
    return sat_to_version_correctness(formula)


@dataclass(frozen=True)
class ExecutionCorrectnessInstance:
    """An instance of Theorem 1's decision problem.

    *Given the root transaction ``t`` and initial state, does a correct
    execution ``(R, X)`` exist?*
    """

    transaction: NestedTransaction
    initial: DatabaseState

    def solve(self) -> Execution | None:
        """Honest exponential search (see Theorem 1).

        Root semantics: children may read any retained initial version
        (``t_0`` authored them all), matching the proof's two-state
        construction.
        """
        return find_correct_execution(self.transaction, self.initial)

    @property
    def has_correct_execution(self) -> bool:
        return self.solve() is not None


def theorem1_instance(
    formula: CNFFormula,
) -> ExecutionCorrectnessInstance:
    """Theorem 1: embed the Lemma-1 instance into execution correctness.

    Following the proof verbatim: ``T = {t_1}`` where ``t_1`` carries
    the Lemma-1 input constraint, and ``O_t = true`` so correctness
    degenerates to ``I_{t_1}(X(t_1))`` being satisfiable.
    """
    lemma = lemma1_instance(formula)
    root_name = TxnName.root()
    child = LeafTransaction(
        root_name.child(0),
        lemma.schema,
        Spec(lemma.input_constraint, Predicate.true()),
        Effect({}),
        extra_reads=(),
    )
    root = NestedTransaction(
        root_name,
        lemma.schema,
        Spec(Predicate.true(), Predicate.true()),
        [child],
    )
    return ExecutionCorrectnessInstance(root, lemma.db_state)


def verify_certificate(
    instance: ExecutionCorrectnessInstance,
    assignment: dict[TxnName, VersionState],
    final_state: VersionState,
) -> bool:
    """Theorem 1, Part 1: checking a guessed ``X`` is polynomial.

    Evaluates each child's input constraint on its guessed state and
    the root's output condition on the guessed final state — no search.
    """
    transaction = instance.transaction
    for child_name in transaction.child_names:
        state = assignment.get(child_name)
        if state is None:
            return False
        child = transaction.child(child_name)
        if not child.input_constraint.evaluate(state):
            return False
    return transaction.output_condition.evaluate(final_state)
