"""Tests for the Lemma-1 / Theorem-1 machinery (Section 3.2)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import VersionState
from repro.sat import (
    CNFFormula,
    brute_force_solve,
    lemma1_instance,
    random_formula,
    theorem1_instance,
    verify_certificate,
)
from repro.sat.reduction import decode_version_state


class TestLemma1:
    def test_satisfiable_formula(self):
        instance = lemma1_instance(CNFFormula.parse("a | b & ~a | b"))
        witness = instance.solve_direct()
        assert witness is not None
        assert instance.input_constraint.evaluate(witness)
        model = decode_version_state(instance, witness)
        assert model["b"] is True  # b forced true

    def test_unsatisfiable_formula(self):
        instance = lemma1_instance(
            CNFFormula.parse("a & ~a | b & ~b")
        )
        assert instance.solve_direct() is None
        assert instance.solve_via_sat() is None
        assert not instance.is_satisfiable

    def test_two_state_database_shape(self):
        instance = lemma1_instance(CNFFormula.parse("a | b"))
        # S = {all-zeros, all-ones} over E = variables.
        assert len(instance.db_state) == 2
        assert instance.db_state.versions_of("a") == {0, 1}
        # V_S is every 0/1 assignment: 2^|E|.
        assert instance.db_state.version_state_count() == 4

    def test_direct_and_sat_agree_on_fixed_formulas(self):
        for text in [
            "a",
            "~a",
            "a | b & ~b",
            "a | b & ~a | ~b",
            "a & b & c",
            "a | ~b & b | ~c & c | ~a",
        ]:
            instance = lemma1_instance(CNFFormula.parse(text))
            direct = instance.solve_direct()
            via_sat = instance.solve_via_sat()
            assert (direct is None) == (via_sat is None), text
            if direct is not None:
                assert instance.input_constraint.evaluate(direct)
                assert instance.input_constraint.evaluate(via_sat)

    @settings(max_examples=40, deadline=None)
    @given(
        num_vars=st.integers(min_value=1, max_value=5),
        num_clauses=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_reduction_preserves_satisfiability(
        self, num_vars, num_clauses, seed
    ):
        """Property: SAT ⟺ the reduced instance has a witness."""
        formula = random_formula(num_vars, num_clauses, seed=seed)
        instance = lemma1_instance(formula)
        sat_answer = brute_force_solve(formula) is not None
        assert instance.is_satisfiable == sat_answer
        assert (instance.solve_via_sat() is not None) == sat_answer


class TestTheorem1:
    def test_embedding_single_child_trivial_output(self):
        instance = theorem1_instance(CNFFormula.parse("a | ~b"))
        root = instance.transaction
        assert len(root) == 1  # T = {t_1}
        assert root.output_condition.is_true  # O_t = true
        execution = instance.solve()
        assert execution is not None

    def test_unsatisfiable_embedding(self):
        instance = theorem1_instance(CNFFormula.parse("a & ~a"))
        assert not instance.has_correct_execution

    def test_certificate_verification(self):
        instance = theorem1_instance(CNFFormula.parse("a | b"))
        execution = instance.solve()
        assert execution is not None
        child = instance.transaction.child_names[0]
        assert verify_certificate(
            instance,
            {child: execution.input_state(child)},
            execution.final_state,
        )

    def test_bad_certificate_rejected(self):
        instance = theorem1_instance(CNFFormula.parse("a & b"))
        child = instance.transaction.child_names[0]
        schema = instance.transaction.schema
        bad_state = VersionState(
            schema, {name: 0 for name in schema.names}
        )
        assert not verify_certificate(
            instance, {child: bad_state}, bad_state
        )

    def test_missing_assignment_rejected(self):
        instance = theorem1_instance(CNFFormula.parse("a"))
        schema = instance.transaction.schema
        state = VersionState(schema, {name: 1 for name in schema.names})
        assert not verify_certificate(instance, {}, state)

    @settings(max_examples=25, deadline=None)
    @given(
        num_vars=st.integers(min_value=1, max_value=4),
        num_clauses=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_execution_exists_iff_satisfiable(
        self, num_vars, num_clauses, seed
    ):
        formula = random_formula(num_vars, num_clauses, seed=seed)
        instance = theorem1_instance(formula)
        expected = brute_force_solve(formula) is not None
        assert instance.has_correct_execution == expected
