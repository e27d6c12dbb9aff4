"""A DPLL SAT solver.

Used three ways in the reproduction:

* as the certified "NP oracle" for the Lemma-1 / Theorem-1 reductions
  (:mod:`repro.sat.reduction`);
* as the reference back-end for the protocol's version-selection
  problem (Section 5.1 suggests query-style search; the DPLL selector
  in :mod:`repro.reference.validation` is the oracle the manager's
  backtracking selector is tested against);
* as the brute-force comparator in property tests.

The implementation is classic DPLL with unit propagation, pure-literal
elimination, and a most-occurrences branching heuristic.  It is
deliberately dependency-free and deterministic.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import product

from .cnf import CNFFormula, Literal


@dataclass
class SolverStats:
    """Counters describing one solver run (used by benchmarks)."""

    decisions: int = 0
    unit_propagations: int = 0
    pure_eliminations: int = 0
    backtracks: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "decisions": self.decisions,
            "unit_propagations": self.unit_propagations,
            "pure_eliminations": self.pure_eliminations,
            "backtracks": self.backtracks,
        }


@dataclass
class DPLLSolver:
    """Deterministic DPLL solver with standard inference rules."""

    stats: SolverStats = field(default_factory=SolverStats)

    def solve(self, formula: CNFFormula) -> dict[str, bool] | None:
        """A satisfying total assignment, or ``None`` if unsatisfiable.

        Variables not forced by the search are bound to ``False`` so
        callers always receive a *total* model over
        ``formula.variables``.
        """
        self.stats = SolverStats()
        model = self._search(formula, {})
        if model is None:
            return None
        for variable in formula.variables:
            model.setdefault(variable, False)
        return model

    def is_satisfiable(self, formula: CNFFormula) -> bool:
        return self.solve(formula) is not None

    # -- internals ----------------------------------------------------------

    def _search(
        self, formula: CNFFormula, assignment: dict[str, bool]
    ) -> dict[str, bool] | None:
        formula, assignment = self._propagate(formula, assignment)
        if formula is None:
            return None
        if not formula.clauses:
            return assignment
        variable = self._branch_variable(formula)
        for value in (True, False):
            self.stats.decisions += 1
            trial = dict(assignment)
            trial[variable] = value
            simplified = formula.simplify({variable: value})
            if simplified is not None:
                result = self._search(simplified, trial)
                if result is not None:
                    return result
            self.stats.backtracks += 1
        return None

    def _propagate(
        self, formula: CNFFormula, assignment: dict[str, bool]
    ) -> tuple[CNFFormula | None, dict[str, bool]]:
        """Exhaustively apply unit propagation and pure literals."""
        assignment = dict(assignment)
        while True:
            unit = self._find_unit(formula)
            if unit is not None:
                self.stats.unit_propagations += 1
                assignment[unit.variable] = not unit.negated
                simplified = formula.simplify(
                    {unit.variable: not unit.negated}
                )
                if simplified is None:
                    return None, assignment
                formula = simplified
                continue
            pure = self._find_pure(formula)
            if pure is not None:
                self.stats.pure_eliminations += 1
                assignment[pure.variable] = not pure.negated
                simplified = formula.simplify(
                    {pure.variable: not pure.negated}
                )
                if simplified is None:
                    return None, assignment
                formula = simplified
                continue
            return formula, assignment

    @staticmethod
    def _find_unit(formula: CNFFormula) -> Literal | None:
        for clause in formula.clauses:
            if len(clause) == 1:
                return next(iter(clause.literals))
        return None

    @staticmethod
    def _find_pure(formula: CNFFormula) -> Literal | None:
        polarity: dict[str, set[bool]] = {}
        for clause in formula.clauses:
            for literal in clause.literals:
                polarity.setdefault(literal.variable, set()).add(
                    literal.negated
                )
        for variable in sorted(polarity):
            signs = polarity[variable]
            if len(signs) == 1:
                return Literal(variable, next(iter(signs)))
        return None

    @staticmethod
    def _branch_variable(formula: CNFFormula) -> str:
        """Most-occurrences heuristic with deterministic tie-break."""
        counts: Counter[str] = Counter()
        for clause in formula.clauses:
            counts.update(clause.variables)
        best = max(sorted(counts), key=lambda name: counts[name])
        return best


def brute_force_solve(formula: CNFFormula) -> dict[str, bool] | None:
    """Try all 2^n assignments — the comparator for property tests."""
    variables = sorted(formula.variables)
    for values in product((False, True), repeat=len(variables)):
        assignment = dict(zip(variables, values))
        if formula.evaluate(assignment):
            return assignment
    if not variables and formula.evaluate({}):
        return {}
    return None


def solve(formula: CNFFormula) -> dict[str, bool] | None:
    """Module-level convenience wrapper around :class:`DPLLSolver`."""
    return DPLLSolver().solve(formula)
