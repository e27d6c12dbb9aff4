"""Boolean satisfiability and the paper's complexity results (Section
3.2): CNF formulas, solvers, the SAT ↔ version-correctness reductions
and the Lemma 1 / Theorem 1 constructions."""

from .cnf import CNFFormula, Literal, SatClause, SatError, lit, random_formula
from .complexity import (
    ExecutionCorrectnessInstance,
    lemma1_instance,
    theorem1_instance,
    verify_certificate,
)
from .reduction import (
    SatEncoding,
    VersionCorrectnessInstance,
    candidate_selection_to_sat,
    decode_version_state,
    sat_to_version_correctness,
    solve_candidate_selection,
    version_correctness_to_sat,
)
from .solver import DPLLSolver, SolverStats, brute_force_solve, solve

__all__ = [
    "CNFFormula",
    "DPLLSolver",
    "ExecutionCorrectnessInstance",
    "Literal",
    "SatClause",
    "SatEncoding",
    "SatError",
    "SolverStats",
    "VersionCorrectnessInstance",
    "candidate_selection_to_sat",
    "brute_force_solve",
    "decode_version_state",
    "lemma1_instance",
    "lit",
    "random_formula",
    "sat_to_version_correctness",
    "solve",
    "solve_candidate_selection",
    "theorem1_instance",
    "verify_certificate",
    "version_correctness_to_sat",
]
