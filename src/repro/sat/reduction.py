"""The Lemma-1 reductions between SAT and version correctness.

Section 3.2 proves *one transaction version correctness* NP-complete:

* **NP-hardness** (:func:`sat_to_version_correctness`) — given a SAT
  formula over variables ``U``, build ``E = U`` with boolean domains,
  the two-state database ``S = {all-zeros, all-ones}`` (so ``V_S`` is
  every 0/1 assignment), and the input constraint ``I_t = C``.  The
  formula is satisfiable iff some version state satisfies ``I_t``.

* **NP membership** (:func:`version_correctness_to_sat`) — the converse
  encoding: introduce a selector variable per (entity, retained
  version), add exactly-one constraints, and compile each CNF conjunct
  into SAT clauses (binary atoms get one auxiliary variable per
  satisfying version pair).  A model selects exactly one version per
  entity satisfying the predicate, i.e. a witness ``X(t_i)``.

Round-tripping these two reductions against both the DPLL solver and
the direct backtracking search is one of the library's core property
tests (experiment L1).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from ..core.entities import Schema
from ..core.predicates import Atom, Clause, Predicate
from ..core.states import DatabaseState, UniqueState, VersionState
from .cnf import CNFFormula, Literal, SatClause
from .solver import DPLLSolver


@dataclass(frozen=True)
class VersionCorrectnessInstance:
    """An instance of the Lemma-1 decision problem.

    *Is there a version state of* ``db_state`` *satisfying*
    ``input_constraint``?
    """

    schema: Schema
    db_state: DatabaseState
    input_constraint: Predicate

    def solve_direct(self) -> VersionState | None:
        """Backtracking search over ``V_S`` (no SAT detour)."""
        return self.input_constraint.find_satisfying_version_state(
            self.db_state
        )

    def solve_via_sat(self) -> VersionState | None:
        """Encode to SAT, run DPLL, decode the model."""
        encoding = version_correctness_to_sat(
            self.db_state, self.input_constraint
        )
        model = DPLLSolver().solve(encoding.formula)
        if model is None:
            return None
        return encoding.decode(model)

    @property
    def is_satisfiable(self) -> bool:
        return self.solve_direct() is not None


def sat_to_version_correctness(
    formula: CNFFormula,
) -> VersionCorrectnessInstance:
    """Lemma 1's NP-hardness reduction, literally.

    Step 1: ``E = U``.  Step 2: ``S = {S⁰, S¹}`` with ``S⁰(e) = 0`` and
    ``S¹(e) = 1`` for all ``e``.  Step 3: ``I_t = C``, translating the
    literal ``u`` to the atom ``u = 1`` and ``¬u`` to ``u = 0``.
    """
    variables = sorted(formula.variables) or ["v0"]
    schema = Schema.of(*variables)
    all_zero = UniqueState(schema, {name: 0 for name in variables})
    all_one = UniqueState(schema, {name: 1 for name in variables})
    db_state = DatabaseState([all_zero, all_one])

    clauses = []
    for sat_clause in formula.clauses:
        atoms = tuple(
            Atom.of(literal.variable, "=", 0 if literal.negated else 1)
            for literal in sat_clause
        )
        clauses.append(Clause(atoms))
    predicate = Predicate(clauses)
    return VersionCorrectnessInstance(schema, db_state, predicate)


def decode_version_state(
    instance: VersionCorrectnessInstance, state: VersionState
) -> dict[str, bool]:
    """Read a SAT model back out of a witnessing version state."""
    return {name: bool(state[name]) for name in instance.schema.names}


# ---------------------------------------------------------------------------
# NP membership: version correctness → SAT
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SatEncoding:
    """A SAT encoding of a version-correctness instance.

    ``selector[(entity, value)]`` names the boolean variable asserting
    that the version state assigns ``value`` to ``entity``.
    """

    formula: CNFFormula
    schema: Schema
    selector: dict[tuple[str, int], str]

    def decode(self, model: dict[str, bool]) -> VersionState:
        """Extract the selected version state from a SAT model."""
        values: dict[str, int] = {}
        for (entity, value), name in self.selector.items():
            if model.get(name):
                values[entity] = value
        return VersionState(self.schema, values)


def _selector_name(entity: str, value: int) -> str:
    return f"sel::{entity}::{value}"


def _atom_satisfying_selectors(
    atom: Atom,
    versions: dict[str, list[int]],
    aux_clauses: list[SatClause],
    aux_counter: list[int],
) -> list[Literal]:
    """Literals whose truth forces this atom to hold.

    Single-entity atoms contribute the selectors of their satisfying
    versions directly.  Two-entity atoms get one auxiliary variable per
    satisfying version *pair*, with implication clauses tying the
    auxiliary to both selectors.
    """
    entities = sorted(atom.entities)
    if not entities:
        # Constant comparison: statically true atoms satisfy the clause
        # unconditionally; statically false atoms contribute nothing.
        return (
            [Literal("const::true")] if atom.evaluate({}) else []
        )
    if len(entities) == 1:
        entity = entities[0]
        return [
            Literal(_selector_name(entity, value))
            for value in versions[entity]
            if atom.evaluate({entity: value})
        ]
    first, second = entities
    literals: list[Literal] = []
    for value_a in versions[first]:
        for value_b in versions[second]:
            if not atom.evaluate({first: value_a, second: value_b}):
                continue
            aux_counter[0] += 1
            aux = f"aux::{aux_counter[0]}"
            literals.append(Literal(aux))
            aux_clauses.append(
                SatClause.of(
                    Literal(aux, negated=True),
                    Literal(_selector_name(first, value_a)),
                )
            )
            aux_clauses.append(
                SatClause.of(
                    Literal(aux, negated=True),
                    Literal(_selector_name(second, value_b)),
                )
            )
    return literals


def candidate_selection_to_sat(
    candidates: "dict[str, list[int]]", predicate: Predicate
) -> tuple[CNFFormula, dict[tuple[str, int], str]]:
    """Encode "pick one candidate value per entity satisfying P" as SAT.

    The generic kernel shared by :func:`version_correctness_to_sat`
    (candidates = a database state's retained versions) and the
    reference DPLL version selector (candidates = the validation
    phase's D-set versions).  Returns the formula and the
    selector-variable map.
    """
    versions = {name: sorted(values) for name, values in candidates.items()}
    relevant = sorted(versions)
    selector: dict[tuple[str, int], str] = {}
    clauses: list[SatClause] = []
    for entity in relevant:
        names = []
        for value in versions[entity]:
            name = _selector_name(entity, value)
            selector[(entity, value)] = name
            names.append(name)
        # exactly-one: at least one …
        clauses.append(
            SatClause.of(*(Literal(name) for name in names))
        )
        # … and at most one.
        for name_a, name_b in combinations(names, 2):
            clauses.append(
                SatClause.of(
                    Literal(name_a, negated=True),
                    Literal(name_b, negated=True),
                )
            )

    aux_clauses: list[SatClause] = []
    aux_counter = [0]
    used_const_true = False
    for conjunct in predicate.clauses:
        literals: list[Literal] = []
        for atom in conjunct.atoms:
            atom_literals = _atom_satisfying_selectors(
                atom, versions, aux_clauses, aux_counter
            )
            literals.extend(atom_literals)
            used_const_true = used_const_true or any(
                literal.variable == "const::true"
                for literal in atom_literals
            )
        if not literals:
            # Unsatisfiable conjunct: no version pair makes any atom
            # true.  Encode a contradiction explicitly.
            clauses.append(SatClause.of(Literal("const::false")))
            clauses.append(
                SatClause.of(Literal("const::false", negated=True))
            )
            continue
        clauses.append(SatClause.of(*literals))
    if used_const_true:
        clauses.append(SatClause.of(Literal("const::true")))

    return CNFFormula(clauses + aux_clauses), selector


def solve_candidate_selection(
    candidates: "dict[str, list[int]]", predicate: Predicate
) -> dict[str, int] | None:
    """Pick one candidate value per entity satisfying ``predicate``.

    SAT-backed version selection: DPLL over the
    :func:`candidate_selection_to_sat` encoding.  Returns a value per
    candidate entity, or ``None`` when no selection satisfies the
    predicate.
    """
    formula, selector = candidate_selection_to_sat(candidates, predicate)
    model = DPLLSolver().solve(formula)
    if model is None:
        return None
    chosen: dict[str, int] = {}
    for (entity, value), name in selector.items():
        if model.get(name):
            chosen[entity] = value
    # Entities untouched by the predicate keep their first candidate.
    for entity, values in candidates.items():
        chosen.setdefault(entity, sorted(values)[0])
    return chosen


def version_correctness_to_sat(
    db_state: DatabaseState, predicate: Predicate
) -> SatEncoding:
    """Encode "∃ v ∈ V_S with P(v)" as boolean satisfiability.

    The encoding is satisfiable iff the instance is, and models decode
    to witnessing version states — together with
    :func:`sat_to_version_correctness` this realizes both halves of
    Lemma 1's NP-completeness argument in executable form.
    """
    schema = db_state.schema
    relevant = sorted(predicate.entities()) or list(schema.names[:1])
    candidates = {
        name: sorted(db_state.versions_of(name)) for name in relevant
    }
    formula, selector = candidate_selection_to_sat(candidates, predicate)

    # Fill unmentioned entities with an arbitrary retained version so
    # decode() always returns a total version state.
    full_selector = dict(selector)
    extra_clauses: list[SatClause] = []
    for name in schema.names:
        if name in candidates:
            continue
        value = next(iter(db_state.versions_of(name)))
        var = _selector_name(name, value)
        full_selector[(name, value)] = var
        extra_clauses.append(SatClause.of(Literal(var)))
    if extra_clauses:
        formula = CNFFormula(
            tuple(formula.clauses) + tuple(extra_clauses)
        )
    return SatEncoding(formula, schema, full_selector)
