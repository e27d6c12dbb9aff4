"""CNF predicates over database states (Section 3.1).

The paper restricts consistency constraints, input constraints, and
output conditions to predicates in *conjunctive normal form*: a
conjunction of disjunctive clauses whose atoms are comparisons
``x θ y`` with ``θ ∈ {=, ≠, <, ≤, >, ≥}`` and ``x, y`` entities or
constants.

This module provides:

* :class:`Term`, :class:`Atom`, :class:`Clause`, :class:`Predicate` —
  the immutable CNF syntax tree;
* the paper's notion of an **object**: the set of entities mentioned by
  one conjunct (:meth:`Clause.object`, :meth:`Predicate.objects`) —
  objects drive predicate-wise serializability (Section 4.2);
* evaluation over any total entity → value mapping (unique states and
  version states both qualify);
* :func:`parse` — a tiny infix language (``"x > 0 & (y = 1 | z < 5)"``)
  so examples and tests stay readable;
* :meth:`Predicate.find_satisfying_version_state` — backtracking search
  for a ``v ∈ V_S`` with ``P(v)``, the computational heart of the
  transaction-validation phase (and of Lemma 1's NP-completeness).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from ..errors import (
    PredicateError,
    PredicateParseError,
    UnboundEntityError,
)
from .states import DatabaseState, VersionState

_COMPARATORS: dict[str, Callable[[int, int], bool]] = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True)
class Term:
    """One side of a comparison atom: an entity reference or a constant."""

    entity: str | None = None
    constant: int | None = None

    def __post_init__(self) -> None:
        if (self.entity is None) == (self.constant is None):
            raise PredicateError(
                "a term is exactly one of an entity or a constant"
            )

    @classmethod
    def of(cls, value: "str | int | Term") -> "Term":
        """Coerce a bare name or integer into a term."""
        if isinstance(value, Term):
            return value
        if isinstance(value, bool):
            raise PredicateError("boolean constants are not permitted")
        if isinstance(value, int):
            return cls(constant=value)
        return cls(entity=value)

    @property
    def is_entity(self) -> bool:
        return self.entity is not None

    def value(self, state: Mapping[str, int]) -> int:
        """Resolve the term against a state."""
        if self.constant is not None:
            return self.constant
        assert self.entity is not None
        try:
            return state[self.entity]
        except KeyError:
            raise UnboundEntityError(
                f"entity {self.entity!r} has no value in this state"
            ) from None

    def __str__(self) -> str:
        if self.constant is not None:
            return str(self.constant)
        return str(self.entity)


@dataclass(frozen=True)
class Atom:
    """A comparison ``lhs θ rhs`` (the paper's atom)."""

    lhs: Term
    op: str
    rhs: Term

    def __post_init__(self) -> None:
        if self.op not in _COMPARATORS:
            raise PredicateError(f"unknown comparison operator {self.op!r}")

    @classmethod
    def of(cls, lhs: "str | int | Term", op: str, rhs: "str | int | Term") -> "Atom":
        """Build an atom, coercing bare names/ints into terms."""
        return cls(Term.of(lhs), "=" if op == "==" else op, Term.of(rhs))

    @property
    def entities(self) -> frozenset[str]:
        """Entities mentioned by this atom."""
        names = set()
        if self.lhs.entity is not None:
            names.add(self.lhs.entity)
        if self.rhs.entity is not None:
            names.add(self.rhs.entity)
        return frozenset(names)

    def evaluate(self, state: Mapping[str, int]) -> bool:
        """Truth value of the comparison in ``state``."""
        return _COMPARATORS[self.op](
            self.lhs.value(state), self.rhs.value(state)
        )

    def __str__(self) -> str:
        return f"{self.lhs} {self.op} {self.rhs}"


@dataclass(frozen=True)
class Clause:
    """A disjunctive clause — an ``or`` of atoms (one conjunct ``C_i``)."""

    atoms: tuple[Atom, ...]

    def __post_init__(self) -> None:
        if not self.atoms:
            raise PredicateError("a clause must contain at least one atom")

    @classmethod
    def of(cls, *atoms: Atom) -> "Clause":
        return cls(tuple(atoms))

    @property
    def object(self) -> frozenset[str]:
        """The paper's *object* ``x_i``: entities mentioned in the clause."""
        names: set[str] = set()
        for atom in self.atoms:
            names |= atom.entities
        return frozenset(names)

    def evaluate(self, state: Mapping[str, int]) -> bool:
        return any(atom.evaluate(state) for atom in self.atoms)

    def __str__(self) -> str:
        if len(self.atoms) == 1:
            return str(self.atoms[0])
        return "(" + " | ".join(str(atom) for atom in self.atoms) + ")"


class Predicate:
    """A CNF predicate — a conjunction of disjunctive clauses.

    The empty conjunction is the constant-true predicate
    (:meth:`Predicate.true`); the paper notes a database with an empty
    (trivially true) consistency constraint needs no concurrency control
    at all, and the class hierarchy code treats that case specially.
    """

    __slots__ = ("_clauses", "_hash", "_text")

    def __init__(self, clauses: Iterable[Clause]) -> None:
        self._clauses: tuple[Clause, ...] = tuple(clauses)
        self._hash: int | None = None
        self._text: str | None = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def true(cls) -> "Predicate":
        """The constant-true predicate (empty conjunction)."""
        return cls(())

    @classmethod
    def of(cls, *clauses: Clause) -> "Predicate":
        return cls(clauses)

    @classmethod
    def atom(
        cls, lhs: "str | int | Term", op: str, rhs: "str | int | Term"
    ) -> "Predicate":
        """A single-atom predicate, e.g. ``Predicate.atom("x", ">", 0)``."""
        return cls((Clause.of(Atom.of(lhs, op, rhs)),))

    @classmethod
    def parse(cls, text: str) -> "Predicate":
        """Parse the mini-language; see :func:`parse`."""
        return parse(text)

    # -- structure ------------------------------------------------------

    @property
    def clauses(self) -> tuple[Clause, ...]:
        return self._clauses

    @property
    def is_true(self) -> bool:
        """Is this the trivially-true (empty) predicate?"""
        return not self._clauses

    def objects(self) -> tuple[frozenset[str], ...]:
        """The objects ``{x_0, …, x_{n-1}}`` — one entity set per conjunct.

        Duplicate objects are preserved positionally (each conjunct is
        one serialization group in PWSR); callers that want the distinct
        object *sets* can apply ``set()``.
        """
        return tuple(clause.object for clause in self._clauses)

    def entities(self) -> frozenset[str]:
        """All entities mentioned anywhere in the predicate."""
        names: set[str] = set()
        for clause in self._clauses:
            names |= clause.object
        return frozenset(names)

    def and_(self, other: "Predicate") -> "Predicate":
        """Conjunction of two CNF predicates (clause concatenation)."""
        return Predicate(self._clauses + other._clauses)

    def __and__(self, other: "Predicate") -> "Predicate":
        return self.and_(other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Predicate):
            return NotImplemented
        return self._clauses == other._clauses

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._clauses)
        return self._hash

    def __iter__(self) -> Iterator[Clause]:
        return iter(self._clauses)

    def __len__(self) -> int:
        return len(self._clauses)

    def __str__(self) -> str:
        # Rendered once: every WAL DEFINE and every checkpoint spells
        # the same immutable predicate out again.
        if self._text is None:
            self._text = (
                " & ".join(str(clause) for clause in self._clauses)
                or "true"
            )
        return self._text

    def __repr__(self) -> str:
        return f"Predicate({self})"

    # -- evaluation -----------------------------------------------------

    def evaluate(self, state: Mapping[str, int]) -> bool:
        """Truth value over any total entity → value mapping."""
        return all(clause.evaluate(state) for clause in self._clauses)

    def __call__(self, state: Mapping[str, int]) -> bool:
        return self.evaluate(state)

    def holds_for_all(self, db_state: DatabaseState) -> bool:
        """``P`` holds on every unique state of a database state."""
        return all(self.evaluate(state) for state in db_state)

    def satisfiable_states(
        self, db_state: DatabaseState
    ) -> Iterator[VersionState]:
        """Lazily yield every ``v ∈ V_S`` with ``P(v)`` (may be huge)."""
        for version_state in db_state.version_states():
            if self.evaluate(version_state):
                yield version_state

    # -- version-state search (the Lemma-1 problem) ----------------------

    def iter_satisfying_assignments(
        self, candidates: Mapping[str, Sequence[int]]
    ) -> Iterator[dict[str, int]]:
        """Enumerate assignments from per-entity candidates satisfying P.

        ``candidates`` maps each entity the predicate mentions (at
        least) to the values it may take; entities absent from the
        predicate are ignored.  This is the generic search kernel behind
        both :meth:`find_satisfying_version_state` (candidates = the
        retained versions of a database state) and the protocol's
        validation phase (candidates = the D-set versions).

        The search is backtracking with most-constrained-variable
        ordering; a partial assignment is abandoned as soon as any
        clause whose entities are all bound evaluates false.  Solutions
        are yielded in a deterministic order.
        """
        relevant = sorted(self.entities())
        missing = [name for name in relevant if name not in candidates]
        if missing:
            raise PredicateError(
                f"no candidate values supplied for {missing}"
            )
        order = sorted(
            relevant, key=lambda name: (len(candidates[name]), name)
        )
        position = {name: index for index, name in enumerate(order)}

        # For each clause, the point in the assignment order at which
        # all of its entities are bound and it becomes checkable.
        checkable_at: list[list[Clause]] = [[] for _ in order]
        trivial_clauses: list[Clause] = []
        for clause in self._clauses:
            names = clause.object
            if not names:
                trivial_clauses.append(clause)
                continue
            last = max(position[name] for name in names)
            checkable_at[last].append(clause)

        empty: dict[str, int] = {}
        if any(not clause.evaluate(empty) for clause in trivial_clauses):
            return

        assignment: dict[str, int] = {}

        def extend(depth: int) -> Iterator[dict[str, int]]:
            if depth == len(order):
                yield dict(assignment)
                return
            name = order[depth]
            for value in candidates[name]:
                assignment[name] = value
                if all(
                    clause.evaluate(assignment)
                    for clause in checkable_at[depth]
                ):
                    yield from extend(depth + 1)
            assignment.pop(name, None)

        yield from extend(0)

    def find_satisfying_assignment(
        self, candidates: Mapping[str, Sequence[int]]
    ) -> dict[str, int] | None:
        """First satisfying assignment from per-entity candidates."""
        return next(self.iter_satisfying_assignments(candidates), None)

    def find_satisfying_version_state(
        self, db_state: DatabaseState
    ) -> VersionState | None:
        """Find some ``v ∈ V_S`` satisfying this predicate, or ``None``.

        This is exactly the *one transaction version correctness*
        problem of Lemma 1 — NP-complete in general.  Entities the
        predicate does not mention are bound to an arbitrary retained
        version, which cannot affect satisfaction.
        """
        schema = db_state.schema
        for name in sorted(self.entities()):
            schema[name]  # raises UnknownEntityError for bad predicates
        candidates = {
            name: sorted(db_state.versions_of(name))
            for name in self.entities()
        }
        partial = self.find_satisfying_assignment(candidates)
        if partial is None:
            return None
        full = {
            name: next(iter(db_state.versions_of(name)))
            for name in schema.names
        }
        full.update(partial)
        return VersionState(schema, full)

    def is_satisfiable_over(self, db_state: DatabaseState) -> bool:
        """Does any version state of ``db_state`` satisfy the predicate?"""
        return self.find_satisfying_version_state(db_state) is not None


# ---------------------------------------------------------------------------
# Mini-language parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<op>!=|<=|>=|==|=|<|>)"
    r"|(?P<and>&&?)"
    r"|(?P<or>\|\|?)"
    r"|(?P<lpar>\()"
    r"|(?P<rpar>\))"
    r"|(?P<int>-?\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9.]*))"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    index = 0
    while index < len(text):
        match = _TOKEN_RE.match(text, index)
        if match is None:
            if text[index:].strip():
                raise PredicateParseError(
                    f"unexpected character at {index}: {text[index:]!r}"
                )
            break
        kind = match.lastgroup
        assert kind is not None
        tokens.append((kind, match.group(kind)))
        index = match.end()
    return tokens


class _Parser:
    """Recursive-descent parser for the CNF mini-language.

    Grammar (CNF is enforced syntactically — disjunctions may not
    contain conjunctions)::

        predicate := "true" | clause ("&" clause)*
        clause    := "(" disjunction ")" | atom
        disjunction := atom ("|" atom)*
        atom      := term op term
        term      := NAME | INT
    """

    def __init__(self, text: str) -> None:
        self._tokens = _tokenize(text)
        self._index = 0

    def _peek(self) -> tuple[str, str] | None:
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return None

    def _next(self) -> tuple[str, str]:
        token = self._peek()
        if token is None:
            raise PredicateParseError("unexpected end of predicate")
        self._index += 1
        return token

    def _expect(self, kind: str) -> str:
        token = self._next()
        if token[0] != kind:
            raise PredicateParseError(
                f"expected {kind}, found {token[1]!r}"
            )
        return token[1]

    def parse(self) -> Predicate:
        if (
            len(self._tokens) == 1
            and self._tokens[0] == ("name", "true")
        ):
            return Predicate.true()
        clauses = [self._clause()]
        while self._peek() is not None:
            token = self._next()
            if token[0] != "and":
                raise PredicateParseError(
                    f"expected '&' between clauses, found {token[1]!r}"
                )
            clauses.append(self._clause())
        return Predicate(clauses)

    def _clause(self) -> Clause:
        token = self._peek()
        if token is not None and token[0] == "lpar":
            self._next()
            atoms = [self._atom()]
            while True:
                token = self._next()
                if token[0] == "rpar":
                    break
                if token[0] != "or":
                    raise PredicateParseError(
                        f"expected '|' or ')', found {token[1]!r}"
                    )
                atoms.append(self._atom())
            return Clause(tuple(atoms))
        return Clause.of(self._atom())

    def _atom(self) -> Atom:
        lhs = self._term()
        op = self._expect("op")
        rhs = self._term()
        return Atom.of(lhs, op, rhs)

    def _term(self) -> Term:
        token = self._next()
        if token[0] == "int":
            return Term(constant=int(token[1]))
        if token[0] == "name":
            return Term(entity=token[1])
        raise PredicateParseError(
            f"expected entity or constant, found {token[1]!r}"
        )


def parse(text: str) -> Predicate:
    """Parse a CNF predicate from infix text.

    Examples
    --------
    >>> parse("x > 0")
    Predicate(x > 0)
    >>> parse("x = 1 & (y < 2 | z != 0)")
    Predicate(x = 1 & (y < 2 | z != 0))
    >>> parse("true").is_true
    True
    """
    return _Parser(text).parse()


@lru_cache(maxsize=4096)
def parse_cached(text: str) -> Predicate:
    """:func:`parse` through a parse-once cache.

    Clients, load generators and the WAL alike spell a small vocabulary
    of constraint texts over and over (every restart re-defines with
    the same constraints, every replayed DEFINE carries two);
    :class:`Predicate` is immutable, so sharing the parsed object across
    transactions, sessions and replicas is safe.
    """
    return parse(text)
