"""The paper's formal model (Section 3) — the primary contribution.

Public surface: entities and schemas, the three state notions, CNF
predicates with objects, hierarchical names, partial orders, nested
transactions with specifications, executions ``(R, X)``, and
correctness checking/searching.  The NP-completeness constructions
build on the SAT machinery and live in :mod:`repro.sat.complexity`.
"""

from .correctness import (
    CheckReport,
    check_execution,
    find_correct_execution,
    has_correct_execution,
    iter_correct_executions,
)
from .entities import Domain, Entity, Schema
from .execution import Execution, ParentSource, source_provides
from .naming import ROOT_NAME, TxnName
from .orders import PartialOrder
from .predicates import Atom, Clause, Predicate, Term, parse
from .states import DatabaseState, UniqueState, VersionState
from .transactions import (
    BinOp,
    Const,
    Effect,
    Expr,
    LeafTransaction,
    NestedTransaction,
    Ref,
    Spec,
    Transaction,
    expr,
    increment,
)

__all__ = [
    "Atom",
    "BinOp",
    "CheckReport",
    "Clause",
    "Const",
    "DatabaseState",
    "Domain",
    "Effect",
    "Entity",
    "Execution",
    "Expr",
    "LeafTransaction",
    "NestedTransaction",
    "ParentSource",
    "PartialOrder",
    "Predicate",
    "ROOT_NAME",
    "Ref",
    "Schema",
    "Spec",
    "Term",
    "Transaction",
    "TxnName",
    "UniqueState",
    "VersionState",
    "check_execution",
    "expr",
    "find_correct_execution",
    "has_correct_execution",
    "increment",
    "iter_correct_executions",
    "parse",
    "source_provides",
]
