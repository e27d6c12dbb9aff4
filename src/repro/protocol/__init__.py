"""The Section-5 correct-execution protocol."""

from .locks import (
    LockMode,
    LockOutcome,
    LockRequest,
    LockTable,
    compatible,
    lock_compatibility_matrix,
)
from .reeval import ReevalDecision, figure4_decision
from .scheduler import Outcome, StepResult, TransactionManager
from .state import ProtocolState, TxnPhase, TxnRecord
from .validation import DSet, select_versions

__all__ = [
    "DSet",
    "LockMode",
    "LockOutcome",
    "LockRequest",
    "LockTable",
    "Outcome",
    "ProtocolState",
    "ReevalDecision",
    "StepResult",
    "TransactionManager",
    "TxnPhase",
    "TxnRecord",
    "compatible",
    "figure4_decision",
    "lock_compatibility_matrix",
    "select_versions",
]
