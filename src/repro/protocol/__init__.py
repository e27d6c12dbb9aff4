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
from .validation import (
    BacktrackingSelector,
    DSet,
    GreedyLatestSelector,
    SatSelector,
    VersionSelector,
    compute_d_set,
)

__all__ = [
    "BacktrackingSelector",
    "DSet",
    "GreedyLatestSelector",
    "LockMode",
    "LockOutcome",
    "LockRequest",
    "LockTable",
    "Outcome",
    "ProtocolState",
    "ReevalDecision",
    "SatSelector",
    "StepResult",
    "TransactionManager",
    "TxnPhase",
    "TxnRecord",
    "VersionSelector",
    "compatible",
    "compute_d_set",
    "figure4_decision",
    "lock_compatibility_matrix",
]
