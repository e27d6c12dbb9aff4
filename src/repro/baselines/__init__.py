"""Classical concurrency-control baselines and the protocol adapter."""

from .base import (
    AccessResult,
    AccessStatus,
    ConcurrencyControl,
    PlannedAccess,
)
from .korth_speegle import KorthSpeegleScheduler
from .multiversion_to import MultiversionTimestampOrdering
from .predicatewise_2pl import PredicatewiseTwoPhaseLocking
from .serial import SerialExecution
from .timestamp import ConservativeTimestampOrdering, TimestampOrdering
from .two_phase_locking import StrictTwoPhaseLocking

__all__ = [
    "AccessResult",
    "AccessStatus",
    "ConcurrencyControl",
    "ConservativeTimestampOrdering",
    "KorthSpeegleScheduler",
    "MultiversionTimestampOrdering",
    "PlannedAccess",
    "PredicatewiseTwoPhaseLocking",
    "SerialExecution",
    "StrictTwoPhaseLocking",
    "TimestampOrdering",
]
