"""The classical (standard-model) schedule substrate (Section 4.1)."""

from .fastsched import (
    FastSchedule,
    fast_of,
    fast_recovery_profile,
)
from .generator import (
    interleaving_count,
    interleavings,
    random_interleaving,
    random_programs,
    random_schedule,
)
from .operations import I, Operation, OpType, R, W
from .recovery import (
    CommittedSchedule,
    avoids_cascading_aborts,
    is_recoverable,
    is_strict,
    recovery_profile,
)
from .schedule import Schedule

__all__ = [
    "CommittedSchedule",
    "FastSchedule",
    "I",
    "Operation",
    "OpType",
    "R",
    "Schedule",
    "W",
    "avoids_cascading_aborts",
    "fast_of",
    "fast_recovery_profile",
    "interleaving_count",
    "is_recoverable",
    "is_strict",
    "interleavings",
    "random_interleaving",
    "random_programs",
    "random_schedule",
    "recovery_profile",
]
