"""Discrete-event simulation of long-duration transaction workloads.

The simulator runs :mod:`repro.workload` scripts against the
:mod:`repro.baselines` schedulers in virtual time.
"""

from .clock import EventQueue, ScheduledEvent, VirtualClock
from .engine import SimulationEngine
from .metrics import RunMetrics, TxnMetrics
from .runner import (
    DEFAULT_SCHEDULERS,
    EXTENDED_SCHEDULERS,
    compare_schedulers,
    metrics_table,
    run_one,
)

__all__ = [
    "DEFAULT_SCHEDULERS",
    "EXTENDED_SCHEDULERS",
    "EventQueue",
    "RunMetrics",
    "ScheduledEvent",
    "SimulationEngine",
    "TxnMetrics",
    "VirtualClock",
    "compare_schedulers",
    "metrics_table",
    "run_one",
]
