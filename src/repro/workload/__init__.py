"""repro.workload — the one workload model and its seeded generators.

:mod:`~repro.workload.model` holds the types and
:mod:`~repro.workload.families` the generators; neither imports
:mod:`repro.server`, :mod:`repro.sim` or :mod:`repro.baselines`.  The
closed-loop driver behind ``repro loadgen``
(:mod:`repro.workload.driver`) needs the client stack and is imported
on its own.
"""

from .families import build_workload, cad_workload, oltp_workload
from .model import (
    Bump,
    Read,
    Think,
    TransactionScript,
    Txn,
    Unordered,
    Workload,
    Write,
    predicate_text,
)

__all__ = [
    "Bump",
    "Read",
    "Think",
    "TransactionScript",
    "Txn",
    "Unordered",
    "Workload",
    "Write",
    "build_workload",
    "cad_workload",
    "oltp_workload",
    "predicate_text",
]
