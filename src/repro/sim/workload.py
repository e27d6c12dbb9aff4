"""Re-export of the names ``benchmarks/suite/workloads.py`` imports.

The workload model lives in :mod:`repro.workload`; this module goes
once the suite imports from there.
"""

from ..workload import (
    Read,
    TransactionScript,
    Write,
    cad_workload,
    oltp_workload,
)

__all__ = [
    "Read",
    "TransactionScript",
    "Write",
    "cad_workload",
    "oltp_workload",
]
