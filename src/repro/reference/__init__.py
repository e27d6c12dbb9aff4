"""Reference implementations the optimised paths are tested against.

Each function here transcribes a paper definition directly — quadratic
loops over objects, no caches, no encodings — or, for version
selection, answers the same question by an independent algorithm
(DPLL).  It exists so the differential tests can hold the production
paths (:mod:`repro.protocol.fastpath`, :mod:`repro.protocol.validation`,
:mod:`repro.schedules.fastsched`) equal to it on generated inputs.
Nothing in ``server``, ``protocol``, ``durability``, ``replication`` or
``storage`` imports this package (``tests/test_reference_boundary.py``
asserts it).
"""

from .conflicts import conflict_graph_reference, conflict_pairs_reference
from .validation import (
    ReferenceTransactionManager,
    compute_d_set,
    compute_d_sets_object,
    select_versions_dpll,
)

__all__ = [
    "ReferenceTransactionManager",
    "compute_d_set",
    "compute_d_sets_object",
    "conflict_graph_reference",
    "conflict_pairs_reference",
    "select_versions_dpll",
]
