"""Figure 4 — the re-evaluation procedure's decision logic.

On every write completion the protocol scans the transactions holding
read-side locks on the written item and decides, per holder, whether
the new version invalidates its assignment.  The nested conditions of
Figure 4, in order:

1. ``prefix(R[i].name) = prefix(W.name)`` — only *siblings* are
   affected (each nesting level is protected independently);
2. ``path(parent(W).P, W, R[i])`` — the writer must be a partial-order
   *predecessor* of the holder (otherwise the holder is allowed to keep
   reading an older world);
3. ``path(parent(W).P, V, W)`` where ``V`` authored the version the
   holder was assigned — the writer must *succeed* that author, i.e.
   the holder is now reading a stale predecessor state;
4. then: a holder that has **already read** the item must be aborted
   (partial-order invalidation); a holder still in validation
   (``R_v`` only) can be salvaged by **re-assignment**.

This module is pure decision logic (easily property-tested); the
scheduler applies the decisions.

One extension beyond the literal figure, documented here because it is
deliberate: when the stale version's author *is the writer itself*
(``V = W``: the writer wrote the item twice), ``path(P, V, W)`` is
false by irreflexivity and Figure 4 would do nothing — leaving the
holder assigned a non-final predecessor version, which breaks the
parent-based property Lemma 4 claims.  We treat ``V = W`` like a stale
author, re-assigning (or aborting) the holder.  The initial version
(author ``t_0``) precedes everything, so it is always stale once a true
predecessor writes.
"""

from __future__ import annotations

import enum
from typing import Protocol


class Order(Protocol):
    """A strict partial order over siblings: the parent's live
    :class:`~repro.protocol.fastpath.ParentIndex`, or a
    :class:`~repro.core.orders.PartialOrder`.  Names outside it precede
    nothing and follow nothing."""

    def precedes(self, before: str, after: str) -> bool: ...


class ReevalDecision(enum.Enum):
    """What Figure 4 does to one lock holder."""

    NONE = "none"
    REASSIGN = "re-assign"
    ABORT = "abort"


def _prefix(name: str) -> str:
    """Figure 4's ``prefix``: the parent part of a dotted name."""
    head, _, __ = name.rpartition(".")
    return head


def figure4_decision(
    writer: str,
    holder: str,
    version_author: str | None,
    parent_order: Order,
    holder_has_read: bool,
) -> ReevalDecision:
    """Decide the fate of one read-side lock holder after a write.

    Parameters
    ----------
    writer:
        ``W`` — the transaction that just wrote the item.
    holder:
        ``R[i]`` — a transaction holding an ``R`` or ``R_v`` lock.
    version_author:
        The author of the version currently assigned to / read by the
        holder for this item (``None`` = the parent's / initial
        version, which every sibling's write supersedes).
    parent_order:
        ``parent(W).P`` over the siblings (``P+``, so ``precedes`` is
        ``path``).
    holder_has_read:
        Has the holder performed the actual read (holds ``R``), or is
        it still in validation (``R_v`` only)?
    """
    if holder == writer:
        return ReevalDecision.NONE
    if _prefix(holder) != _prefix(writer):
        return ReevalDecision.NONE  # not siblings
    if not parent_order.precedes(writer, holder):
        return ReevalDecision.NONE  # writer is not a predecessor
    writer_supersedes = (
        version_author is None
        or version_author == writer
        or parent_order.precedes(version_author, writer)
    )
    if not writer_supersedes:
        return ReevalDecision.NONE
    if holder_has_read:
        return ReevalDecision.ABORT
    return ReevalDecision.REASSIGN
