"""Bitmask-encoded D-set index — the validator's live-path fast lane.

:func:`~repro.reference.validation.compute_d_set` is a direct
transliteration of §5.1: for each sibling it scans *every other*
sibling looking for an intervening updater, an O(|siblings|²) rule-3
check per item per validation.  Under the live server a busy parent
accumulates hundreds of children, and profiling shows that generator
expression dominating the whole dispatcher (tens of millions of steps
per loadgen run).

This module re-encodes the per-parent structure the three exclusion
rules consult as machine integers, the same playbook the census fast
path used (stage the structure once, then answer each query with a few
bitwise operations):

* children are interned to bit positions **in creation order**: a new
  child takes the next bit, so the index only ever grows at the top;
* the parent's partial order ``P+`` becomes two arrays of masks —
  ``pred_masks[i]`` / ``succ_masks[i]`` hold the transitive
  predecessors/successors of child ``i`` (aborted children stay in
  the ground set: they still mediate reachability, exactly as the
  object :class:`~repro.core.orders.PartialOrder` closure does);
* each item's updaters become one mask, so rule 3's "some other
  updater lies strictly between ``t_j`` and ``t_i``" collapses to
  ``updaters & succ_masks[j] & pred_masks[i] != 0``.

The rules then read, for transaction ``i`` and item ``d``, with
``updaters`` the *live* children declaring ``d``:

* rule 1+2: candidates = ``updaters & ~succ_masks[i] & ~bit(i)``;
* rule 3: drop candidate ``j`` iff
  ``updaters & succ_masks[j] & pred_masks[i]`` is non-zero — that is,
  drop ``pred_masks[u]`` for every updater ``u`` in ``pred_masks[i]``,
  so nothing is dropped, and nothing looped over, when no updater
  precedes ``i``;
* predecessor rule: ``members & pred_masks[i]``.

Strictness of ``P+`` makes the self-exclusions of the object path
(``other not in (sibling, txn)``) automatic: ``j ∉ succ_masks[j]`` and
``i ∉ pred_masks[i]``.

The index is kept current, never rebuilt:
:class:`~repro.protocol.state.ProtocolState` owns one per parent and
updates it inside its one mutator — :meth:`ParentIndex.add` on DEFINE
(the new child's closure is the union of its neighbours', and its
ancestors and descendants gain it), :meth:`ParentIndex.kill` on ABORT.
:meth:`ParentIndex.build` replays a parent's records through the same
two calls, which is how a recovered, follower or checkpoint-loaded
state gets its index on first use.  A define is cyclic iff the new
child's predecessor closure meets its successor closure
(:meth:`ParentIndex.around`).

Bit order is not name order (``t.10`` sorts before ``t.2``), so the
candidate lists the manager builds follow version creation order, not
the object path's sorted-name order; selection ranks candidates by
value with the sequence number as tie-break, so no assignment depends
on it.  The object path lives in :mod:`repro.reference` as the
differential oracle (``ReferenceTransactionManager`` validates through
it); ``tests/protocol/test_fastpath_validation.py`` holds the two
paths equal on hypothesis-generated and long (past ten children)
histories, and holds the maintained index equal to a rebuild after
every step.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping


class ParentIndex:
    """Integer-encoded §5.1 exclusion rules for one parent's children."""

    __slots__ = (
        "names",
        "ids",
        "pred_masks",
        "succ_masks",
        "live_mask",
        "_updater_masks",
    )

    def __init__(self) -> None:
        #: Bit i ↔ names[i], in creation order.
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.pred_masks: list[int] = []
        self.succ_masks: list[int] = []
        self.live_mask = 0
        # item -> mask of every child declaring it (aborted included;
        # queries intersect with ``live_mask``).
        self._updater_masks: dict[str, int] = {}

    @classmethod
    def build(
        cls,
        children: Iterable[str],
        order_pairs: Iterable[tuple[str, str]],
        update_sets: Mapping[str, frozenset[str]],
        aborted: Iterable[str] = (),
    ) -> "ParentIndex":
        """The index of a parent's records, ``children`` in creation
        order: each child is added with the pairs its DEFINE placed —
        those naming an earlier sibling."""
        children = list(children)
        position = {name: index for index, name in enumerate(children)}
        placed: dict[str, tuple[list[str], list[str]]] = {
            name: ([], []) for name in children
        }
        for before, after in order_pairs:
            if position[before] < position[after]:
                placed[after][0].append(before)
            else:
                placed[before][1].append(after)
        index = cls()
        for name in children:
            predecessors, successors = placed[name]
            index.add(name, update_sets[name], predecessors, successors)
        for name in aborted:
            index.kill(name)
        return index

    # -- maintenance ---------------------------------------------------------

    def _closure(self, names: Iterable[str], masks: list[int]) -> int:
        ids = self.ids
        mask = 0
        for name in names:
            bit_id = ids[name]
            mask |= (1 << bit_id) | masks[bit_id]
        return mask

    def around(
        self, predecessors: Iterable[str], successors: Iterable[str]
    ) -> tuple[int, int]:
        """Masks of the siblings a new child with these neighbours
        would follow and precede (sharing one: the order turns
        cyclic)."""
        return (
            self._closure(predecessors, self.pred_masks),
            self._closure(successors, self.succ_masks),
        )

    def add(
        self,
        name: str,
        update_set: Iterable[str],
        predecessors: Iterable[str] = (),
        successors: Iterable[str] = (),
    ) -> None:
        """Append a new child placed after ``predecessors`` and before
        ``successors`` (existing siblings; the placement is acyclic)."""
        bit_id = len(self.names)
        bit = 1 << bit_id
        pred_masks = self.pred_masks
        succ_masks = self.succ_masks
        above = self._closure(predecessors, pred_masks)
        below = self._closure(successors, succ_masks)
        down = bit | below
        for ancestor in _bits(above):
            succ_masks[ancestor] |= down
        up = bit | above
        for descendant in _bits(below):
            pred_masks[descendant] |= up
        self.names.append(name)
        self.ids[name] = bit_id
        pred_masks.append(above)
        succ_masks.append(below)
        self.live_mask |= bit
        updater_masks = self._updater_masks
        for item in update_set:
            updater_masks[item] = updater_masks.get(item, 0) | bit

    def kill(self, name: str) -> None:
        """An aborted child stops updating (it still orders)."""
        self.live_mask &= ~(1 << self.ids[name])

    # -- queries -----------------------------------------------------------

    def precedes(self, before: str, after: str) -> bool:
        """``(before, after) ∈ P+``; False for names not children."""
        before_id = self.ids.get(before)
        after_id = self.ids.get(after)
        if before_id is None or after_id is None:
            return False
        return bool(self.succ_masks[before_id] >> after_id & 1)

    def updater_mask(self, item: str) -> int:
        """The live children declaring ``item``."""
        return self._updater_masks.get(item, 0) & self.live_mask

    def d_members(self, txn: str, item: str) -> tuple[int, int]:
        """(members, predecessors) masks under the three §5.1 rules."""
        txn_id = self.ids[txn]
        updaters = self.updater_mask(item)
        pred_of_txn = self.pred_masks[txn_id]
        pred_masks = self.pred_masks
        # Rules 1+2 in one expression.
        members = updaters & ~self.succ_masks[txn_id] & ~(1 << txn_id)
        # Rule 3: ``j`` is masked iff it precedes an updater ``u`` that
        # precedes ``txn`` — drop ``pred_masks[u]`` for each such ``u``,
        # skipping every ``u`` an earlier drop already covered (its
        # predecessors are a subset).  No loop at all when no updater
        # precedes ``txn``.
        between = updaters & pred_of_txn
        while between:
            top = between.bit_length() - 1
            below = pred_masks[top]
            members &= ~below
            between &= ~below & ~(1 << top)
        return members, members & pred_of_txn

    def names_from(self, mask: int) -> list[str]:
        """Mask → names, in creation order."""
        names = self.names
        return [names[bit_id] for bit_id in _bits(mask)]

    def describe(self) -> dict[str, Any]:
        """Every mask by name — what two indexes of one parent's
        records must agree on, whatever their bit order."""
        names_from = self.names_from
        updaters = {
            item: frozenset(names_from(mask))
            for item, mask in self._updater_masks.items()
        }
        return {
            "children": frozenset(self.names),
            "pred": {
                name: frozenset(names_from(self.pred_masks[bit_id]))
                for name, bit_id in self.ids.items()
            },
            "succ": {
                name: frozenset(names_from(self.succ_masks[bit_id]))
                for name, bit_id in self.ids.items()
            },
            "live": frozenset(names_from(self.live_mask)),
            "updaters": updaters,
        }


def _bits(mask: int):
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1
