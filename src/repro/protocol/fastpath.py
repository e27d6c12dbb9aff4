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

* children are interned to bit positions **in sorted-name order**, so
  iterating a mask from the low bit up reproduces exactly the
  ``sorted(...)`` traversal the object path uses to build candidate
  lists;
* the parent's partial order ``P+`` becomes two arrays of masks —
  ``pred_masks[i]`` / ``succ_masks[i]`` hold the transitive
  predecessors/successors of child ``i`` — built by one topological
  DP over the covering pairs (aborted children stay in the ground set:
  they still mediate reachability, exactly as the object
  :class:`~repro.core.orders.PartialOrder` closure does);
* each item's *live updaters* become one mask, so rule 3's
  "some other updater lies strictly between ``t_j`` and ``t_i``"
  collapses to ``updaters & succ_masks[j] & pred_masks[i] != 0``.

The rules then read, for transaction ``i`` and item ``d``:

* rule 1+2: candidates = ``updaters(d) & ~succ_masks[i] & ~bit(i)``;
* rule 3: drop candidate ``j`` iff
  ``updaters(d) & succ_masks[j] & pred_masks[i]`` is non-zero;
* predecessor rule: ``members & pred_masks[i]``.

Strictness of ``P+`` makes the self-exclusions of the object path
(``other not in (sibling, txn)``) automatic: ``j ∉ succ_masks[j]`` and
``i ∉ pred_masks[i]``.

The index is a pure function of the parent's children, order pairs,
update sets, and the aborted subset — the transaction manager caches
one per parent and invalidates by a structure epoch bumped on define
and abort.  The object path lives in :mod:`repro.reference` as the
differential oracle (``ReferenceTransactionManager`` validates through
it); ``tests/protocol/test_fastpath_validation.py`` holds the two
paths equal on hypothesis-generated histories.
"""

from __future__ import annotations

from typing import Iterable, Mapping


class ParentIndex:
    """Integer-encoded §5.1 exclusion rules for one parent's children."""

    __slots__ = (
        "names",
        "ids",
        "pred_masks",
        "succ_masks",
        "live_mask",
        "_update_sets",
        "_updater_masks",
    )

    def __init__(
        self,
        children: Iterable[str],
        order_pairs: Iterable[tuple[str, str]],
        update_sets: Mapping[str, frozenset[str]],
        aborted: Iterable[str] = (),
    ) -> None:
        # Bit i ↔ names[i]; sorted so low-to-high bit iteration is
        # exactly the object path's sorted-name traversal.
        self.names: list[str] = sorted(children)
        self.ids: dict[str, int] = {
            name: index for index, name in enumerate(self.names)
        }
        count = len(self.names)
        succ_adj = [0] * count
        pred_adj = [0] * count
        for before, after in order_pairs:
            succ_adj[self.ids[before]] |= 1 << self.ids[after]
            pred_adj[self.ids[after]] |= 1 << self.ids[before]

        # Kahn topological order over the (acyclic — define() checked)
        # covering pairs, then one DP pass per direction turns the
        # immediate adjacency into transitive reachability masks.
        indegree = [_popcount(pred_adj[i]) for i in range(count)]
        topo: list[int] = [i for i in range(count) if indegree[i] == 0]
        cursor = 0
        while cursor < len(topo):
            node = topo[cursor]
            cursor += 1
            for succ in _bits(succ_adj[node]):
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    topo.append(succ)

        pred_masks = [0] * count
        for node in topo:
            mask = 0
            for pred in _bits(pred_adj[node]):
                mask |= (1 << pred) | pred_masks[pred]
            pred_masks[node] = mask
        succ_masks = [0] * count
        for node in reversed(topo):
            mask = 0
            for succ in _bits(succ_adj[node]):
                mask |= (1 << succ) | succ_masks[succ]
            succ_masks[node] = mask
        self.pred_masks = pred_masks
        self.succ_masks = succ_masks

        live = (1 << count) - 1 if count else 0
        for name in aborted:
            live &= ~(1 << self.ids[name])
        self.live_mask = live
        self._update_sets = update_sets
        # item -> mask of *live* children declaring it, built lazily.
        self._updater_masks: dict[str, int] = {}

    # -- queries -----------------------------------------------------------

    def updater_mask(self, item: str) -> int:
        mask = self._updater_masks.get(item)
        if mask is None:
            mask = 0
            ids = self.ids
            for name, updates in self._update_sets.items():
                if item in updates:
                    mask |= 1 << ids[name]
            mask &= self.live_mask
            self._updater_masks[item] = mask
        return mask

    def d_members(self, txn: str, item: str) -> tuple[int, int]:
        """(members, predecessors) masks under the three §5.1 rules."""
        txn_id = self.ids[txn]
        updaters = self.updater_mask(item)
        pred_of_txn = self.pred_masks[txn_id]
        succ_masks = self.succ_masks
        # Rules 1+2 in one expression; rule 3 per surviving bit.
        remaining = updaters & ~succ_masks[txn_id] & ~(1 << txn_id)
        members = 0
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            sibling_id = low.bit_length() - 1
            if not (updaters & succ_masks[sibling_id] & pred_of_txn):
                members |= low
        return members, members & pred_of_txn

    def names_from(self, mask: int) -> list[str]:
        """Mask → names, ascending bit order == sorted-name order."""
        names = self.names
        out: list[str] = []
        while mask:
            low = mask & -mask
            mask ^= low
            out.append(names[low.bit_length() - 1])
        return out

    def predecessor_names(self, txn: str) -> list[str]:
        """All strict ``P+`` predecessors (aborted included), sorted."""
        return self.names_from(self.pred_masks[self.ids[txn]])


def _popcount(mask: int) -> int:
    return bin(mask).count("1")


def _bits(mask: int):
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1
