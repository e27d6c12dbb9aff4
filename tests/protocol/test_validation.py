"""Tests for the validation phase: D-sets and version selection.

The D-set rules are checked on the rule-by-rule transcription in
:mod:`repro.reference`; the production selector is checked against the
reference DPLL selector and an all-latest probe.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PartialOrder, Predicate
from repro.protocol import DSet, select_versions
from repro.reference import compute_d_set, select_versions_dpll
from repro.storage.version_store import Version

from .selection import STRATEGIES


def _version(entity, value, author, seq):
    return Version(entity, value, author, seq)


PARENT_X = _version("x", 10, None, 0)


class TestDSetRules:
    def _order(self, pairs):
        return PartialOrder(["a", "b", "c", "t"], pairs)

    def test_rule1_successors_excluded(self):
        d_set = compute_d_set(
            "x",
            "t",
            ["a"],
            self._order([("t", "a")]),  # a succeeds t
            {"a": frozenset({"x"})},
            {"a": (_version("x", 5, "a", 1),)},
            PARENT_X,
        )
        assert d_set.members == frozenset()
        # Falls back to the parent's version.
        assert d_set.used_parent_version

    def test_rule2_non_updaters_excluded(self):
        d_set = compute_d_set(
            "x",
            "t",
            ["a"],
            self._order([]),
            {"a": frozenset({"y"})},  # a does not update x
            {"a": ()},
            PARENT_X,
        )
        assert d_set.members == frozenset()

    def test_rule3_intervening_updater_excludes(self):
        # a < b < t, both update x: a is masked by b.
        d_set = compute_d_set(
            "x",
            "t",
            ["a", "b"],
            self._order([("a", "b"), ("b", "t")]),
            {"a": frozenset({"x"}), "b": frozenset({"x"})},
            {
                "a": (_version("x", 5, "a", 1),),
                "b": (_version("x", 6, "b", 2),),
            },
            PARENT_X,
        )
        assert d_set.members == {"b"}

    def test_incomparable_siblings_included(self):
        d_set = compute_d_set(
            "x",
            "t",
            ["a", "b"],
            self._order([]),
            {"a": frozenset({"x"}), "b": frozenset({"x"})},
            {
                "a": (_version("x", 5, "a", 1),),
                "b": (_version("x", 6, "b", 2),),
            },
            PARENT_X,
        )
        assert d_set.members == {"a", "b"}
        # Parent version also allowed when no predecessor is in D.
        assert d_set.used_parent_version
        assert {v.value for v in d_set.candidates} == {5, 6, 10}

    def test_predecessor_restricts_to_its_versions(self):
        d_set = compute_d_set(
            "x",
            "t",
            ["a", "b"],
            self._order([("a", "t")]),  # a precedes t; b incomparable
            {"a": frozenset({"x"}), "b": frozenset({"x"})},
            {
                "a": (_version("x", 5, "a", 1),),
                "b": (_version("x", 6, "b", 2),),
            },
            PARENT_X,
        )
        assert d_set.predecessors == {"a"}
        assert {v.value for v in d_set.candidates} == {5}
        assert not d_set.used_parent_version

    def test_optimistic_unwritten_predecessor_falls_back_to_parent(self):
        # The predecessor has not yet written x: the protocol
        # optimistically hands out the parent's version (re-eval will
        # repair it later).
        d_set = compute_d_set(
            "x",
            "t",
            ["a"],
            self._order([("a", "t")]),
            {"a": frozenset({"x"})},
            {"a": ()},
            PARENT_X,
        )
        assert d_set.predecessors == {"a"}
        assert [v.value for v in d_set.candidates] == [10]
        assert d_set.used_parent_version


def _both(d_sets, constraint, pinned=None):
    """Production and reference DPLL selection on the same problem."""
    return [
        select(d_sets, constraint, pinned)
        for select in (select_versions, select_versions_dpll)
    ]


class TestSelectors:
    def _d_sets(self):
        return {
            "x": DSet(
                "x",
                frozenset(),
                frozenset(),
                (
                    _version("x", 1, "a", 1),
                    _version("x", 5, "b", 2),
                ),
                True,
            ),
            "y": DSet(
                "y",
                frozenset(),
                frozenset(),
                (
                    _version("y", 2, "a", 3),
                    _version("y", 9, "b", 4),
                ),
                True,
            ),
        }

    @pytest.mark.parametrize("select", STRATEGIES)
    def test_selectors_find_satisfying_versions(self, select):
        # y < 5 needs the older y: the all-latest choice fails.
        chosen = select(self._d_sets(), Predicate.parse("x > 2 & y < 5"))
        assert chosen is not None
        assert chosen["x"].value == 5
        assert chosen["y"].value == 2

    @pytest.mark.parametrize("select", STRATEGIES)
    def test_selectors_report_infeasible(self, select):
        assert select(self._d_sets(), Predicate.parse("x > 99")) is None

    @pytest.mark.parametrize("select", STRATEGIES)
    def test_pinning_forces_versions(self, select):
        pinned_version = _version("x", 7, "c", 9)
        chosen = select(
            self._d_sets(),
            Predicate.parse("x > 2"),
            pinned={"x": pinned_version},
        )
        assert chosen is not None
        assert chosen["x"] is pinned_version

    def test_pinning_can_make_infeasible(self):
        pinned_version = _version("x", 0, "c", 9)
        assert (
            select_versions(
                self._d_sets(),
                Predicate.parse("x > 2"),
                pinned={"x": pinned_version},
            )
            is None
        )

    def test_value_tie_prefers_newest_version(self):
        d_sets = {
            "x": DSet(
                "x",
                frozenset(),
                frozenset(),
                (
                    _version("x", 5, "old", 1),
                    _version("x", 5, "new", 2),
                ),
                False,
            )
        }
        chosen = select_versions(d_sets, Predicate.parse("x = 5"))
        assert chosen["x"].author == "new"


_ITEMS = ("x", "y", "z")
_COMPARATORS = ("=", "!=", "<", "<=", ">", ">=")


@st.composite
def _selection_problems(draw):
    """Random D-sets over 1–3 items, a CNF constraint over them (atoms
    compare an item with a constant or another item), and at most one
    pinned item."""
    items = _ITEMS[: draw(st.integers(1, 3))]
    sequence = itertools.count(1)
    d_sets = {}
    for item in items:
        values = draw(st.lists(st.integers(0, 6), min_size=1, max_size=4))
        d_sets[item] = DSet(
            item,
            frozenset(),
            frozenset(),
            tuple(
                _version(item, value, f"a{index}", next(sequence))
                for index, value in enumerate(values)
            ),
            True,
        )

    def atom() -> str:
        left = draw(st.sampled_from(items))
        others = [item for item in items if item != left]
        right = draw(
            st.one_of(
                st.integers(0, 6).map(str),
                *([st.sampled_from(others)] if others else []),
            )
        )
        return f"{left} {draw(st.sampled_from(_COMPARATORS))} {right}"

    clauses = [
        " | ".join(atom() for _ in range(draw(st.integers(1, 2))))
        for _ in range(draw(st.integers(1, 3)))
    ]
    constraint = Predicate.parse(" & ".join(f"({c})" for c in clauses))
    pinned = None
    if draw(st.booleans()):
        item = draw(st.sampled_from(items))
        pinned = {item: _version(item, draw(st.integers(0, 6)), "p", 99)}
    return d_sets, constraint, pinned


@settings(max_examples=150, deadline=None)
@given(_selection_problems())
def test_production_and_dpll_agree_on_feasibility(problem):
    d_sets, constraint, pinned = problem
    results = _both(d_sets, constraint, pinned)
    assert len({chosen is None for chosen in results}) == 1
    for chosen in results:
        if chosen is None:
            continue
        assert set(chosen) == set(d_sets)
        for item, version in chosen.items():
            if pinned and item in pinned:
                assert version is pinned[item]
            else:
                assert version in d_sets[item].candidates
        assert constraint.evaluate(
            {item: version.value for item, version in chosen.items()}
        )
