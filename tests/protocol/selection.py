"""Selection strategies that §5.1 part 2 tests run side by side.

Each strategy has :func:`~repro.protocol.validation.select_versions`'s
signature.  The production search is the only one the manager uses; the
other two are test oracles.  Case ids keep the names of the selector
classes the strategies used to be.
"""

from __future__ import annotations

import pytest

from repro.protocol import select_versions
from repro.reference import select_versions_dpll


def latest_first(d_sets, constraint, pinned=None):
    """Try the one all-latest assignment (pinned items fixed), and fall
    back to the exact search only when it fails ``constraint``."""
    pinned = pinned or {}
    probe = {
        item: pinned[item]
        if item in pinned
        else max(d_set.candidates, key=lambda version: version.sequence)
        for item, d_set in d_sets.items()
    }
    values = {item: version.value for item, version in probe.items()}
    if all(
        name in values for name in constraint.entities()
    ) and constraint.evaluate(values):
        return probe
    return select_versions(d_sets, constraint, pinned)


STRATEGIES = [
    pytest.param(select_versions, id="BacktrackingSelector"),
    pytest.param(select_versions_dpll, id="SatSelector"),
    pytest.param(latest_first, id="GreedyLatestSelector"),
]
