"""Shared fixtures for the test suite."""

from __future__ import annotations

import asyncio
import gc
import tempfile
import warnings
from contextlib import contextmanager

import pytest

from repro.core import (
    DatabaseState,
    Domain,
    Predicate,
    Schema,
    Spec,
    UniqueState,
)
from repro.storage import Database


@pytest.fixture
def xy_schema() -> Schema:
    """Two boolean entities x, y."""
    return Schema.of("x", "y")


@pytest.fixture
def xyz_schema() -> Schema:
    """Three integer entities with domain [0, 100]."""
    return Schema.of("x", "y", "z", domain=Domain.interval(0, 100))


@pytest.fixture
def two_state(xy_schema: Schema) -> DatabaseState:
    """Lemma 1's two-state database: all-zeros and all-ones."""
    zero = UniqueState(xy_schema, {"x": 0, "y": 0})
    one = UniqueState(xy_schema, {"x": 1, "y": 1})
    return DatabaseState([zero, one])


@pytest.fixture
def simple_db(xyz_schema: Schema) -> Database:
    """A small consistent database: x, y, z ≥ 0, initial (10, 20, 30)."""
    return Database(
        xyz_schema,
        Predicate.parse("x >= 0 & y >= 0 & z >= 0"),
        {"x": 10, "y": 20, "z": 30},
    )


@pytest.fixture
def trivial_spec() -> Spec:
    return Spec.trivial()


# -- deterministic-harness fixtures (tests/fuzz, tests/des) ----------------


@pytest.fixture
def scratch(tmp_path, monkeypatch):
    """Route ``tempfile.mkdtemp`` under ``tmp_path`` so leaks show."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    return tmp_path


@pytest.fixture
def no_unclosed_loops():
    """``with no_unclosed_loops():`` fails if a loop is dropped open."""

    @contextmanager
    def check():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            yield
            gc.collect()  # an unclosed loop warns from __del__
        assert not [
            str(w.message)
            for w in caught
            if "unclosed event loop" in str(w.message)
        ]

    return check


@pytest.fixture
def lose_first_commit_reply(monkeypatch):
    """The server "forgets" one reply: a future nobody resolves."""
    from repro.server.session import CommandDispatcher

    real_submit = CommandDispatcher.submit
    lost = []

    def submit(self, session, request):
        if request.op == "commit" and not lost:
            lost.append(request)
            return asyncio.get_running_loop().create_future()
        return real_submit(self, session, request)

    monkeypatch.setattr(CommandDispatcher, "submit", submit)
    return lost
