"""Shared fixtures for the durability suite."""

from __future__ import annotations

import pytest

from repro.core.entities import Domain, Entity, Schema
from repro.core.predicates import Predicate
from repro.core.transactions import Spec
from repro.durability import DurableTransactionManager
from repro.protocol.scheduler import Outcome
from repro.storage.database import Database

from .shadow import attach_shadow


def make_database() -> Database:
    schema = Schema(
        [
            Entity("x", Domain(0, 100)),
            Entity("y", Domain(0, 100)),
            Entity("z", Domain(0, 100)),
        ]
    )
    constraint = Predicate.parse("x >= 0 & y >= 0 & z >= 0")
    return Database(schema, constraint, {"x": 5, "y": 5, "z": 5})


def spec(input_text: str = "true", output_text: str = "true") -> Spec:
    return Spec(Predicate.parse(input_text), Predicate.parse(output_text))


def run_leaf(
    manager,
    entity: str,
    value: int,
    *,
    parent: str | None = None,
    commit: bool = True,
) -> str:
    """Define/validate/read/write (and optionally commit) one leaf."""
    name = manager.define(
        parent or manager.root, spec(f"{entity} >= 0"), [entity]
    )
    assert manager.validate(name).outcome is Outcome.OK
    assert manager.read(name, entity).outcome is Outcome.OK
    assert manager.begin_write(name, entity).outcome is Outcome.OK
    assert manager.end_write(name, entity, value).outcome is Outcome.OK
    if commit:
        assert manager.commit(name).outcome is Outcome.OK
    return name


def abort_cascade_session(manager) -> None:
    """One session with every kind of abort decision.

    * A nested parent dies with its children: ``c0`` wrote x, ``c1``
      read c0's x and dies with it, then the parent itself.
    * Under the root, ``author`` wrote y; ``reader`` read it and dies
      with it; ``bystander`` was assigned it without reading, is
      re-selected onto the initial y and commits.
    """
    root = manager.root
    run_leaf(manager, "z", 11)
    nest = manager.define(root, spec(), ["x"])
    assert manager.validate(nest).outcome is Outcome.OK
    c0 = run_leaf(manager, "x", 3, parent=nest, commit=False)
    c1 = manager.define(nest, spec("x >= 0"), [])
    assert manager.validate(c1).outcome is Outcome.OK
    assert manager.read(c1, "x").value == 3
    assert manager.abort(nest) == [c0, c1, nest]

    author = run_leaf(manager, "y", 3, commit=False)
    reader = manager.define(root, spec("y >= 0"), [])
    assert manager.validate(reader).outcome is Outcome.OK
    assert manager.read(reader, "y").value == 3
    bystander = manager.define(root, spec("y >= 0"), [])
    assert manager.validate(bystander).outcome is Outcome.OK
    assert manager.record(bystander).assigned["y"].author == author
    assert manager.abort(author) == [author, reader]
    assert manager.record(bystander).assigned["y"].author is None
    assert manager.read(bystander, "y").value == 5
    assert manager.commit(bystander).outcome is Outcome.OK
    run_leaf(manager, "z", 22, commit=False)  # caught in flight


@pytest.fixture
def wal_dir(tmp_path):
    return tmp_path / "wal"


@pytest.fixture
def fresh_manager(wal_dir):
    """A fresh durable manager with replay ≡ live checked after every
    step (see :mod:`tests.durability.shadow`)."""
    manager, recovery = DurableTransactionManager.open(
        wal_dir, make_database
    )
    assert recovery is None
    attach_shadow(manager, wal_dir)
    yield manager
    if manager.wal is not None and not manager.wal.closed:
        manager.close()
