"""Replay ≡ live over a sample of the fuzz corpus.

Every durable manager the harness opens — primaries, shards, a
post-crash reopen — is shadowed (:mod:`tests.durability.shadow`): after
each step the server drives, the checkpoint it opened on plus every
record appended since, applied to a second ``ProtocolState``, must dump
equal to the live state.
"""

from __future__ import annotations

from repro.durability import DurableTransactionManager
from repro.fuzz.plan import generate_plan
from repro.fuzz.runner import execute_plan

from ..durability.shadow import attach_shadow

SEEDS = range(1, 26)


def test_fuzz_sample_replays_to_the_live_state(monkeypatch):
    shadows = []
    real_open = DurableTransactionManager.open.__func__

    def shadowed_open(cls, wal_dir, *args, **kwargs):
        manager, recovery = real_open(cls, wal_dir, *args, **kwargs)
        shadows.append(attach_shadow(manager, wal_dir))
        return manager, recovery

    monkeypatch.setattr(
        DurableTransactionManager, "open", classmethod(shadowed_open)
    )
    durable = 0
    for seed in SEEDS:
        plan = generate_plan(seed)
        durable += plan.durable
        assert execute_plan(plan).ok, seed
    assert durable >= 10 and len(shadows) >= durable
    assert sum(shadow.steps for shadow in shadows) > 300
