"""The discrete-event simulation engine.

Drives a set of :class:`~repro.workload.TransactionScript` against
one :class:`~repro.baselines.base.ConcurrencyControl` implementation in
virtual time, producing :class:`~repro.sim.metrics.RunMetrics`.

Execution model per transaction instance:

* ``begin`` at arrival (Section-5 validation happens here for the
  protocol adapter); a blocked begin parks the transaction;
* steps run in order: ``Think`` advances the clock; ``Read``/``Write``
  call the scheduler; ``Write`` occupies ``duration`` time units — via
  split begin/end when the scheduler supports it (the protocol's short
  ``W``-lock window), atomically-then-delay otherwise;
* a ``BLOCKED`` result parks the instance; it resumes (re-executing the
  same step) when a later result's ``unblocked`` list names it, and the
  park time is accounted as wait;
* an ``ABORTED`` result (or appearing in a result's ``aborted`` list)
  restarts the script after a backoff, under a fresh instance identity;
  the time since the instance began is accounted as wasted work;
* after ``max_restarts`` the transaction gives up (recorded, so
  livelock shows up as data instead of hanging the simulation).

Determinism: one seeded RNG drives backoff jitter; events tie-break
FIFO; schedulers are driven single-threaded.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field

from ..baselines.base import AccessResult, AccessStatus, ConcurrencyControl
from ..baselines.korth_speegle import KorthSpeegleScheduler
from ..errors import SimulationError
from ..obs.trace import NULL_TRACER, Tracer
from ..workload import (
    Read,
    Think,
    TransactionScript,
    Unordered,
    Workload,
    Write,
)
from .clock import EventQueue
from .metrics import RunMetrics


class _State(enum.Enum):
    NEW = "new"
    RUNNING = "running"
    PARKED = "parked"
    DONE = "done"
    FAILED = "failed"


@dataclass
class _Instance:
    """One attempt at running a script."""

    script: TransactionScript
    attempt: int
    engine_id: str
    epoch: int = 0
    cursor: int = -1  # -1 = begin pending; len(steps) = commit pending
    state: _State = _State.NEW
    begun: bool = False
    started_at: float = 0.0
    parked_since: float | None = None
    values_read: dict[str, int] = field(default_factory=dict)
    write_in_flight: tuple[str, int] | None = None
    # ≺SR support: members of the current Unordered group not yet done,
    # and the group member whose split write is in flight.
    group_remaining: list | None = None
    group_write: object | None = None
    # Set when an unblock notification arrives while the instance is
    # still inside the very step that blocked (e.g. a deadlock victim's
    # release re-granted our own queued request): the next _park
    # becomes an immediate retry instead.
    pending_unblock: bool = False
    # Open trace spans: the attempt's lifecycle span and, while
    # parked, the current wait span.
    txn_span: object | None = None
    wait_span: object | None = None


@dataclass(frozen=True)
class _Advance:
    txn: str
    epoch: int


@dataclass(frozen=True)
class _FinishWrite:
    txn: str
    epoch: int


class SimulationEngine:
    """Run one workload against one scheduler in virtual time."""

    def __init__(
        self,
        scheduler: ConcurrencyControl,
        workload: Workload,
        restart_backoff: float = 5.0,
        max_restarts: int = 40,
        max_events: int = 500_000,
        read_duration: float = 0.0,
        seed: int = 0,
        tracer: Tracer | None = None,
    ) -> None:
        self._scheduler = scheduler
        self._workload = workload
        self._backoff = restart_backoff
        self._max_restarts = max_restarts
        self._max_events = max_events
        self._read_duration = read_duration
        self._rng = random.Random(seed)
        self._queue = EventQueue()
        self._instances: dict[str, _Instance] = {}
        self._current: dict[str, _Instance] = {}  # base id -> live instance
        self._metrics = RunMetrics(
            scheduler=scheduler.name, workload=workload.name
        )
        self._tracer = tracer if tracer is not None else NULL_TRACER
        # Trace timestamps are virtual time, not wall time.
        self._tracer.set_clock(lambda: self._queue.now)

    @property
    def metrics(self) -> RunMetrics:
        """The run's metrics (registry included), live during the run."""
        return self._metrics

    # -- public API -----------------------------------------------------------

    def run(self) -> RunMetrics:
        for script in self._workload.scripts:
            self._metrics.txn(script.txn_id).arrival = script.arrival
            self._spawn(script, attempt=0, at=script.arrival)
        processed = 0
        while self._queue:
            event = self._queue.pop()
            assert event is not None
            processed += 1
            if processed > self._max_events:
                raise SimulationError(
                    f"event budget exhausted ({self._max_events}); "
                    "likely livelock"
                )
            self._dispatch(event.payload)
        self._metrics.makespan = self._queue.now
        self._metrics.events_processed = processed
        return self._metrics

    # -- spawning & restarting ----------------------------------------------------

    def _spawn(
        self, script: TransactionScript, attempt: int, at: float
    ) -> None:
        engine_id = (
            script.txn_id if attempt == 0 else f"{script.txn_id}#{attempt}"
        )
        instance = _Instance(script, attempt, engine_id)
        self._instances[engine_id] = instance
        self._current[script.txn_id] = instance
        self._queue.schedule_at(
            at, _Advance(engine_id, instance.epoch)
        )

    def _restart(self, instance: _Instance, reason: str | None) -> None:
        now = self._queue.now
        wasted = (
            max(0.0, now - instance.started_at) if instance.begun else 0.0
        )
        self._metrics.record_restart(instance.script.txn_id, wasted)
        tracer = self._tracer
        if tracer.enabled:
            tracer.end(instance.wait_span)
            instance.wait_span = None
            tracer.event(
                "restart",
                instance.engine_id,
                reason=reason or "restart",
                wasted=wasted,
            )
            tracer.end(
                instance.txn_span, outcome="restart", reason=reason
            )
            instance.txn_span = None
        instance.state = _State.FAILED
        instance.epoch += 1  # invalidate in-flight events
        result = self._scheduler.abort(
            instance.engine_id, reason or "restart"
        )
        if instance.attempt + 1 > self._max_restarts:
            self._metrics.record_gave_up(instance.script.txn_id)
            if tracer.enabled:
                tracer.event(
                    "give-up",
                    instance.engine_id,
                    attempts=instance.attempt + 1,
                )
        else:
            backoff = self._backoff * (1.0 + self._rng.random())
            self._spawn(
                instance.script, instance.attempt + 1, now + backoff
            )
        # The abort may have cascaded to other transactions (readers of
        # our versions) and released waiters — propagate, or their
        # engine instances stay parked forever.
        self._handle_side_effects(result)

    # -- event dispatch ---------------------------------------------------------------

    def _dispatch(self, payload: object) -> None:
        if isinstance(payload, _Advance):
            instance = self._instances.get(payload.txn)
            if instance is None or instance.epoch != payload.epoch:
                return
            if instance.state in (_State.DONE, _State.FAILED):
                return
            self._advance(instance)
        elif isinstance(payload, _FinishWrite):
            instance = self._instances.get(payload.txn)
            if instance is None or instance.epoch != payload.epoch:
                return
            self._finish_write(instance)
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unknown event payload {payload!r}")

    def _advance(self, instance: _Instance) -> None:
        instance.state = _State.RUNNING
        if not instance.begun:
            self._do_begin(instance)
            return
        steps = instance.script.steps
        if instance.cursor >= len(steps):
            self._do_commit(instance)
            return
        step = steps[instance.cursor]
        if isinstance(step, Think):
            instance.cursor += 1
            self._queue.schedule(
                step.duration, _Advance(instance.engine_id, instance.epoch)
            )
        elif isinstance(step, Read):
            self._do_read(instance, step)
        elif isinstance(step, Write):
            self._do_write(instance, step)
        elif isinstance(step, Unordered):
            self._do_group(instance, step)
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unknown step {step!r}")

    # -- step handlers ---------------------------------------------------------------

    def _do_begin(self, instance: _Instance) -> None:
        plan = _plan_of(instance.script)
        scheduler = self._scheduler
        if self._tracer.enabled and instance.txn_span is None:
            instance.txn_span = self._tracer.start(
                "txn",
                instance.engine_id,
                base=instance.script.txn_id,
                attempt=instance.attempt,
            )
            self._tracer.event(
                "arrive",
                instance.engine_id,
                attempt=instance.attempt,
            )
        if isinstance(scheduler, KorthSpeegleScheduler):
            predecessors = tuple(
                self._current[base].engine_id
                for base in instance.script.predecessors
                if base in self._current
            )
            result = scheduler.begin(
                instance.engine_id, plan, predecessors=predecessors
            )
        else:
            result = scheduler.begin(instance.engine_id, plan)
        instance.started_at = self._queue.now
        if result.status is AccessStatus.OK:
            instance.begun = True
            instance.cursor = 0
            self._queue.schedule(
                0.0, _Advance(instance.engine_id, instance.epoch)
            )
        elif result.status is AccessStatus.BLOCKED:
            self._park(instance, result.blocked_on)
        else:
            self._restart(instance, result.reason)
        self._handle_side_effects(result)

    def _do_read(self, instance: _Instance, step: Read) -> None:
        result = self._scheduler.read(instance.engine_id, step.entity)
        if result.status is AccessStatus.OK:
            if result.value is not None:
                instance.values_read[step.entity] = result.value
            instance.cursor += 1
            self._queue.schedule(
                self._read_duration,
                _Advance(instance.engine_id, instance.epoch),
            )
        elif result.status is AccessStatus.BLOCKED:
            self._park(instance, result.blocked_on)
        else:
            self._restart(instance, result.reason)
        self._handle_side_effects(result)

    def _do_write(self, instance: _Instance, step: Write) -> None:
        value = step.resolve(instance.values_read)
        if self._scheduler.supports_split_writes():
            result = self._scheduler.write_begin(
                instance.engine_id, step.entity
            )
            if result.status is AccessStatus.OK:
                instance.write_in_flight = (step.entity, value)
                self._queue.schedule(
                    step.duration,
                    _FinishWrite(instance.engine_id, instance.epoch),
                )
            elif result.status is AccessStatus.BLOCKED:
                self._park(instance, result.blocked_on)
            else:
                self._restart(instance, result.reason)
            self._handle_side_effects(result)
            return
        result = self._scheduler.write(
            instance.engine_id, step.entity, value
        )
        if result.status is AccessStatus.OK:
            instance.cursor += 1
            self._queue.schedule(
                step.duration, _Advance(instance.engine_id, instance.epoch)
            )
        elif result.status is AccessStatus.BLOCKED:
            self._park(instance, result.blocked_on)
        else:
            self._restart(instance, result.reason)
        self._handle_side_effects(result)

    def _finish_write(self, instance: _Instance) -> None:
        assert instance.write_in_flight is not None
        entity, value = instance.write_in_flight
        instance.write_in_flight = None
        result = self._scheduler.write_end(
            instance.engine_id, entity, value
        )
        if result.status is AccessStatus.OK:
            if instance.group_remaining is not None:
                self._group_member_done(instance, delay=0.0)
            else:
                instance.cursor += 1
                self._queue.schedule(
                    0.0, _Advance(instance.engine_id, instance.epoch)
                )
        elif result.status is AccessStatus.ABORTED:
            self._restart(instance, result.reason)
        self._handle_side_effects(result)

    # -- unordered groups (≺SR) --------------------------------------------------

    def _group_member_done(self, instance: _Instance, delay: float) -> None:
        """One group member completed; advance within or past the group."""
        assert instance.group_remaining is not None
        if instance.group_write is not None:
            instance.group_remaining.remove(instance.group_write)
            instance.group_write = None
        if not instance.group_remaining:
            instance.group_remaining = None
            instance.cursor += 1
        self._queue.schedule(
            delay, _Advance(instance.engine_id, instance.epoch)
        )

    def _do_group(self, instance: _Instance, step: Unordered) -> None:
        """Try the group's members until one proceeds (§4.2's ≺SR gain).

        A blocked member's request stays queued with the scheduler
        (granting it early is harmless — the transaction will use the
        entity eventually); the instance parks only when *every*
        remaining member is blocked.
        """
        if instance.group_remaining is None:
            instance.group_remaining = list(step.steps)
        for access in list(instance.group_remaining):
            if isinstance(access, Read):
                result = self._scheduler.read(
                    instance.engine_id, access.entity
                )
                if result.status is AccessStatus.OK:
                    if result.value is not None:
                        instance.values_read[access.entity] = result.value
                    instance.group_write = access
                    self._group_member_done(
                        instance, delay=self._read_duration
                    )
                    self._handle_side_effects(result)
                    return
            else:
                assert isinstance(access, Write)
                value = access.resolve(instance.values_read)
                if self._scheduler.supports_split_writes():
                    result = self._scheduler.write_begin(
                        instance.engine_id, access.entity
                    )
                    if result.status is AccessStatus.OK:
                        instance.write_in_flight = (access.entity, value)
                        instance.group_write = access
                        self._queue.schedule(
                            access.duration,
                            _FinishWrite(
                                instance.engine_id, instance.epoch
                            ),
                        )
                        self._handle_side_effects(result)
                        return
                else:
                    result = self._scheduler.write(
                        instance.engine_id, access.entity, value
                    )
                    if result.status is AccessStatus.OK:
                        instance.group_write = access
                        self._group_member_done(
                            instance, delay=access.duration
                        )
                        self._handle_side_effects(result)
                        return
            if result.status is AccessStatus.ABORTED:
                self._restart(instance, result.reason)
                self._handle_side_effects(result)
                return
            self._handle_side_effects(result)  # blocked: try the next
        self._park(instance)  # every remaining member is blocked

    def _do_commit(self, instance: _Instance) -> None:
        result = self._scheduler.commit(instance.engine_id)
        if result.status is AccessStatus.OK:
            instance.state = _State.DONE
            self._metrics.record_commit(
                instance.script.txn_id, self._queue.now
            )
            if instance.txn_span is not None:
                self._tracer.end(instance.txn_span, outcome="committed")
                instance.txn_span = None
        elif result.status is AccessStatus.BLOCKED:
            self._park(instance, result.blocked_on)
        else:
            self._restart(instance, result.reason)
        self._handle_side_effects(result)

    # -- parking & side effects ------------------------------------------------------

    def _park(
        self, instance: _Instance, blocked_on: str | None = None
    ) -> None:
        self._metrics.record_wait(instance.script.txn_id)
        if instance.pending_unblock:
            # The unblock already happened mid-step: retry immediately.
            instance.pending_unblock = False
            instance.state = _State.RUNNING
            self._queue.schedule(
                0.0, _Advance(instance.engine_id, instance.epoch)
            )
            return
        instance.state = _State.PARKED
        instance.parked_since = self._queue.now
        if self._tracer.enabled:
            attrs = {} if blocked_on is None else {"entity": blocked_on}
            instance.wait_span = self._tracer.start(
                "wait", instance.engine_id, **attrs
            )

    def _unpark(self, engine_id: str) -> None:
        instance = self._instances.get(engine_id)
        if instance is None:
            return
        if instance.state is _State.RUNNING:
            instance.pending_unblock = True
            return
        if instance.state is not _State.PARKED:
            return
        now = self._queue.now
        if instance.parked_since is not None:
            self._metrics.record_wait_time(
                instance.script.txn_id,
                max(0.0, now - instance.parked_since),
            )
        instance.parked_since = None
        if instance.wait_span is not None:
            self._tracer.end(instance.wait_span)
            instance.wait_span = None
        instance.state = _State.RUNNING
        self._queue.schedule(
            0.0, _Advance(instance.engine_id, instance.epoch)
        )

    def _handle_side_effects(self, result: AccessResult) -> None:
        for victim in result.aborted:
            instance = self._instances.get(victim)
            if instance is None or instance.state in (
                _State.DONE,
                _State.FAILED,
            ):
                continue
            if instance.state is _State.PARKED and (
                instance.parked_since is not None
            ):
                self._metrics.record_wait_time(
                    instance.script.txn_id,
                    max(0.0, self._queue.now - instance.parked_since),
                )
            self._restart(instance, "aborted by scheduler")
        for engine_id in result.unblocked:
            self._unpark(engine_id)


def _plan_of(script: TransactionScript):
    from ..baselines.base import PlannedAccess

    plan = []
    for step in script.flat_accesses():
        if isinstance(step, Read):
            plan.append(PlannedAccess("read", step.entity))
        else:
            plan.append(PlannedAccess("write", step.entity))
    return plan
