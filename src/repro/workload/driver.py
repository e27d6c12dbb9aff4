"""The closed-loop driver: generator scripts over live connections.

Where :mod:`repro.sim` runs generator scripts in *virtual* time
in-process, this driver runs the same scripts (converted once by
:meth:`~repro.workload.TransactionScript.to_txn`) over N concurrent
connections to a running ``repro serve``, measuring wall-clock
throughput, request-latency percentiles, aborts and restarts
(``BENCH_server.json``).

Each connection runs its share of the scripts (round-robin) one at a
time — define, validate, reads and writes, commit — and starts the
next only when the previous one has ended: a *closed* loop.  Nothing
is defined ahead of the timed window, so ``define`` is part of every
measured transaction and the server's live set is the connection
count, whatever the script count.

* ``sleep`` ops (the scripts' think time) sleep ``duration *
  think_scale`` seconds (0 by default: saturate the server); with a
  positive scale a write holds its ``W`` lock for its own duration via
  ``begin_write`` / ``end_write``;
* partial-order predecessors are declared at define time, naming the
  predecessor script's current transaction if it has been defined by
  then, so commits park server-side until the predecessor commits —
  cooperation edges exercise the commit-waiter path over the wire;
* an abort (cascade, failed validation, request timeout, unsatisfied
  output condition) restarts the script under a fresh transaction, up
  to ``max_restarts`` times, with jittered backoff;
* ``BUSY`` responses (server backpressure) back off and retry the same
  request.

The driver counts **wire faults** (``MALFORMED`` / ``UNKNOWN_OP`` /
``INTERNAL`` responses) separately from expected application outcomes;
a healthy run has zero, and the CLI exits non-zero otherwise (the CI
smoke test's assertion).
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import Any

from ..obs.metrics import Histogram
from ..server.clock import CLOCK
from ..server.client import AsyncClient
from ..server.errors import (
    WIRE_FAULT_CODES,
    BusyError,
    ErrorCode,
    RemoteAborted,
    RemoteProtocolError,
    RequestTimeout,
    ServerError,
)
from .model import Txn, Workload

#: Mean backoff, in seconds, after a BUSY reply or a failed attempt
#: (each wait is jittered to 0.5x..1.5x).
BACKOFF_S = 0.05

_ABORTS = (RemoteAborted, RequestTimeout, RemoteProtocolError)


@dataclass
class LoadgenReport:
    """Everything one driver run measured."""

    workload: str
    clients: int
    scripts: int
    key_dist: str = "uniform"
    wall_time: float = 0.0
    committed: int = 0
    aborted: int = 0  # transaction instances that ended aborted
    restarts: int = 0
    gave_up: int = 0
    disconnects: int = 0  # connections the server dropped mid-run
    requests: int = 0
    busy_retries: int = 0
    timeouts: int = 0
    aborted_by_server: int = 0
    abort_notifications: int = 0
    protocol_rejections: int = 0
    protocol_errors: int = 0  # wire faults; must be zero
    latency: Histogram = field(
        default_factory=lambda: Histogram("request_latency")
    )
    server_stats: dict[str, Any] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        if self.wall_time <= 0:
            return 0.0
        return self.committed / self.wall_time

    def to_json(self) -> dict[str, Any]:
        latency_ms = {
            key: round(value * 1000.0, 3)
            for key, value in self.latency.summary().items()
            if key != "count"
        }
        latency_ms["count"] = self.latency.count
        return {
            "benchmark": "server-loadgen",
            "workload": self.workload,
            "clients": self.clients,
            "scripts": self.scripts,
            "key_dist": self.key_dist,
            "wall_time_s": round(self.wall_time, 4),
            "committed": self.committed,
            "aborted_txns": self.aborted,
            "throughput_txn_per_s": round(self.throughput, 2),
            "restarts": self.restarts,
            "gave_up": self.gave_up,
            "disconnects": self.disconnects,
            "requests": self.requests,
            "request_latency_ms": latency_ms,
            "busy_retries": self.busy_retries,
            "timeouts": self.timeouts,
            "aborted_by_server": self.aborted_by_server,
            "abort_notifications": self.abort_notifications,
            "protocol_rejections": self.protocol_rejections,
            "protocol_errors": self.protocol_errors,
            "server": self.server_stats,
        }


class _Runner:
    """Shared mutable state for one driver run."""

    def __init__(
        self,
        report: LoadgenReport,
        *,
        think_scale: float,
        max_restarts: int,
        seed: int,
    ) -> None:
        self.report = report
        self.think_scale = think_scale
        self.max_restarts = max_restarts
        self.rng = random.Random(seed)
        # script label -> its current protocol transaction name
        self.names: dict[str, str] = {}

    async def backoff(self) -> None:
        await asyncio.sleep(BACKOFF_S * (0.5 + self.rng.random()))

    async def request(
        self, client: AsyncClient, op: str, **params: Any
    ) -> dict[str, Any]:
        """One request with BUSY backoff-and-retry and latency capture."""
        # Latency is measured on the same monotonic clock the server
        # stamps queue-wait with (see repro.server.clock) so the two
        # distributions are directly comparable.
        while True:
            started = CLOCK()
            try:
                response = await client.request(op, **params)
            except BusyError:
                self.report.latency.observe(CLOCK() - started)
                self.report.busy_retries += 1
                await self.backoff()
                continue
            except ServerError as error:
                self.report.latency.observe(CLOCK() - started)
                self.report.requests += 1
                self._count_error(error)
                raise
            self.report.latency.observe(CLOCK() - started)
            self.report.requests += 1
            return response

    def _count_error(self, error: ServerError) -> None:
        if error.code in WIRE_FAULT_CODES:
            self.report.protocol_errors += 1
        elif error.code is ErrorCode.TIMEOUT:
            self.report.timeouts += 1
        elif error.code is ErrorCode.ABORTED:
            self.report.aborted_by_server += 1
        elif error.code is ErrorCode.PROTOCOL:
            self.report.protocol_rejections += 1

    async def run(self, client: AsyncClient, txn: Txn) -> None:
        """Drive one script to its commit, restarting it on aborts."""
        for _ in range(self.max_restarts + 1):
            try:
                name = await self._define(client, txn)
            except ServerError:
                await self.backoff()
                continue
            try:
                committed = await self._attempt(client, name, txn)
            except _ABORTS:
                await self._quiet_abort(client, name)
                committed = False
            if committed:
                self.report.committed += 1
                return
            self.report.aborted += 1
            self.report.restarts += 1
            await self.backoff()
        self.report.gave_up += 1

    async def _define(self, client: AsyncClient, txn: Txn) -> str:
        response = await self.request(
            client,
            "define",
            updates=list(txn.updates),
            input=txn.input,
            output=txn.output,
            predecessors=[
                self.names[label]
                for label in txn.predecessors
                if label in self.names
            ],
        )
        name = str(response["txn"])
        self.names[txn.label] = name
        return name

    async def _attempt(
        self, client: AsyncClient, name: str, txn: Txn
    ) -> bool:
        """One end-to-end run of a defined transaction; True = committed."""
        response = await self.request(client, "validate", txn=name)
        if response.get("outcome") != "ok":
            return False  # the failed validation already aborted it
        values: dict[str, int] = {}
        for op in txn.ops:
            kind = op[0]
            if kind == "sleep":
                if self.think_scale > 0:
                    await asyncio.sleep(op[1] * self.think_scale)
            elif kind == "read":
                response = await self.request(
                    client, "read", txn=name, entity=op[1]
                )
                values[op[1]] = int(response["value"])
            elif kind == "bump":
                _, entity, source, delta, high, duration = op
                value = min(high, values.get(source, 0) + delta)
                if self.think_scale > 0 and duration > 0:
                    await self.request(
                        client, "begin_write", txn=name, entity=entity
                    )
                    await asyncio.sleep(duration * self.think_scale)
                    await self.request(
                        client,
                        "end_write",
                        txn=name,
                        entity=entity,
                        value=value,
                    )
                else:
                    await self.request(
                        client, "write", txn=name, entity=entity, value=value
                    )
            elif kind == "commit":
                response = await self.request(client, "commit", txn=name)
                if response.get("outcome") == "committed":
                    return True
                # e.g. "output condition unsatisfied" — abort and restart.
                await self._quiet_abort(client, name)
                return False
            else:
                raise ValueError(f"the driver cannot run op {kind!r}")
        raise ValueError(f"script {txn.label} does not end in a commit")

    async def _quiet_abort(self, client: AsyncClient, name: str) -> None:
        try:
            await self.request(client, "abort", txn=name)
        except ServerError:
            pass  # already terminated (cascade) — fine


async def run_loadgen(
    workload: Workload,
    clients: int = 8,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    think_scale: float = 0.0,
    max_restarts: int = 8,
    connect_retries: int = 25,
    seed: int = 0,
) -> LoadgenReport:
    """Run a workload's scripts closed-loop over N connections."""
    if clients < 1:
        raise ValueError("need at least one client")
    report = LoadgenReport(
        workload=workload.name,
        clients=clients,
        scripts=len(workload.scripts),
        key_dist=workload.key_dist,
    )
    runner = _Runner(
        report,
        think_scale=think_scale,
        max_restarts=max_restarts,
        seed=seed,
    )
    txns = [script.to_txn() for script in workload.scripts]
    pool = [
        await AsyncClient.connect(host, port, retries=connect_retries)
        for _ in range(clients)
    ]
    try:

        async def drive(client: AsyncClient, share: list[Txn]) -> None:
            for txn in share:
                try:
                    await runner.run(client, txn)
                except OSError:
                    # The server went away (e.g. the CI smoke test
                    # SIGKILLs it mid-load).  Count it, drop this
                    # connection's remaining scripts, keep the report.
                    report.disconnects += 1
                    return

        started = CLOCK()
        await asyncio.gather(
            *(
                drive(client, txns[index::clients])
                for index, client in enumerate(pool)
            )
        )
        report.wall_time = CLOCK() - started
        report.abort_notifications = sum(
            1
            for client in pool
            for event in client.events
            if event.get("event") == "abort"
        )
        try:
            stats = await runner.request(pool[0], "stats")
            report.server_stats = _trim_server_stats(
                stats.get("stats", {})
            )
        except (ServerError, OSError):
            pass
    finally:
        for client in pool:
            await client.close()
    return report


def _trim_server_stats(snapshot: dict[str, Any]) -> dict[str, Any]:
    """The server-side numbers worth archiving in the bench file."""
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    histograms = snapshot.get("histograms", {})
    interesting_counters = {
        name: value
        for name, value in counters.items()
        if name.startswith("server.")
    }
    return {
        "counters": interesting_counters,
        "queue_depth_max": gauges.get("server.queue.depth", {}).get(
            "max", 0
        ),
        "sessions_max": gauges.get("server.sessions", {}).get("max", 0),
        "queue_wait": histograms.get("server.queue.wait", {}),
        "request_latency": histograms.get(
            "server.request.latency", {}
        ),
    }


def report_table(report: LoadgenReport) -> str:
    """A human-readable summary for the CLI."""
    data = report.to_json()
    lines = [
        f"workload:            {data['workload']}",
        f"clients:             {data['clients']}",
        f"scripts:             {data['scripts']}",
        f"wall time:           {data['wall_time_s']:.3f} s",
        f"committed:           {data['committed']}"
        f" ({data['throughput_txn_per_s']:.1f} txn/s)",
        f"aborted txns:        {data['aborted_txns']}"
        f" (disconnects: {data['disconnects']})",
        f"restarts:            {data['restarts']}"
        f" (gave up: {data['gave_up']})",
        f"requests:            {data['requests']}",
        "request latency ms:  "
        + " ".join(
            f"{key}={data['request_latency_ms'][key]}"
            for key in ("p50", "p95", "p99", "max")
        ),
        f"busy retries:        {data['busy_retries']}",
        f"timeouts:            {data['timeouts']}",
        f"server aborts seen:  {data['aborted_by_server']}"
        f" (notifications: {data['abort_notifications']})",
        f"wire-protocol errors: {data['protocol_errors']}",
    ]
    return "\n".join(lines)
