"""Load generation: replay simulator workloads over live connections.

Where :mod:`repro.sim` drives :class:`TransactionScript` objects in
*virtual* time against an in-process scheduler, the loadgen replays the
same scripts over N concurrent client connections against a running
``repro serve`` instance — turning the paper's qualitative claims into
wall-clock numbers (throughput, request-latency percentiles, abort and
restart counts) written to ``BENCH_server.json``.

Script → wire mapping:

* the script's read set becomes the transaction's input constraint
  (one ``e >= 0`` conjunct per entity — trivially satisfiable but it
  *mentions* the entity, which is what the model requires of ``N_t``),
  its write set becomes the update set and output condition;
* ``Think`` steps sleep ``duration * think_scale`` seconds (0 by
  default: saturate the server);
* partial-order predecessors are declared at define time, so commits
  park server-side until the predecessor commits — cooperation edges
  exercise the commit-waiter path over the wire;
* an abort (cascade, failed validation, request timeout) restarts the
  script under a fresh transaction, up to ``max_restarts`` times, with
  jittered backoff — mirroring the simulator's restart policy;
* ``BUSY`` responses (server backpressure) back off and retry the
  same request.

The loadgen counts **wire faults** (``MALFORMED`` / ``UNKNOWN_OP`` /
``INTERNAL`` responses) separately from expected application outcomes;
a healthy run has zero, and the CLI exits non-zero otherwise (the CI
smoke test's assertion).
"""

from __future__ import annotations

import asyncio
import json
import random
from dataclasses import dataclass, field
from typing import Any

from ..obs.metrics import Histogram
from ..sim.workload import (
    KEY_DISTRIBUTIONS,
    Read,
    Think,
    TransactionScript,
    Unordered,
    Workload,
    Write,
    cad_workload,
    oltp_workload,
)
from .clock import CLOCK
from .client import AsyncClient
from .errors import (
    WIRE_FAULT_CODES,
    BusyError,
    ErrorCode,
    RemoteAborted,
    RemoteProtocolError,
    RequestTimeout,
    ServerError,
)

WORKLOAD_KINDS = ("cad", "oltp")


def build_workload(
    kind: str = "cad",
    transactions: int = 16,
    think: float = 0.0,
    seed: int = 0,
    key_dist: str = "uniform",
) -> Workload:
    """The workloads ``repro serve`` and ``repro loadgen`` share.

    Both commands must be given the same kind/seed/key-dist so the
    server's database schema matches the scripts' entities and replay
    draws the same access sequence.
    """
    if key_dist not in KEY_DISTRIBUTIONS:
        raise ValueError(
            f"unknown key distribution {key_dist!r} "
            f"(choose from {KEY_DISTRIBUTIONS})"
        )
    if kind == "cad":
        return cad_workload(
            num_designers=transactions,
            think_time=think,
            seed=seed,
            key_dist=key_dist,
        )
    if kind == "oltp":
        return oltp_workload(
            num_transactions=transactions, seed=seed, key_dist=key_dist
        )
    raise ValueError(
        f"unknown workload kind {kind!r} (choose from {WORKLOAD_KINDS})"
    )


@dataclass
class LoadgenReport:
    """Everything one loadgen run measured."""

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

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")


class _Runner:
    """Shared mutable state for one loadgen run."""

    def __init__(
        self,
        report: LoadgenReport,
        *,
        think_scale: float,
        max_restarts: int,
        backoff: float,
        seed: int,
    ) -> None:
        self.report = report
        self.think_scale = think_scale
        self.max_restarts = max_restarts
        self.backoff = backoff
        self.rng = random.Random(seed)
        # script txn_id -> current protocol transaction name
        self.names: dict[str, str] = {}

    # -- request plumbing ----------------------------------------------------

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
                self.report.latency.observe(
                    CLOCK() - started
                )
                self.report.busy_retries += 1
                await asyncio.sleep(
                    self.backoff * (0.5 + self.rng.random())
                )
                continue
            except ServerError as error:
                self.report.latency.observe(
                    CLOCK() - started
                )
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

    # -- script execution ----------------------------------------------------

    async def define(
        self, client: AsyncClient, script: TransactionScript
    ) -> str:
        reads = sorted(script.read_entities)
        writes = sorted(script.write_entities)
        input_constraint = (
            " & ".join(f"{entity} >= 0" for entity in reads) or "true"
        )
        output_condition = (
            " & ".join(f"{entity} >= 0" for entity in writes) or "true"
        )
        predecessors = [
            self.names[base]
            for base in script.predecessors
            if base in self.names
        ]
        response = await self.request(
            client,
            "define",
            updates=writes,
            input=input_constraint,
            output=output_condition,
            predecessors=predecessors,
        )
        name = str(response["txn"])
        self.names[script.txn_id] = name
        return name

    async def _access(
        self,
        client: AsyncClient,
        txn: str,
        step: "Read | Write",
        values: dict[str, int],
    ) -> None:
        if isinstance(step, Read):
            response = await self.request(
                client, "read", txn=txn, entity=step.entity
            )
            values[step.entity] = int(response["value"])
            return
        value = step.resolve(values)
        if self.think_scale > 0 and step.duration > 0:
            await self.request(
                client, "begin_write", txn=txn, entity=step.entity
            )
            await asyncio.sleep(step.duration * self.think_scale)
            await self.request(
                client,
                "end_write",
                txn=txn,
                entity=step.entity,
                value=value,
            )
        else:
            await self.request(
                client, "write", txn=txn, entity=step.entity, value=value
            )

    async def attempt(
        self, client: AsyncClient, txn: str, script: TransactionScript
    ) -> bool:
        """One end-to-end run of a defined transaction; True = committed."""
        response = await self.request(client, "validate", txn=txn)
        if response.get("outcome") != "ok":
            return False
        values: dict[str, int] = {}
        for step in script.steps:
            if isinstance(step, Think):
                if self.think_scale > 0:
                    await asyncio.sleep(step.duration * self.think_scale)
            elif isinstance(step, (Read, Write)):
                await self._access(client, txn, step, values)
            elif isinstance(step, Unordered):
                for access in step.steps:
                    await self._access(client, txn, access, values)
        response = await self.request(client, "commit", txn=txn)
        if response.get("outcome") == "committed":
            return True
        # e.g. "output condition unsatisfied" — abort and restart.
        await self._quiet_abort(client, txn)
        return False

    async def _quiet_abort(self, client: AsyncClient, txn: str) -> None:
        try:
            await self.request(client, "abort", txn=txn)
        except ServerError:
            pass  # already terminated (cascade) — fine

    async def run_script(
        self,
        client: AsyncClient,
        script: TransactionScript,
        predefined: str | None,
    ) -> None:
        txn = predefined
        for attempt in range(self.max_restarts + 1):
            if txn is None:
                try:
                    txn = await self.define(client, script)
                except ServerError:
                    txn = None
                    await asyncio.sleep(
                        self.backoff * (0.5 + self.rng.random())
                    )
                    continue
            try:
                committed = await self.attempt(client, txn, script)
            except (RemoteAborted, RequestTimeout, RemoteProtocolError):
                await self._quiet_abort(client, txn)
                committed = False
            if committed:
                self.report.committed += 1
                return
            self.report.aborted += 1
            self.report.restarts += 1
            txn = None
            await asyncio.sleep(self.backoff * (0.5 + self.rng.random()))
        self.report.gave_up += 1


async def run_loadgen(
    workload: Workload,
    clients: int = 8,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    think_scale: float = 0.0,
    max_restarts: int = 8,
    backoff: float = 0.05,
    connect_retries: int = 25,
    connect_retry_delay: float = 0.2,
    seed: int = 0,
) -> LoadgenReport:
    """Replay a workload's scripts over N concurrent connections."""
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
        backoff=backoff,
        seed=seed,
    )
    pool = [
        await AsyncClient.connect(
            host,
            port,
            retries=connect_retries,
            retry_delay=connect_retry_delay,
        )
        for _ in range(clients)
    ]
    try:
        # Scripts round-robin over connections; each client runs its
        # share sequentially, all clients concurrently.
        assignments: list[list[TransactionScript]] = [
            [] for _ in range(clients)
        ]
        owner: dict[str, AsyncClient] = {}
        for index, script in enumerate(workload.scripts):
            assignments[index % clients].append(script)
            owner[script.txn_id] = pool[index % clients]
        # Definition pass in script order so cooperation edges resolve
        # to already-defined siblings.
        predefined: dict[str, str] = {}
        try:
            for script in workload.scripts:
                predefined[script.txn_id] = await runner.define(
                    owner[script.txn_id], script
                )
        except OSError:
            report.disconnects += 1
        started = CLOCK()

        async def drive(client: AsyncClient, scripts) -> None:
            for script in scripts:
                try:
                    await runner.run_script(
                        client, script, predefined.get(script.txn_id)
                    )
                except OSError:
                    # The server went away (e.g. the CI smoke test
                    # SIGKILLs it mid-load).  Count it, drop this
                    # connection's remaining scripts, keep the report.
                    report.disconnects += 1
                    return

        await asyncio.gather(
            *(
                drive(client, scripts)
                for client, scripts in zip(pool, assignments)
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
