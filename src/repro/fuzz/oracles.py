"""Invariant oracles: what every fuzz run must satisfy.

The paper's Theorem 1 makes *checking an arbitrary execution* against
explicit consistency predicates NP-complete — so the fuzzer leans on
the polynomial certificates this repo already maintains instead of a
general checker:

* the Section-5 protocol's own sufficient conditions (Lemma 4 parent-
  based reads, Theorem 2 predicate re-verification),
* the WAL history projections (recorded multi-version RC, committed
  projection) and the recovery pass's committed-prefix verification,
* the Section-4 lattice: every classification of the committed
  projection must respect the containment laws of Figure 2 (the
  fast/staged classifier is additionally diffed against ``exact=True``
  on small histories).

Plus the server-level liveness/accounting invariants no model covers:
exactly one terminal reply per admitted request, no lost responses
(a stalled virtual loop *is* a lost response), write effects bounded
by acknowledged requests, and telemetry that agrees with the
transcript: counters match the event log, the queue/park gauges are
back to zero after the drain, and the live tracer's span trees are
complete (nothing left open, every request span carries exactly one
``queue.wait`` accounting child, every parent edge resolves).

Every oracle returns a verdict with human-readable details; a failing
run's verdict set is its *failure signature*, which the shrinker holds
constant while minimizing.

:data:`ORACLES` is the one check registry of both fronts (``repro
fuzz`` and ``repro sim``): each row is a check plus what it judges —
one primary epoch's :class:`~repro.fuzz.harness.Evidence`, or a whole
cluster run's :class:`~repro.fuzz.harness.History` — and which of
those it applies to.  :func:`run_oracles` is the only place a check is
evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from ..classes.hierarchy import classify, containment_violations
from ..durability.history import (
    committed_projection,
    recorded_is_rc,
)
from ..durability.records import OP_WRITE
from ..durability.recovery import check_protocol_predicates
from ..protocol.scheduler import TxnPhase
from .harness import History

#: Committed-projection size caps for the NP-complete classifier
#: passes (staged, and the staged-vs-exact differential).
_CLASSIFY_CAP = 14
_EXACT_CAP = 9


@dataclass
class OracleResult:
    name: str
    ok: bool
    details: list[str] = field(default_factory=list)
    skipped: bool = False

    @classmethod
    def skip(cls, name: str, why: str) -> "OracleResult":
        return cls(name=name, ok=True, details=[why], skipped=True)


#: What a row judges: one primary epoch, or a whole cluster run.
EPOCH = "epoch"
CLUSTER = "cluster"


@dataclass(frozen=True)
class Oracle:
    """One registry row: a check, what it judges, where it applies."""

    check: Callable[[Any], OracleResult]
    scope: str = EPOCH
    #: Whether the row judges this evidence at all; a row that does
    #: not apply is left out of the verdicts (a *skip* is a verdict).
    applies: Callable[[Any], bool] = lambda evidence: True


def run_oracles(
    evidence: Any,
    names: "list[str] | None" = None,
    *,
    scope: str = EPOCH,
) -> list[OracleResult]:
    """Evaluate the ``scope`` rows that apply to ``evidence``.

    Rows run in registry order.  ``names`` selects a subset of them;
    unknown names raise ``KeyError`` so a caller cannot silently skip
    an invariant it believes it is checking.
    """
    missing = [name for name in names or () if name not in ORACLES]
    if missing:
        raise KeyError(f"unknown oracles: {missing}")
    return [
        row.check(evidence)
        for name, row in ORACLES.items()
        if row.scope == scope
        and (names is None or name in names)
        and row.applies(evidence)
    ]


def _indeterminate(evidence: Any) -> set:
    """Commits legitimately in the history without an ack.

    Sync replication introduces a third commit outcome: the WAL holds
    the commit, but the reply was a replication-ack timeout (or the
    drain ran first).  After a promotion, the new primary's recovered
    baseline is the same kind of commit.  Oracles treat these as
    committed-without-ack — legitimate in the recovered history, never
    required to be there.
    """
    return set(evidence.unacked_committed)


def _inflight_commits(evidence: Any) -> set:
    """Transactions whose commit request was unanswered at the end."""
    return {
        entry["txn"]
        for entry in evidence.pending_requests
        if entry["op"] == "commit"
    }


def _sharded(evidence: Any) -> bool:
    return getattr(evidence.plan, "shards", 1) > 1


def _where(evidence: Any, node: Any) -> str:
    """Detail prefix naming the node — empty when there is only one."""
    return f"shard{node.index}: " if len(evidence.nodes) > 1 else ""


def _wal_history(
    evidence: Any, name: str, *, need_recovery: bool = True
) -> "OracleResult | None":
    """Why the WAL-history oracles must skip this run (``None`` = go).

    They replay every node's log from LSN 1, so they need the records
    (and usually the recovered commit order) of every node, and no
    checkpoint cleanup may have truncated early history.
    """
    nodes = evidence.nodes
    if not nodes or any(
        node.records is None
        or (need_recovery and node.recovery is None)
        for node in nodes
    ):
        return OracleResult.skip(
            name, "no WAL history (in-memory or unrecoverable run)"
        )
    if not all(
        node.records and node.records[0].lsn == 1 for node in nodes
    ):
        return OracleResult.skip(
            name, "checkpoint cleanup truncated early history"
        )
    return None


def _home(name: str) -> int:
    """The node a transaction name is rooted at.

    ``sh2.5`` → ``2``; an unsharded run's names carry no shard root
    and live on its only node, ``0``.
    """
    head = name.split(".", 1)[0]
    if head.startswith("sh") and head[2:].isdigit():
        return int(head[2:])
    return 0


def _gid_of(evidence: Any, branch: str) -> str:
    """Per-shard branch name → client-visible transaction name."""
    return (getattr(evidence, "branch_map", None) or {}).get(
        branch, branch
    )


def _branches_of(evidence: Any) -> dict[str, dict[int, str]]:
    """gid → ``{shard: branch}`` for every cross-shard transaction."""
    out: dict[str, dict[int, str]] = {}
    for branch, gid in (
        getattr(evidence, "branch_map", None) or {}
    ).items():
        out.setdefault(gid, {})[_home(branch)] = branch
    return out


def _branches_on_node(
    gids: Any,
    branches_of: dict[str, dict[int, str]],
    index: int,
) -> "list[tuple[str, bool]]":
    """``gids`` projected onto node ``index``, order preserved.

    Yields ``(branch, is_cross)``.  Cross-shard branches are flagged:
    their per-shard commit records are written by a 2PC fan-out whose
    arrival order at any one shard is not the global ack order, so the
    order contract only binds single-shard commits.  A gid that is not
    a cross-shard transaction is its own (only) branch.
    """
    projected: list[tuple[str, bool]] = []
    for gid in gids:
        cross = branches_of.get(gid)
        if cross is not None:
            branch = cross.get(index)
            if branch is not None:
                projected.append((branch, True))
        elif _home(gid) == index:
            projected.append((gid, False))
    return projected


def _no_deadlock(evidence: Any) -> OracleResult:
    if evidence.deadlock is None:
        return OracleResult("no_deadlock", True)
    return OracleResult(
        "no_deadlock",
        False,
        [f"virtual loop stalled: {evidence.deadlock}"],
    )


def _replies_complete(evidence: Any) -> OracleResult:
    """Every admitted request got exactly one terminal reply.

    After a crash, requests in flight at the moment the dispatcher
    died may legitimately stay unanswered; any other pending request
    is a lost response.
    """
    terminal: dict[tuple[int, int], int] = {}
    for event in evidence.events:
        # BUSY retries re-reply under the same rid by design; only
        # terminal (non-BUSY) replies count.
        if event["kind"] == "reply" and event.get("code") != "BUSY":
            key = (event["client"], event["rid"])
            terminal[key] = terminal.get(key, 0) + 1
    details = [
        f"client {client} rid {rid}: {count} terminal replies"
        for (client, rid), count in sorted(terminal.items())
        if count > 1
    ]
    if not evidence.crashed:
        for entry in evidence.pending_requests:
            details.append(
                f"client {entry['client']} rid {entry['rid']} "
                f"({entry['op']}) never answered"
            )
    return OracleResult("replies_complete", not details, details)


def _write_multiplicity(evidence: Any) -> OracleResult:
    """WAL write effects are bounded by acknowledged write requests.

    For every ``(txn, entity)``: the number of WRITE records in the
    WAL must equal the number of ok-acknowledged ``write`` requests
    (clean runs) or sit between the acked count and acked+pending
    (crash runs, where an executed write's reply may have been lost).
    A parked write whose deadline expired (TIMEOUT reply) must leave
    **no** record — a record anyway means the server mutated the
    manager after telling the client nothing happened, or executed one
    request twice.
    """
    name = "write_multiplicity"
    skip = _wal_history(evidence, name, need_recovery=False)
    if skip is not None:
        return skip
    records = [
        record for node in evidence.nodes for record in node.records
    ]
    wal_writes: dict[tuple[str, str], int] = {}
    for record in records:
        if record.op == OP_WRITE:
            # Branch names collapse to the client-visible gid so WAL
            # writes line up with the request transcript.
            key = (_gid_of(evidence, record.txn), record.data["entity"])
            wal_writes[key] = wal_writes.get(key, 0) + 1
    acked: dict[tuple[str, str], int] = {}
    pending: dict[tuple[str, str], int] = {}
    for entry in evidence.requests.values():
        if entry["op"] != "write" or entry["txn"] is None:
            continue
        key = (entry["txn"], entry["entity"])
        if entry["status"] == "ok":
            acked[key] = acked.get(key, 0) + 1
        elif entry["status"] == "pending":
            pending[key] = pending.get(key, 0) + 1
    details = []
    for key in sorted(set(wal_writes) | set(acked)):
        logged = wal_writes.get(key, 0)
        low = acked.get(key, 0)
        high = low + (pending.get(key, 0) if evidence.crashed else 0)
        if not low <= logged <= high:
            details.append(
                f"txn {key[0]} entity {key[1]}: {logged} WAL writes "
                f"for {low} acked (+{high - low} in-flight) requests"
            )
    return OracleResult(name, not details, details)


def _recovery_verified(evidence: Any) -> OracleResult:
    name = "recovery_verified"
    if not evidence.plan.durable:
        return OracleResult.skip(name, "in-memory run")
    if evidence.recovery_error is not None:
        return OracleResult(
            name, False, [f"recovery failed: {evidence.recovery_error}"]
        )
    nodes = evidence.nodes
    if not nodes or any(node.recovery is None for node in nodes):
        return OracleResult(name, False, ["recovery never ran"])
    return OracleResult(
        name,
        all(node.recovery.verified for node in nodes),
        [
            f"{_where(evidence, node)}{violation}"
            for node in nodes
            for violation in node.recovery.violations
        ],
    )


def _committed_prefix(evidence: Any) -> OracleResult:
    """Acked commits survive recovery, in order; nothing else commits.

    The client-visible contract, node by node: an acknowledged commit
    is durable (the WAL append precedes the ack), so the acked
    sequence projected onto a node must be a subsequence of that
    node's recovered commit order.  Acked cross-shard commits must
    appear on every participant shard, but only membership is required
    — the 2PC fan-out (and recovery's in-doubt resolution, which
    appends the decided commit at the WAL tail) makes their per-shard
    positions schedule-dependent.  Conversely a recovered commit
    nobody was acked for is only legitimate when its reply was
    indeterminate or its commit request was still in flight at the
    crash.
    """
    name = "committed_prefix"
    nodes = evidence.nodes
    if not nodes or any(node.recovery is None for node in nodes):
        return OracleResult.skip(
            name, "no recovery pass (in-memory run or recovery error)"
        )
    branches_of = _branches_of(evidence)
    details: list[str] = []
    acked = set(evidence.acked_committed)
    indeterminate = _indeterminate(evidence)
    inflight_commits = _inflight_commits(evidence)
    for node in nodes:
        where = _where(evidence, node)
        recovered = list(node.recovery.committed)
        recovered_set = set(recovered)
        # Subsequence check preserves the order of the acks.
        position = 0
        for branch, is_cross in _branches_on_node(
            evidence.acked_committed, branches_of, node.index
        ):
            if is_cross:
                if branch not in recovered_set:
                    details.append(
                        f"{where}acked cross-shard commit "
                        f"{_gid_of(evidence, branch)} (branch {branch})"
                        f" missing from recovered order {recovered}"
                    )
                continue
            try:
                position = recovered.index(branch, position) + 1
            except ValueError:
                details.append(
                    f"{where}acked commit {branch} missing from "
                    f"recovered order {recovered}"
                )
        for branch in recovered:
            gid = _gid_of(evidence, branch)
            # Indeterminate: the client was told exactly this could
            # happen — durable locally, replication ack unknown.
            if gid in acked or gid in indeterminate:
                continue
            if evidence.crashed and gid in inflight_commits:
                continue
            details.append(
                f"{where}recovered commit {branch} (txn {gid}) was "
                f"never acknowledged"
            )
    return OracleResult(name, not details, details)


def _history_rc(evidence: Any) -> OracleResult:
    """Strict mode guarantees recoverable (RC) recorded histories."""
    name = "history_rc"
    if not evidence.plan.strict:
        return OracleResult.skip(
            name, "non-strict run: RC is not promised"
        )
    skip = _wal_history(evidence, name)
    if skip is not None:
        return skip
    # Each node is its own single-writer history; RC is a per-history
    # property, checked node by node.
    details = [
        f"{_where(evidence, node)}committed reader precedes its author"
        for node in evidence.nodes
        if not recorded_is_rc(
            node.records, list(node.recovery.committed)
        )
    ]
    return OracleResult(name, not details, details)


def _classifier_lattice(evidence: Any) -> OracleResult:
    """The committed projection classifies coherently.

    Containment violations (e.g. CSR ⊄ SR) indicate a broken class
    tester — this is the oracle that catches regressions like
    reverting the Lemma-3 condition-2 fix.  On small projections the
    staged classifier is additionally required to agree with
    ``exact=True`` (no lattice short-circuiting), a differential check
    of every fast path.
    """
    name = "classifier_lattice"
    skip = _wal_history(evidence, name)
    if skip is not None:
        return skip
    details: list[str] = []
    unclassified: list[str] = []
    for node in evidence.nodes:
        where = _where(evidence, node)
        projection = committed_projection(
            node.records, list(node.recovery.committed)
        )
        if projection is None:
            unclassified.append(f"{where}no committed data operations")
            continue
        schedule = projection.schedule
        if len(schedule) > _CLASSIFY_CAP:
            unclassified.append(
                f"{where}projection has {len(schedule)} ops "
                f"(> {_CLASSIFY_CAP}); classifier pass skipped"
            )
            continue
        membership = classify(schedule)
        violations = containment_violations(membership)
        details.extend(f"{where}{violation}" for violation in violations)
        if not violations and len(schedule) <= _EXACT_CAP:
            exact = classify(schedule, exact=True)
            if membership.as_dict() != exact.as_dict():
                details.append(
                    f"{where}staged classify disagrees with exact: "
                    f"{membership.as_dict()} != {exact.as_dict()}"
                )
    if len(unclassified) == len(evidence.nodes):
        return OracleResult(name, True, unclassified, skipped=True)
    return OracleResult(name, not details, details)


def _protocol_verify(evidence: Any) -> OracleResult:
    """Post-drain manager state passes Lemma 4 / Theorem 2 and is clean.

    Node by node: every non-aborted parent, as recovery judges it
    (:func:`~repro.durability.recovery.check_protocol_predicates`),
    every parent index the state keeps equal to a rebuild from its
    records, plus the commit map: each manager's committed children
    are exactly the acked ∪ indeterminate transactions' branches on
    that node.
    """
    name = "protocol_verify"
    nodes = evidence.nodes
    if not nodes or any(node.manager is None for node in nodes):
        return OracleResult.skip(
            name, "no live manager (crash or deadlock)"
        )
    branches_of = _branches_of(evidence)
    acked_or_indet = set(evidence.acked_committed) | _indeterminate(
        evidence
    )
    details: list[str] = []
    for node in nodes:
        where = _where(evidence, node)
        manager = node.manager
        root = manager.root
        details.extend(
            f"{where}{problem}"
            for problem in check_protocol_predicates(manager)
        )
        details.extend(
            f"{where}{parent}'s kept ParentIndex differs from a rebuild"
            for parent in manager.state.stale_indexes()
        )
        committed = set()
        for child in manager.children_of(root):
            record = manager.record(child)
            if not record.terminated:
                details.append(f"{where}{child} still live after drain")
            if record.phase is TxnPhase.COMMITTED:
                committed.add(child)
        expected = {
            branch
            for branch, _ in _branches_on_node(
                acked_or_indet, branches_of, node.index
            )
        }
        if committed != expected:
            details.append(
                f"{where}manager committed set {sorted(committed)} != "
                f"acked ∪ indeterminate {sorted(expected)}"
            )
    if evidence.dispatcher is not None:
        parked = evidence.dispatcher.parked_count
        if parked:
            details.append(
                f"{parked} commands still parked after drain"
            )
    return OracleResult(name, not details, details)


def _metrics_consistent(evidence: Any) -> OracleResult:
    """Telemetry agrees with the transcript.

    Beyond the counter cross-checks, a clean (no crash, no deadlock)
    run must leave the live surfaces settled: the queue-depth and
    park-depth gauges read zero once the drain finishes, the tracer
    holds no open span, and the collected span set forms complete
    trees — every ``request`` span has exactly one ``queue.wait``
    child (the dequeue-time accounting record) and every non-root
    parent edge points at a span that actually completed.
    """
    name = "metrics_consistent"
    if evidence.crashed or evidence.deadlock is not None:
        return OracleResult.skip(
            name, "counters are mid-flight after a crash/deadlock"
        )
    if evidence.registry is None:
        return OracleResult.skip(name, "no registry")
    registry = evidence.registry
    details = []
    committed_count = int(
        registry.counter("server.txns.committed").value
    )
    # The epoch's own list, never an inherited baseline: a promoted
    # primary's counters only saw this epoch's commits.
    indeterminate = set(evidence.indeterminate_committed)
    # The committed counter ticks once per *branch* commit, so a
    # cross-shard transaction on k shards counts k times.
    branches_of = _branches_of(evidence)
    expected_commits = sum(
        len(branches_of.get(gid) or (gid,))
        for gid in set(evidence.acked_committed) | indeterminate
    )
    if committed_count != expected_commits:
        details.append(
            f"server.txns.committed={committed_count} but "
            f"{len(evidence.acked_committed)} commits acked + "
            f"{len(indeterminate)} indeterminate "
            f"(expected {expected_commits})"
        )
    if _sharded(evidence):
        # Per-shard label series must sum exactly to the aggregate —
        # no double-counting, no unlabeled stragglers.
        shard_sum = sum(
            int(
                registry.counter(
                    f"server.txns.committed.shard{index}"
                ).value
            )
            for index in range(evidence.plan.shards)
        )
        if shard_sum != committed_count:
            details.append(
                f"per-shard committed series sum to {shard_sum} but "
                f"server.txns.committed={committed_count}"
            )
    busy_events = sum(
        1 for event in evidence.events if event["kind"] == "busy"
    ) + sum(
        1
        for event in evidence.events
        if event["kind"] == "reply" and event.get("code") == "BUSY"
    )
    busy_count = int(registry.counter("server.busy").value)
    if _sharded(evidence):
        # The router's internal 2PC fan-out retries BUSY itself, so
        # the counter may exceed what the client transcript saw — but
        # never the reverse.
        if busy_count < busy_events:
            details.append(
                f"server.busy={busy_count} but transcript shows "
                f"{busy_events} BUSY rejections"
            )
    elif busy_count != busy_events:
        details.append(
            f"server.busy={busy_count} but transcript shows "
            f"{busy_events} BUSY rejections"
        )
    dropped = int(
        registry.counter("server.notifications_dropped").value
    )
    if dropped:
        # Fuzz sessions record notifications synchronously — there is
        # no transport buffer to fill, so any drop is a server bug.
        details.append(
            f"server.notifications_dropped={dropped} without a "
            "transport queue in the run"
        )
    for gauge_name in ("server.queue.depth", "server.park.depth"):
        depth = registry.gauge(gauge_name).value
        if depth:
            details.append(
                f"{gauge_name}={depth:g} after a clean drain"
            )
    details.extend(_span_tree_details(evidence))
    return OracleResult(name, not details, details)


def _span_tree_details(evidence: Any) -> list[str]:
    spans = getattr(evidence, "spans", None)
    if spans is None:
        return []
    details = []
    if evidence.spans_dropped:
        details.append(
            f"span ring dropped {evidence.spans_dropped} spans "
            f"(capacity too small for the plan)"
        )
    open_spans = getattr(evidence, "open_spans", None) or []
    for span in open_spans:
        details.append(
            f"span {span.span_id} ({span.kind}, txn {span.txn}) "
            "still open after drain"
        )
    by_id = {span.span_id: span for span in spans}
    queue_children: dict[int, int] = {}
    for span in spans:
        if (
            span.parent_id is not None
            and span.parent_id not in by_id
        ):
            details.append(
                f"span {span.span_id} ({span.kind}, txn {span.txn}) "
                f"references missing parent {span.parent_id}"
            )
        if span.kind == "queue.wait" and span.parent_id is not None:
            queue_children[span.parent_id] = (
                queue_children.get(span.parent_id, 0) + 1
            )
    for span in spans:
        if span.kind != "request":
            continue
        count = queue_children.get(span.span_id, 0)
        if count != 1:
            details.append(
                f"request span {span.span_id} "
                f"(op {span.attrs.get('op')}, txn {span.txn}) has "
                f"{count} queue.wait children (expected 1)"
            )
    return details


def _cross_shard_atomicity(evidence: Any) -> OracleResult:
    """All-or-nothing across shards: no transaction half-commits.

    For every top-level cross-shard transaction, the branch fates on
    its participant shards must agree — after recovery (durable runs,
    where the in-doubt resolution pass has already applied the
    coordinator's decision) or in the drained live managers
    (in-memory runs).  A divergence is split-brain: one shard
    exposes the transaction's writes while another acts as if it
    never happened.  Additionally an acked cross-shard commit must be
    committed everywhere, and a fully-committed one must have been
    acked (or been in flight at a crash).
    """
    name = "cross_shard_atomicity"
    if not _sharded(evidence):
        return OracleResult.skip(name, "single-shard plan")
    branches_of = _branches_of(evidence)
    multi = {
        gid: branches
        for gid, branches in branches_of.items()
        # Top-level transactions only: a nested cross-shard txn
        # ("sh2.5.1") commits relative to its parent, whose own 2PC
        # settles the global fate.
        if len(branches) > 1 and gid.count(".") == 1
    }
    if not multi:
        return OracleResult.skip(
            name, "no cross-shard transactions in this run"
        )
    nodes = {node.index: node for node in evidence.nodes}
    if evidence.plan.durable:
        if not nodes or any(
            node.recovery is None for node in nodes.values()
        ):
            return OracleResult.skip(
                name,
                f"recovery unavailable: {evidence.recovery_error}",
            )

        def _fate(shard: int, branch: str) -> bool:
            node = nodes.get(shard)
            return node is not None and branch in node.recovery.committed

    else:
        if not nodes or any(
            node.manager is None for node in nodes.values()
        ):
            return OracleResult.skip(
                name, "no live managers (crash or deadlock)"
            )

        def _fate(shard: int, branch: str) -> bool:
            try:
                record = nodes[shard].manager.record(branch)
            except Exception:  # noqa: BLE001 — unknown branch = no commit
                return False
            return record.phase is TxnPhase.COMMITTED


    details: list[str] = []
    acked = set(evidence.acked_committed)
    indeterminate = _indeterminate(evidence)
    inflight_commits = _inflight_commits(evidence)
    for gid, branches in sorted(multi.items()):
        fates = {
            f"shard{shard}:{branch}": _fate(shard, branch)
            for shard, branch in sorted(branches.items())
        }
        outcomes = set(fates.values())
        if len(outcomes) > 1:
            details.append(
                f"split-brain: transaction {gid} branch fates "
                f"diverge: {fates}"
            )
            continue
        committed = outcomes.pop()
        if gid in acked and not committed:
            details.append(
                f"acked cross-shard commit {gid} is not committed "
                f"on its participant shards {sorted(branches)}"
            )
        if (
            committed
            and gid not in acked
            and gid not in indeterminate
            and not (evidence.crashed and gid in inflight_commits)
        ):
            details.append(
                f"cross-shard transaction {gid} committed without "
                f"an acknowledged commit"
            )
    return OracleResult(name, not details, details)


def _acked_commits_survive_promotion(evidence: Any) -> OracleResult:
    """Every synchronously-acked commit is on the promotion winner.

    With ``sync_replicas >= 1`` a commit reply is withheld until
    enough followers have *fsynced* past the commit LSN, so the
    failover rule — promote the follower with the highest
    ``applied_lsn``, gated on ``recover --verify`` — must yield a
    history containing every acked commit, no matter where the run
    crashed or which links were partitioned.  Indeterminate commits
    carry no such promise (the client was told so), and async
    replication never promises anything before the ack.
    """
    name = "acked_commits_survive_promotion"
    replicas = getattr(evidence, "replicas", None)
    if not replicas:
        return OracleResult.skip(name, "no replicas in this plan")
    if evidence.plan.sync_replicas < 1:
        return OracleResult.skip(
            name, "async replication: replies never waited for acks"
        )
    details = [
        f"replica {entry['replica']} recovery failed: {entry['error']}"
        for entry in replicas
        if entry.get("error") is not None
    ]
    usable = [e for e in replicas if e.get("error") is None]
    if not usable:
        return OracleResult(name, False, details)
    winner = max(usable, key=lambda entry: entry["applied_lsn"])
    if not winner.get("verified", False):
        details.append(
            f"promotion winner (replica {winner['replica']}) failed "
            f"recover --verify: {winner.get('violations')}"
        )
    committed = set(winner.get("committed") or [])
    for txn in evidence.acked_committed:
        if txn not in committed:
            details.append(
                f"acked commit {txn} missing from promotion winner "
                f"(replica {winner['replica']}, applied_lsn "
                f"{winner['applied_lsn']})"
            )
    return OracleResult(name, not details, details)


def _prefix_consistency(evidence: Any) -> OracleResult:
    """Follower read histories are committed-prefix consistent.

    The formal claim behind bounded-stale reads: a follower's view at
    ``applied_lsn = L`` is *the* committed state of the primary's
    history prefix up to ``L`` — an older version in the paper's
    version-function sense, never a divergent one.  Three cheap
    certificates over the sampled reads and the recovered replicas:

    * per replica, ``applied_lsn`` never moves backwards (reads never
      travel back in time, even across snapshot resyncs);
    * the view is a **function** of the prefix — any two samples at
      the same ``applied_lsn``, on any replica, show the same view;
    * replica WALs are literal prefixes of the primary's log, so the
      recovered commit orders must nest: each shorter order is a
      prefix of every longer one.
    """
    name = "prefix_consistency"
    replicas = getattr(evidence, "replicas", None)
    if not replicas:
        return OracleResult.skip(name, "no replicas in this plan")
    details: list[str] = []
    high_water: dict[int, int] = {}
    view_at: dict[int, dict] = {}
    for sample in getattr(evidence, "follower_samples", None) or []:
        index = sample["replica"]
        lsn = sample["applied_lsn"]
        view = sample["view"]
        if lsn < high_water.get(index, 0):
            details.append(
                f"replica {index} applied_lsn moved backwards: "
                f"{high_water[index]} -> {lsn}"
            )
        high_water[index] = lsn
        first = view_at.setdefault(lsn, view)
        if first != view:
            details.append(
                f"reads at applied_lsn {lsn} disagree: "
                f"{first} != {view}"
            )
    orders = sorted(
        (
            list(entry.get("committed") or [])
            for entry in replicas
            if entry.get("error") is None
        ),
        key=len,
    )
    for shorter, longer in zip(orders, orders[1:]):
        if longer[: len(shorter)] != shorter:
            details.append(
                f"recovered commit orders do not nest: "
                f"{shorter} is not a prefix of {longer}"
            )
    return OracleResult(name, not details, details)


def _no_acked_write_lost(history: History) -> OracleResult:
    """No acked commit — and none of its acked writes — is ever lost.

    The cluster-wide durability contract: once a commit was
    acknowledged to a client in ANY epoch, the transaction (and every
    write the client got an ``ok`` for inside it) is in the FINAL
    primary's recovered history, no matter which node died or which
    links were partitioned in between.
    """
    name = "cluster_no_acked_write_lost"
    final = history.epochs[-1].nodes[0]  # the last epoch's primary
    final_records, final_recovery = final.records, final.recovery
    if final_recovery is None:
        return OracleResult.skip(
            name, "final primary recovery unavailable"
        )
    final_committed = set(final_recovery.committed)
    details: list[str] = []
    acked_by_epoch: list[tuple[int, str]] = []
    for epoch_index, evidence in enumerate(history.epochs, start=1):
        for txn in evidence.acked_committed:
            acked_by_epoch.append((epoch_index, txn))
            if txn not in final_committed:
                details.append(
                    f"epoch {epoch_index}: acked commit {txn} missing "
                    f"from the final primary's recovered history"
                )
    # Write-level: only checkable while the final log still starts at
    # LSN 1 (a snapshot resync on the eventual winner legitimately
    # truncates early history — the commit-level check above stands).
    if (
        final_records
        and final_records[0].lsn == 1
        and not details
    ):
        logged: dict[tuple[str, str], int] = {}
        for record in final_records:
            if record.op == OP_WRITE:
                key = (record.txn, record.data["entity"])
                logged[key] = logged.get(key, 0) + 1
        surviving = {txn for _, txn in acked_by_epoch}
        for epoch_index, evidence in enumerate(history.epochs, start=1):
            for entry in evidence.requests.values():
                if (
                    entry["op"] != "write"
                    or entry["status"] != "ok"
                    or entry["txn"] not in surviving
                ):
                    continue
                key = (entry["txn"], entry["entity"])
                if logged.get(key, 0) < 1:
                    details.append(
                        f"epoch {epoch_index}: acked write on "
                        f"{key[0]}/{key[1]} left no WAL record in the "
                        f"final primary"
                    )
    return OracleResult(name, not details, details)


def _bounded_staleness(history: History) -> OracleResult:
    """Follower reads honor their bounds; rejections are honest.

    Every ``ok`` follower read must satisfy the ``max_lag_lsn`` and
    ``min_applied_lsn`` bounds it carried; every ``FOLLOWER_READ``
    rejection must have had a genuinely unsatisfiable bound (or no
    replicated state at all) — a follower may never claim staleness it
    does not have.
    """
    name = "cluster_bounded_staleness"
    details: list[str] = []
    checked = 0
    for evidence in history.epochs:
        for entry in evidence.requests.values():
            if entry["op"] != "follower_read":
                continue
            bounds = entry.get("bounds") or {}
            max_lag = bounds.get("max_lag_lsn")
            min_applied = bounds.get("min_applied_lsn")
            where = (
                f"client {entry['client']} rid {entry['rid']} "
                f"on {entry.get('node')}"
            )
            if entry["status"] == "ok":
                checked += 1
                lag = entry.get("lag_lsn")
                applied = entry.get("applied_lsn")
                if (
                    max_lag is not None
                    and isinstance(lag, int)
                    and lag > max_lag
                ):
                    details.append(
                        f"{where}: served with lag_lsn {lag} over "
                        f"max_lag_lsn {max_lag}"
                    )
                if (
                    min_applied is not None
                    and isinstance(applied, int)
                    and applied < min_applied
                ):
                    details.append(
                        f"{where}: served at applied_lsn {applied} "
                        f"behind min_applied_lsn {min_applied} "
                        f"(read-your-writes)"
                    )
            elif entry["status"] == "error:FOLLOWER_READ":
                checked += 1
                reported = entry.get("error_details") or {}
                lag = reported.get("lag_lsn")
                applied = reported.get("applied_lsn")
                honest = (
                    # No replicated state yet: always refusable.
                    applied == 0
                    or (
                        max_lag is not None
                        and isinstance(lag, int)
                        and lag > max_lag
                    )
                    or (
                        min_applied is not None
                        and isinstance(applied, int)
                        and applied < min_applied
                    )
                )
                if not honest:
                    details.append(
                        f"{where}: rejected as stale at applied_lsn "
                        f"{applied} lag_lsn {lag} though its bounds "
                        f"(max_lag_lsn {max_lag}, min_applied_lsn "
                        f"{min_applied}) were satisfiable"
                    )
    if checked == 0:
        return OracleResult.skip(
            name, "no follower reads in this run"
        )
    return OracleResult(name, not details, details)


def _promotion_continuity(history: History) -> OracleResult:
    """Promotion extends history; it never rewrites it.

    The committed order the promotion gate recovered on the winner
    must be a prefix of the committed order the final recovery sees —
    epoch 2 may only append.
    """
    name = "cluster_promotion_continuity"
    baseline_committed = history.epochs[-1].baseline_committed
    final_recovery = history.epochs[-1].nodes[0].recovery
    if baseline_committed is None:
        return OracleResult.skip(name, "no promotion in this run")
    if final_recovery is None:
        return OracleResult.skip(
            name, "final primary recovery unavailable"
        )
    final = list(final_recovery.committed)
    if final[: len(baseline_committed)] != list(baseline_committed):
        return OracleResult(
            name,
            False,
            [
                "promotion baseline is not a prefix of the final "
                f"history: baseline {baseline_committed!r} vs final "
                f"{final[: len(baseline_committed)]!r}"
            ],
        )
    return OracleResult(name, True)


def _fresh(evidence: Any) -> bool:
    """The epoch began on a fresh primary, not a promoted follower.

    ``write_multiplicity`` judges only such epochs: acked writes of
    transactions the dead primary never committed may be legitimately
    absent from the winner's log; epoch 1 checked them against the
    survivor copy, and ``cluster_no_acked_write_lost`` covers committed
    writes.  A promoted primary is replicated, hence single-shard:
    ``cross_shard_atomicity`` has nothing to judge on it.
    """
    return evidence.baseline_committed is None


def _cluster(history: History) -> bool:
    """The run modeled a cluster: nodes behind a network."""
    return history.network is not None


#: Name -> row, in canonical evaluation order.
ORACLES: "dict[str, Oracle]" = {
    "no_deadlock": Oracle(_no_deadlock),
    "replies_complete": Oracle(_replies_complete),
    "write_multiplicity": Oracle(_write_multiplicity, applies=_fresh),
    "recovery_verified": Oracle(_recovery_verified),
    "committed_prefix": Oracle(_committed_prefix),
    "cross_shard_atomicity": Oracle(
        _cross_shard_atomicity, applies=_fresh
    ),
    "history_rc": Oracle(_history_rc),
    "classifier_lattice": Oracle(_classifier_lattice),
    "protocol_verify": Oracle(_protocol_verify),
    "metrics_consistent": Oracle(_metrics_consistent),
    "acked_commits_survive_promotion": Oracle(
        _acked_commits_survive_promotion
    ),
    "prefix_consistency": Oracle(_prefix_consistency),
    "cluster_no_acked_write_lost": Oracle(
        _no_acked_write_lost, CLUSTER, _cluster
    ),
    "cluster_bounded_staleness": Oracle(
        _bounded_staleness, CLUSTER, _cluster
    ),
    "cluster_promotion_continuity": Oracle(
        _promotion_continuity, CLUSTER, _cluster
    ),
}
