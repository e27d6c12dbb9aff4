#!/usr/bin/env python3
"""Per-request cost of ``repro serve``'s wire path, read off the process.

Spawns ``python -m repro serve --port 0 --workload oltp`` (in memory)
from the tree on ``PYTHONPATH`` and drives it over one blocking socket
(:class:`repro.server.Client`), one request at a time:

``ping``  ``--n`` pings;
``oltp``  ``--n`` oltp transactions (``repro.workload.build_workload``
          with ``--seed``), each defined, validated, run read by write
          and committed before the next one starts.

Around each phase it reads the server's minor page faults and CPU time
(user + system) from ``/proc/<pid>/stat`` and prints them per request,
beside the client-side wall time per request.  The faults are the
figure to watch: a server whose socket reads allocate a fresh large
chunk each time takes about two per request.

    PYTHONPATH=src python tools/wire_cost.py
    PYTHONPATH=src python tools/wire_cost.py --n 5000 --seed 3

It uses the wire protocol and the public workload surface only, so it
runs unchanged against an older checkout
(``PYTHONPATH=/path/to/parent/src``).  Linux only (``/proc``).
"""

from __future__ import annotations

import argparse
import os
import re
import signal
import subprocess
import sys
import time

_LISTENING = re.compile(r"listening on [\d.]+:(\d+)")
_TICKS = os.sysconf("SC_CLK_TCK")


def _faults_and_cpu(pid: int) -> tuple[int, float]:
    """``(minor faults, CPU seconds)`` of ``pid`` so far."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
        # Fields after the parenthesised command name; minflt is field
        # 10 and utime/stime are 14/15 of proc(5), 1-based.
        fields = stat.read().rsplit(")", 1)[1].split()
    return int(fields[7]), (int(fields[11]) + int(fields[12])) / _TICKS


def _spawn(transactions: int, seed: int) -> tuple[subprocess.Popen, int]:
    popen = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--workload", "oltp", "--transactions", str(transactions),
            "--seed", str(seed),
        ],
        stdout=subprocess.PIPE,
        text=True,
    )
    assert popen.stdout is not None
    for line in popen.stdout:
        match = _LISTENING.search(line)
        if match:
            return popen, int(match.group(1))
    popen.wait()
    raise SystemExit(f"repro serve exited with {popen.returncode}")


def _run_pings(client, count: int) -> int:
    for _ in range(count):
        client.ping()
    return count


def _run_oltp(client, workload) -> int:
    """Every script serially, start to commit; the requests sent."""
    requests = 0
    for script in workload.scripts:
        txn = script.to_txn()
        name = client.define(txn.updates, txn.input, txn.output)
        client.validate(name)
        requests += 3  # define, validate, commit
        values: dict[str, int] = {}
        for op, *operands in txn.ops:
            if op == "read":
                values[operands[0]] = client.read(name, operands[0])
                requests += 1
            elif op == "bump":
                entity, source, delta, high = operands[:4]
                value = min(high, values.get(source, 0) + delta)
                client.write(name, entity, value)
                requests += 1
        client.commit(name)
    return requests


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--n", type=int, default=2000,
                        help="pings, and oltp transactions (default 2000)")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    from repro.server import Client
    from repro.workload import build_workload

    workload = build_workload("oltp", transactions=args.n, seed=args.seed)
    popen, port = _spawn(args.n, args.seed)
    try:
        client = Client.connect("127.0.0.1", port)
        client.ping()
        phases = (
            ("ping", lambda: _run_pings(client, args.n)),
            ("oltp", lambda: _run_oltp(client, workload)),
        )
        print("phase  requests  minflt/req  cpu_us/req  wall_us/req")
        for label, phase in phases:
            faults, cpu = _faults_and_cpu(popen.pid)
            started = time.perf_counter()
            requests = phase()
            wall = time.perf_counter() - started
            faults_after, cpu_after = _faults_and_cpu(popen.pid)
            print(
                f"{label:<6} {requests:>8}  "
                f"{(faults_after - faults) / requests:>10.2f}  "
                f"{(cpu_after - cpu) * 1e6 / requests:>10.1f}  "
                f"{wall * 1e6 / requests:>11.1f}"
            )
        client.close()
    finally:
        popen.send_signal(signal.SIGINT)
        try:
            popen.wait(10)
        except subprocess.TimeoutExpired:
            popen.kill()
            popen.wait()
        if popen.stdout is not None:
            popen.stdout.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
