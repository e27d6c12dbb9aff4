"""The system under test as users run it: ``repro serve`` subprocesses.

A :class:`Fleet` owns every process and every temporary directory of
one run.  Servers listen on loopback with ephemeral ports and keep
their WALs under a per-run directory inside the checkout; ``close()``
reaps every child on every exit path (SIGINT, then SIGKILL after five
seconds) and removes the directory.
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SUITE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SUITE_DIR.parents[1]
SRC_DIR = REPO_ROOT / "src"
#: Everything a run writes lives here (listed in .gitignore).
TMP_DIR = SUITE_DIR / ".tmp"

_LISTENING = re.compile(r"listening on [\d.]+:(\d+)")
_REPL = re.compile(r"\(repl: [\d.]+:(\d+)")
SPAWN_TIMEOUT_S = 30.0
REAP_GRACE_S = 5.0


class ServerProc:
    """One ``repro serve`` child and what it printed on start-up."""

    def __init__(self, popen: subprocess.Popen) -> None:
        self.popen = popen
        self.port = 0
        self.repl_port: int | None = None

    @property
    def pid(self) -> int:
        return self.popen.pid

    def rss_high_water_mb(self) -> float:
        """Peak resident set (VmHWM) of the live process, in MiB."""
        with open(f"/proc/{self.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError(f"no VmHWM for pid {self.pid}")

    def kill(self) -> float:
        """SIGKILL and reap; returns seconds from signal to reaped."""
        started = time.perf_counter()
        self.popen.kill()
        self.popen.wait()
        return time.perf_counter() - started


def live_children() -> list[int]:
    """Pids of this process's live (non-zombie) children."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # exited while we looked
        state, parent = fields[0], int(fields[1])
        if parent == me and state != "Z":
            found.append(int(entry))
    return found


def tree_bytes(directory: Path) -> int:
    """Bytes of every regular file under ``directory``."""
    return sum(
        path.stat().st_size
        for path in directory.rglob("*")
        if path.is_file()
    )


class Fleet:
    """Every server process and temp directory of one workload run."""

    def __init__(self) -> None:
        TMP_DIR.mkdir(exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_DIR))
        self._procs: list[ServerProc] = []
        self._log = open(self.root / "servers.stderr", "wb")

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def wal_dir(self, name: str) -> Path:
        return self.root / name

    def spawn(self, *serve_args: str) -> tuple[ServerProc, float]:
        """Start ``python -m repro serve`` and wait until it listens.

        Returns the server and the ``perf_counter`` reading taken just
        before the process was created; the caller stops that clock at
        its first answered ping.
        """
        args = [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            *serve_args,
        ]
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        started = time.perf_counter()
        popen = subprocess.Popen(
            args,
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=env,
            text=True,
            cwd=self.root,
        )
        server = ServerProc(popen)
        self._procs.append(server)
        assert popen.stdout is not None
        deadline = started + SPAWN_TIMEOUT_S
        while True:
            line = popen.stdout.readline()
            match = _LISTENING.search(line)
            if match:
                server.port = int(match.group(1))
                repl = _REPL.search(line)
                if repl:
                    server.repl_port = int(repl.group(1))
                return server, started
            if not line or time.perf_counter() > deadline:
                raise RuntimeError(
                    f"repro serve {' '.join(serve_args)} did not start; "
                    f"stderr: {self.stderr_tail()}"
                )

    def stderr_tail(self) -> str:
        self._log.flush()
        text = (self.root / "servers.stderr").read_text(errors="replace")
        return text[-2000:]

    @staticmethod
    def _reap(server: ServerProc, deadline: float) -> None:
        """Wait for a signalled server until ``deadline``, then SIGKILL."""
        try:
            server.popen.wait(max(0.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            server.popen.kill()
            server.popen.wait()
        if server.popen.stdout is not None:
            server.popen.stdout.close()

    def stop(self, *servers: ServerProc) -> None:
        """Graceful stop: SIGINT (drain), SIGKILL after the grace."""
        for server in servers:
            if server.popen.poll() is None:
                server.popen.send_signal(signal.SIGINT)
        deadline = time.perf_counter() + REAP_GRACE_S
        for server in servers:
            self._reap(server, deadline)

    def close(self) -> None:
        self.stop(*self._procs)
        self._procs.clear()
        self._log.close()
        shutil.rmtree(self.root, ignore_errors=True)


def run_recover_verify(wal_dir: Path) -> int:
    """``repro recover --wal-dir DIR --verify`` as a user would; exit code."""
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    completed = subprocess.run(
        [
            sys.executable, "-m", "repro", "recover",
            "--wal-dir", str(wal_dir), "--verify",
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        timeout=60,
    )
    return completed.returncode
