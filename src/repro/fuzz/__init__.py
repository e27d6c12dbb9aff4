"""repro.fuzz — a deterministic concurrency fuzzer with oracles.

The paper proves that checking an arbitrary concurrent execution
against explicit consistency predicates is NP-complete (Theorem 1); in
practice the way to trust the server + durability stack is to *search*
— explore as many interleavings and fault schedules as possible and
check each one against the polynomial certificates the protocol
maintains.  This package is that search:

* :mod:`repro.fuzz.plan` — seeds expand to explicit, shrinkable,
  JSON-serializable run plans;
* :mod:`repro.fuzz.loop` — an asyncio event loop on a virtual clock
  (no wall time, no I/O → bit-for-bit reproducible interleavings);
* :mod:`repro.fuzz.harness` — the one deterministic engine (stack
  builder, followers and pumps, transcript, epoch runner, evidence
  collector) that both ``repro fuzz`` and the cluster simulator
  (:mod:`repro.des`) run on;
* :mod:`repro.fuzz.runner` — the one executor (a plan plus its
  network, kill, promotion and tracing, as data) and the reports;
* :mod:`repro.fuzz.oracles` — the one check registry every run of
  either front is judged by;
* :mod:`repro.fuzz.shrink` — delta-debugging to a minimal reproducer;
* :mod:`repro.fuzz.corpus` — seed ranges, reproducer files, exit
  codes (``repro fuzz`` / ``repro fuzz replay``).
"""

from .corpus import (
    EXIT_CLEAN,
    EXIT_HARNESS_ERROR,
    EXIT_VIOLATION,
    CorpusResult,
    load_reproducer,
    replay_file,
    run_corpus,
    run_seed,
    save_reproducer,
)
from .loop import FuzzDeadlockError, VirtualClockLoop, run_virtual
from .oracles import OracleResult, run_oracles
from .plan import ClientPlan, FuzzPlan, generate_plan
from .runner import Evidence, RunResult, execute_plan, fuzz_database
from .shrink import shrink_plan

__all__ = [
    "ClientPlan",
    "CorpusResult",
    "EXIT_CLEAN",
    "EXIT_HARNESS_ERROR",
    "EXIT_VIOLATION",
    "Evidence",
    "FuzzDeadlockError",
    "FuzzPlan",
    "OracleResult",
    "RunResult",
    "VirtualClockLoop",
    "execute_plan",
    "fuzz_database",
    "generate_plan",
    "load_reproducer",
    "replay_file",
    "run_corpus",
    "run_oracles",
    "run_seed",
    "run_virtual",
    "save_reproducer",
    "shrink_plan",
]
