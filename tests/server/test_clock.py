"""The server stack reads one clock (satellite of the live-path PR).

The load generator used to time requests with ``time.perf_counter``
while the dispatcher stamped queue waits with ``time.monotonic`` —
two clocks with unrelated epochs whose readings cannot be subtracted
from each other.  These tests pin the unified source and the invariant
that every live-path default — and the closed-loop driver behind
``repro loadgen`` — is that same callable.
"""

from __future__ import annotations

import time

from repro.server import clock as clock_module
from repro.server import server, session
from repro.workload import driver


class TestUnifiedClock:
    def test_clock_is_monotonic(self):
        assert clock_module.CLOCK is time.monotonic

    def test_dispatcher_default_is_the_shared_clock(self):
        defaults = session.CommandDispatcher.__init__.__kwdefaults__
        assert defaults["clock"] is clock_module.CLOCK

    def test_modules_share_one_source(self):
        # Driver and server import the same object, not a lookalike.
        assert driver.CLOCK is clock_module.CLOCK
        assert server.CLOCK is clock_module.CLOCK

    def test_loadgen_no_longer_reads_perf_counter(self):
        import inspect

        source = inspect.getsource(driver)
        assert "perf_counter" not in source

    def test_readings_are_comparable(self):
        # Same epoch: two immediate readings differ by microseconds,
        # never by an epoch offset.
        a = clock_module.CLOCK()
        b = clock_module.CLOCK()
        assert 0.0 <= b - a < 1.0
