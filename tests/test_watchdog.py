"""The per-test watchdog of conftest fails a test that runs past its limit."""

import signal
import time

import pytest

from conftest import WatchdogExpired


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="the watchdog needs SIGALRM")
@pytest.mark.watchdog(0.2)
def test_watchdog_stops_a_busy_loop_past_its_limit(request):
    # the loop stops itself after 5 s, so a watchdog that never fires fails
    # this test instead of hanging it
    deadline = time.monotonic() + 5
    with pytest.raises(WatchdogExpired, match=request.node.name):
        while time.monotonic() < deadline:
            pass
    assert time.monotonic() < deadline
