"""A time limit for every test, so a test stuck in a loop fails alone.

The stdlib `signal.setitimer` arms SIGALRM around each test; its handler
fails the running test.  Where SIGALRM does not exist (Windows) the limit
is off.  Interval timers are not inherited across fork, so pool workers
are unaffected.
"""

import signal

import pytest

TEST_TIME_LIMIT_S = 120  # the slowest test takes about 10 s


@pytest.fixture(autouse=True)
def _time_limit(request):
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"{request.node.nodeid} ran past {TEST_TIME_LIMIT_S} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
