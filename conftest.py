"""Pytest settings shared by `tests` and `perfbench/tests`: each test runs
under a wall-clock limit, so a kernel that loops forever fails its test with
a TimeoutError instead of hanging the run."""

import signal

import pytest

TEST_TIME_LIMIT_S = 60


@pytest.fixture(autouse=True)
def time_limit():
    """Arm SIGALRM for TEST_TIME_LIMIT_S seconds around each test and raise
    TimeoutError in the test when it fires; where the platform has no
    SIGALRM, tests run without a limit."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"test ran longer than its {TEST_TIME_LIMIT_S} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
