"""Time limits shared by every test module.

A test, or the import and parametrization of a test module, that runs past
60 s fails, so a hang cannot stall the suite; the slowest test takes about
2 s.  The limit is a SIGALRM timer, so where SIGALRM is missing (Windows)
there is none.
"""

import signal
from contextlib import contextmanager

import pytest

LIMIT_S = 60


class TimeLimitExceeded(BaseException):
    """Not an Exception, so neither the code under test nor Hypothesis's
    shrinker catches it and runs on."""


@contextmanager
def _time_limit(what: str):
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeLimitExceeded(f"{what} ran past its {LIMIT_S} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(autouse=True)
def time_limit():
    with _time_limit("the test"):
        yield


@pytest.hookimpl(wrapper=True)
def pytest_make_collect_report(collector):
    # modules only: session and directory collection nest module collection
    if not isinstance(collector, pytest.Module):
        return (yield)
    with _time_limit(f"collecting {collector.nodeid}"):
        return (yield)
