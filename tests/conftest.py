"""Shared fixtures for the test suite."""

import signal
from contextlib import contextmanager

import pytest

from repro.net.topology import RACK, make_fabric
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def fabric(sim):
    """A rack fabric with one client and one server host."""
    return make_fabric(sim, RACK, ["client", "server"])


def run(sim, generator, limit=1e7):
    """Drive a generator to completion; returns its value."""
    return sim.run_until_complete(sim.spawn(generator), limit=limit)


@pytest.fixture
def drive():
    return run


@contextmanager
def _wall_cap(seconds):
    """Raise :class:`TimeoutError` in the body once ``seconds`` of host
    time have passed: a run that used to hang fails instead."""
    def expire(_signum, _frame):
        raise TimeoutError(f"over the {seconds} s wall cap")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def wall_cap():
    """``with wall_cap(seconds): ...`` — a host-time cap on the body."""
    return _wall_cap
