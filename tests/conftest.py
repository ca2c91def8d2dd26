"""Shared fixtures for the test suite."""

import signal
from contextlib import contextmanager

import pytest

from repro.net.topology import RACK, make_fabric
from repro.sim import Simulator


def pytest_addoption(parser):
    parser.addoption(
        "--tie-seeds", default="1", metavar="SEEDS",
        help="comma-separated seeds of the kernel's same-instant shuffle: "
             "a test that uses the `ties` fixture runs once in the default "
             "tie order and once per seed (default: 1)")


def pytest_generate_tests(metafunc):
    """Parametrise every test that uses ``ties`` over the default order
    (its id unchanged) and each ``--tie-seeds`` seed (``[tiesN]``)."""
    if "ties" not in metafunc.fixturenames:
        return
    seeds = [int(seed) for seed in
             metafunc.config.getoption("tie_seeds").split(",") if seed]
    metafunc.parametrize(
        "ties", [None, *seeds], indirect=True,
        ids=[getattr(pytest, "HIDDEN_PARAM", "default"),
             *(f"ties{seed}" for seed in seeds)])


@pytest.fixture
def ties(request, monkeypatch):
    """The tie seed this run is under, None for the default order. Every
    :class:`Simulator` the test builds — directly or inside
    ``run_point`` — has ``shuffle_ties(seed)`` installed. The contract
    (docs/performance.md, rule 11(e)): a shuffled run may change
    timings, never a verdict, a drain, a free-list balance or a value
    read."""
    seed = request.param
    if seed is not None:
        build = Simulator.__init__

        def shuffled(self):
            build(self)
            self.shuffle_ties(seed)
        monkeypatch.setattr(Simulator, "__init__", shuffled)
    return seed


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
