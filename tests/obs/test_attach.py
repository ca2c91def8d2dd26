"""``Simulator.attach`` is the one installer, for all seven collectors.

The tracer, the utilization collector and the host profiler install
through it like the bus collectors (``tests/obs/test_bus.py``), but
they fold no probe events: attaching one must leave ``sim.bus`` None,
or every hook site of a ``--trace``/``--util`` run would start
emitting.
"""

import pytest

from repro.obs import HostProfiler, Tracer, UtilizationCollector
from repro.obs import hostprof
from repro.sim import Simulator
from repro.sim.events import SimulationError

NON_BUS = [(Tracer, "tracer"), (UtilizationCollector, "utilization"),
           (HostProfiler, "hostprof")]


@pytest.fixture(autouse=True)
def _no_ambient_profiler():
    yield
    hostprof.deactivate()


@pytest.mark.parametrize("collector_class, handle", NON_BUS)
def test_attach_binds_the_handle_and_leaves_the_bus_off(collector_class,
                                                        handle):
    sim = Simulator()
    collector = sim.attach(collector_class())
    assert getattr(sim, handle) is collector
    assert sim.bus is None


@pytest.mark.parametrize("collector_class, handle", NON_BUS)
def test_attach_after_the_run_started_raises(collector_class, handle):
    sim = Simulator()
    before = getattr(sim, handle)

    def proc():
        yield sim.timeout(1.0)

    sim.spawn(proc())
    sim.run()
    with pytest.raises(SimulationError, match="attach"):
        sim.attach(collector_class())
    assert getattr(sim, handle) is before


def test_host_profiler_is_ambient_between_attach_and_finish():
    sim = Simulator()
    profiler = sim.attach(HostProfiler())
    assert hostprof.ACTIVE is profiler
    profiler.finish(sim.now)
    assert hostprof.ACTIVE is None
