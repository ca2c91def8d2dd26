"""CPU core pools.

Two-sided RPC handlers occupy cores for a per-operation service time
(the software PRISM stack's dedicated cores are the same kind of
``Resource``, held directly by its device executions — see
``repro.prism.backend``); when offered load exceeds core capacity the
queueing delay shows up directly in the measured latency curves, which
is how the paper's saturation knees arise when the CPU (rather than the
network) is the bottleneck.
"""

from repro.obs.trace import NULL_SPAN
from repro.sim.resources import Resource


class CorePool:
    """A pool of identical cores, FIFO-scheduled."""

    def __init__(self, sim, cores, name="cpu"):
        self.sim = sim
        self.cores = cores
        self.name = name
        # kind="cpu": with a utilization collector installed, the pool
        # self-registers so core busy %, run-queue depth, and dispatch
        # delay show up in the per-run report and bottleneck verdict.
        self._pool = Resource(sim, capacity=cores, name=name, kind="cpu")
        self.ops_executed = 0

    def execute(self, service_time_us, work=None, span=NULL_SPAN):
        """Process helper: occupy one core for ``service_time_us``.

        ``work``, if given, is a plain callable run at the *end* of the
        service interval (when the simulated instruction stream would
        have completed); its return value is this generator's value.

        ``span`` parents a queue span (waiting for a free core) and a
        cpu span (the service interval) for tracing.
        """
        with span.child(f"{self.name}.queue", phase="queue"):
            yield self._pool.acquire()
        try:
            with span.child(f"{self.name}.exec", phase="cpu"):
                yield self.sim.timeout(service_time_us)
            self.ops_executed += 1
            if work is not None:
                return work()
            return None
        finally:
            self._pool.release()

    @property
    def queue_length(self):
        return self._pool.queue_length

    def utilization(self, elapsed):
        """Mean busy fraction over ``elapsed`` microseconds."""
        return self._pool.utilization(elapsed)
