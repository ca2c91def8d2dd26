"""End-to-end system builders and closed-loop measurement points.

Every figure point is an independent, deterministic simulation: build
the fabric and servers fresh, bulk-load the data, attach N closed-loop
clients spread over the paper's 11 client machines, run
warmup + measurement, and report a :class:`RunResult`.

``flavor`` selects the paper's comparison systems:

========  =====================================  =========================
kind      flavor                                 system
========  =====================================  =========================
kv        prism-sw / prism-hw / prism-bluefield  PRISM-KV on that backend
kv        pilaf-hw / pilaf-sw                    Pilaf on hw/sw RDMA
rs        prism-sw / prism-hw                    PRISM-RS
rs        abdlock-hw / abdlock-sw                lock-based ABD
tx        prism-sw / prism-hw                    PRISM-TX
tx        farm-hw / farm-sw                      FaRM
========  =====================================  =========================
"""

import gc
import time

from repro.apps.blockstore import (
    AbdLockClient,
    AbdLockReplica,
    PrismRsClient,
    PrismRsReplica,
)
from repro.apps.kv import PilafClient, PilafServer, PrismKvClient, PrismKvServer
from repro.apps.tx import FarmClient, FarmServer, PrismTxClient, PrismTxServer
from repro.net.topology import RACK, make_fabric
from repro.prism import (
    BlueFieldPrismBackend,
    HardwarePrismBackend,
    HardwareRdmaBackend,
    SoftwarePrismBackend,
    SoftwareRdmaBackend,
)
from repro.sim import Simulator
from repro.workload.driver import ClosedLoopDriver, OpenLoopDriver
from repro.workload.sources import AggregatedOpenLoopSource, partition_clients

N_CLIENT_HOSTS = 11  # the paper's testbed: up to 11 client machines

_PRISM_BACKENDS = {
    "prism-sw": SoftwarePrismBackend,
    "prism-hw": HardwarePrismBackend,
    "prism-bluefield": BlueFieldPrismBackend,
}
_RDMA_BACKENDS = {
    "hw": HardwareRdmaBackend,
    "sw": SoftwareRdmaBackend,
}

DEFAULT_N_KEYS = 20_000
DEFAULT_VALUE_SIZE = 512


def _client_hosts(n):
    return [f"client{i}" for i in range(n)]


#: every 8-byte run ``(key * 31 + i) % 256, i < 8`` is one slice of this
_VALUE_PATTERN = bytes(range(256)) * 2


def _value_for(key, value_size):
    """The ``value_size`` bytes bulk-loaded for ``key``: its 8-byte
    pattern, repeated and cut."""
    start = key * 31 % 256
    return (_VALUE_PATTERN[start:start + 8]
            * -(-value_size // 8))[:value_size]


#: keys per ``load_many`` call: bounds the values alive at once
LOAD_CHUNK = 1024


def _load(servers, n_keys, value_size):
    """Bulk-load keys ``0 .. n_keys - 1`` into every server, in key
    order, one chunk of ``(key, value)`` pairs at a time; every server
    gets the same chunk, so replicas share each value. A key's value
    depends only on ``key % 256``, so the 256 values are built once."""
    values = [_value_for(key, value_size) for key in range(256)]
    for start in range(0, n_keys, LOAD_CHUNK):
        chunk = [(key, values[key % 256])
                 for key in range(start, min(start + LOAD_CHUNK, n_keys))]
        for server in servers:
            server.load_many(chunk)


class _System:
    """A built system: knows how to hand out client executors."""

    def __init__(self, sim, fabric):
        self.sim = sim
        self.fabric = fabric

    def executor(self, index, host):
        raise NotImplementedError


class KvSystem(_System):
    def __init__(self, sim, fabric, flavor, n_keys, value_size,
                 spare_buffers=4096):
        super().__init__(sim, fabric)
        self.flavor = flavor
        if flavor in _PRISM_BACKENDS:
            self.server = PrismKvServer(sim, fabric, "server",
                                        _PRISM_BACKENDS[flavor],
                                        n_keys=n_keys,
                                        max_value_bytes=value_size,
                                        spare_buffers=spare_buffers)
            self._make = lambda host: PrismKvClient(sim, fabric, host,
                                                    self.server)
        elif flavor in ("pilaf-hw", "pilaf-sw"):
            backend = _RDMA_BACKENDS[flavor.split("-")[1]]
            self.server = PilafServer(sim, fabric, "server", backend,
                                      n_keys=n_keys,
                                      max_value_bytes=value_size)
            self._make = lambda host: PilafClient(sim, fabric, host,
                                                  self.server)
        else:
            raise ValueError(f"unknown kv flavor {flavor!r}")
        _load([self.server], n_keys, value_size)

    def executor(self, index, host):
        return self._make(host).execute


class RsSystem(_System):
    N_REPLICAS = 3

    def __init__(self, sim, fabric, flavor, n_keys, value_size,
                 spare_buffers=4096):
        super().__init__(sim, fabric)
        self.flavor = flavor
        names = [f"replica{i}" for i in range(self.N_REPLICAS)]
        if flavor in _PRISM_BACKENDS:
            self.replicas = [
                PrismRsReplica(sim, fabric, name, _PRISM_BACKENDS[flavor],
                               n_blocks=n_keys, block_size=value_size,
                               spare_buffers=spare_buffers)
                for name in names]
            self._make = lambda host, cid: PrismRsClient(
                sim, fabric, host, self.replicas, client_id=cid)
        elif flavor in ("abdlock-hw", "abdlock-sw"):
            backend = _RDMA_BACKENDS[flavor.split("-")[1]]
            self.replicas = [
                AbdLockReplica(sim, fabric, name, backend,
                               n_blocks=n_keys, block_size=value_size)
                for name in names]
            self._make = lambda host, cid: AbdLockClient(
                sim, fabric, host, self.replicas, client_id=cid, seed=cid)
        else:
            raise ValueError(f"unknown rs flavor {flavor!r}")
        _load(self.replicas, n_keys, value_size)

    def executor(self, index, host):
        return self._make(host, index + 1).execute


class TxSystem(_System):
    def __init__(self, sim, fabric, flavor, n_keys, value_size,
                 spare_buffers=4096):
        super().__init__(sim, fabric)
        self.flavor = flavor
        if flavor in _PRISM_BACKENDS:
            self.server = PrismTxServer(sim, fabric, "server",
                                        _PRISM_BACKENDS[flavor],
                                        n_keys=n_keys, value_size=value_size,
                                        spare_buffers=spare_buffers)
            self._make = lambda host, cid: PrismTxClient(
                sim, fabric, host, self.server, client_id=cid)
        elif flavor in ("farm-hw", "farm-sw"):
            backend = _RDMA_BACKENDS[flavor.split("-")[1]]
            self.server = FarmServer(sim, fabric, "server", backend,
                                     n_keys=n_keys, value_size=value_size)
            self._make = lambda host, cid: FarmClient(
                sim, fabric, host, self.server, client_id=cid, seed=cid)
        else:
            raise ValueError(f"unknown tx flavor {flavor!r}")
        _load([self.server], n_keys, value_size)

    def executor(self, index, host):
        return self._make(host, index + 1).execute


_KINDS = {"kv": KvSystem, "rs": RsSystem, "tx": TxSystem}
_SERVER_HOSTS = {
    "kv": ["server"],
    "rs": [f"replica{i}" for i in range(RsSystem.N_REPLICAS)],
    "tx": ["server"],
}


def build_system(kind, flavor, sim, n_keys=DEFAULT_N_KEYS,
                 value_size=DEFAULT_VALUE_SIZE, profile=RACK,
                 n_client_hosts=N_CLIENT_HOSTS, spare_buffers=4096):
    """Create fabric + servers + loaded data; returns the system."""
    hosts = _SERVER_HOSTS[kind] + _client_hosts(n_client_hosts)
    fabric = make_fabric(sim, profile, hosts)
    return _KINDS[kind](sim, fabric, flavor, n_keys, value_size,
                        spare_buffers=spare_buffers)


#: the observer keywords :func:`run_point` takes, in install order;
#: ``faults`` marks where the fault plan installs among them
INSTALL_ORDER = ("hostprof", "flight", "series", "views", "primitives",
                 "faults", "tracer", "utilization")


def run_point(kind, flavor, workload_factory, n_clients,
              n_keys=DEFAULT_N_KEYS, value_size=DEFAULT_VALUE_SIZE,
              warmup_us=300.0, measure_us=1500.0, profile=RACK,
              n_client_hosts=N_CLIENT_HOSTS, faults=None,
              source_model=None, **observers):
    """One deterministic measurement point.

    ``workload_factory(client_index)`` builds each client's workload.

    ``source_model`` switches the point from N closed-loop client
    coroutines to **aggregated open-loop arrival sources** (see
    :mod:`repro.workload.sources`): a dict with at least
    ``rate_per_client_ops_s``, plus optional ``read_fraction`` /
    ``zipf`` / ``seed`` / ``window`` / ``n_sources``. ``n_clients``
    then counts *modeled* clients (10⁵–10⁶ is fine), spread over
    ``n_sources`` coroutines (default: one per client host), and
    ``workload_factory`` is unused — the source draws its own keys.
    The model is recorded in ``result.extra["source_model"]``.

    ``faults`` takes a :class:`repro.faults.FaultPlan` (or a spec
    string for :func:`repro.faults.parse_faults`): the run then
    suffers the plan's seeded message loss/duplication/jitter, crash
    schedule, and free-list starvation, clients adopt the plan's retry
    policy, and the injector's counters land in
    ``result.extra["faults"]`` — the goodput-under-faults report.

    ``observers`` are :mod:`repro.obs` collectors by keyword
    (``tracer``, ``utilization``, ``hostprof``, ``primitives``,
    ``flight``, ``series``, ``views``; None is off, any other keyword a
    ``TypeError``). Each is told the measurement geometry
    (``configure``), attached before the system is built, and closed
    (``finish``) after the run; none changes simulated timing — they
    only observe transitions the run already makes — and their reports
    are the caller's to read afterwards.
    """
    unknown = sorted(set(observers) - set(INSTALL_ORDER))
    if unknown:
        raise TypeError("run_point() got an unexpected keyword argument "
                        f"{unknown[0]!r}")
    setup_start = time.perf_counter()
    sim = Simulator()
    attached = []
    for name in INSTALL_ORDER:
        if name == "faults":
            if isinstance(faults, str):
                from repro.faults import parse_faults
                faults = parse_faults(faults)
            if faults is not None:
                sim.set_faults(faults)
        elif observers.get(name) is not None:
            observers[name].configure(warmup_us, measure_us)
            attached.append(sim.attach(observers[name]))
    if source_model is not None:
        spec = dict(source_model)
        n_sources = min(spec.pop("n_sources", n_client_hosts), n_clients)
        rate = spec.pop("rate_per_client_ops_s")
        sources = [
            AggregatedOpenLoopSource(
                chunk, rate, n_keys,
                read_fraction=spec.get("read_fraction", 1.0),
                value_size=value_size, zipf=spec.get("zipf", 0.0),
                seed=spec.get("seed", 0), source_id=i,
                window=spec.get("window"))
            for i, chunk in
            enumerate(partition_clients(n_clients, n_sources))]
        # In-flight concurrency is bounded by the windows, not the
        # modeled population — size the buffer pipeline to the windows.
        concurrency = sum(source.window for source in sources)
    else:
        sources = None
        concurrency = n_clients
    # Spare buffers must cover the recycling pipeline: retired buffers
    # sit in client-side batches and the daemon queue before reposting.
    system = build_system(kind, flavor, sim, n_keys=n_keys,
                          value_size=value_size, profile=profile,
                          n_client_hosts=n_client_hosts,
                          spare_buffers=4096 + 48 * concurrency)
    if sources is not None:
        driver = OpenLoopDriver(sim, warmup_us=warmup_us,
                                measure_us=measure_us, tracer=sim.tracer)
        for index, source in enumerate(sources):
            host = f"client{index % n_client_hosts}"
            driver.add_source(system.executor(index, host), source)
    else:
        driver = ClosedLoopDriver(sim, warmup_us=warmup_us,
                                  measure_us=measure_us, tracer=sim.tracer)
        for index in range(n_clients):
            host = f"client{index % n_client_hosts}"
            driver.add_client(system.executor(index, host),
                              workload_factory(index))
    # The run allocates heavily (events, spans) but retains almost
    # nothing cycle-forming; generational GC passes mid-run are pure
    # overhead. Simulated results are unaffected (GC never changes
    # program semantics), so pause collection for the measured run.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    wall_start = time.perf_counter()
    try:
        result = driver.run()
    finally:
        wall_s = time.perf_counter() - wall_start
        if gc_was_enabled:
            gc.enable()
    result.extra["events_executed"] = sim.events_executed
    # Wall-clock cost of the simulated run itself, and of the set-up
    # before it: the regress schema's ``wall`` section, available on
    # every run — unlike the ``host`` section, which needs --profile.
    # Stored on the equality-excluded fields, not ``extra``: wall time
    # is host-side and must not break exact RunResult comparisons.
    result.wall_s = wall_s
    result.setup_s = wall_start - setup_start
    if sources is not None:
        model = sources[0].describe()
        model["clients"] = n_clients
        model["n_sources"] = len(sources)
        model["windows"] = [source.window for source in sources]
        result.extra["source_model"] = model
    for observer in attached:
        observer.finish(sim.now)
    if sim.faults is not None:
        report = sim.faults.report()
        # Goodput: operations that *completed* per second of measured
        # time, i.e. the throughput that survived the fault plan.
        report["goodput_mops"] = result.throughput_ops_per_sec / 1e6
        result.extra["faults"] = report
    return result


def sweep_clients(kind, flavor, workload_factory, client_counts, **kwargs):
    """Throughput-vs-latency curve: one run_point per client count."""
    return [run_point(kind, flavor, workload_factory, n, **kwargs)
            for n in client_counts]
