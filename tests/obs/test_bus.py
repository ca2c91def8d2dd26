"""The probe bus: install contract, fan-out, vocabulary, and wiring.

* **Mechanics** — ``sim.bus`` is None until something is attached, a
  late ``attach`` raises, one emit reaches every subscriber exactly
  once in attach order, and an unsubscribed kind is a no-op.
* **Source scans** — no data-path module names a collector, and every
  ``emit`` in the tree matches a row of the vocabulary table (kind,
  field count, emitting module).
* **One emission, one count** — an ack timeout is counted once, at the
  ``req.timeout`` emission point, so the channel, the fault report, the
  series windows and the views all agree; a chain's abort reason is
  computed once, so primitives and the flight log label it alike.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

from repro.apps.kv import PrismKvClient, PrismKvServer
from repro.core import CasOp, ReadOp, WriteOp
from repro.faults import parse_faults
from repro.net.topology import RACK, make_fabric
from repro.obs import (
    FlightRecorder,
    PrimitiveCollector,
    SeriesCollector,
    ViewCollector,
)
from repro.obs.bus import VOCABULARY, Bus
from repro.prism import PrismClient, PrismServer, SoftwarePrismBackend
from repro.sim import Simulator, TimeoutExpired
from repro.sim.events import SimulationError

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


# -- mechanics ---------------------------------------------------------------


class _Recorder:
    """A minimal collector: appends ``(tag, kind, fields)`` to a log."""

    def __init__(self, tag, log):
        self.tag = tag
        self.log = log

    def bind(self, sim):
        return self

    def subscribe(self, bus):
        bus.subscribe("app.key", lambda *fields:
                      self.log.append((self.tag, "app.key", fields)))


class TestBusMechanics:
    def test_bus_is_none_until_something_attaches(self):
        sim = Simulator()
        assert sim.bus is None
        sim.attach(PrimitiveCollector())
        assert isinstance(sim.bus, Bus)

    def test_attach_after_the_first_event_raises(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(1.0)

        sim.spawn(proc())
        sim.run()
        with pytest.raises(SimulationError, match="attach"):
            sim.attach(PrimitiveCollector())
        assert sim.bus is None

    def test_one_emit_reaches_every_subscriber_once_in_attach_order(self):
        sim = Simulator()
        log = []
        for tag in ("first", "second", "third"):
            sim.attach(_Recorder(tag, log))
        sim.bus.emit("app.key", "kv", "get", 7)
        assert log == [(tag, "app.key", ("kv", "get", 7))
                       for tag in ("first", "second", "third")]

    def test_unsubscribed_kind_is_a_noop(self):
        sim = Simulator()
        log = []
        sim.attach(_Recorder("only", log))
        sim.bus.emit("req.send", 1, 2, "server", "prism")
        assert log == []

    def test_subscribing_to_an_unknown_kind_raises(self):
        with pytest.raises(KeyError, match="VOCABULARY"):
            Bus().subscribe("no.such.kind", print)


# -- source scans --------------------------------------------------------------

COLLECTOR_HANDLES = {"primitives", "series", "flight", "views"}


def _data_path_modules():
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if relative.startswith(("obs/", "bench/")) \
                or relative == "sim/kernel.py":
            continue
        yield relative, ast.parse(path.read_text())


def test_no_data_path_module_names_a_collector():
    """Hook sites see ``bus`` only. The one allowed reader is
    ``PrismClient.views``, the handle app code queries mid-run."""
    offenders = []
    for relative, tree in _data_path_modules():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and node.attr in COLLECTOR_HANDLES):
                if relative == "prism/client.py" and node.attr == "views":
                    continue
                offenders.append(f"{relative}:{node.lineno} .{node.attr}")
    assert not offenders, offenders


def test_no_module_outside_obs_reads_the_flight_recorder():
    """A span names its operation, so nothing outside the collectors
    (and the bench front end that reports them) asks the recorder who
    is executing: no module reads ``.flight`` — the kernel only
    initialises the handle — or keeps a ``_flight_ctx``."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if relative.startswith(("obs/", "bench/")):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr == "flight"
                    and not isinstance(node.ctx, ast.Store)):
                offenders.append(f"{relative}:{node.lineno} reads .flight")
            named = (node.attr if isinstance(node, ast.Attribute) else
                     node.id if isinstance(node, ast.Name) else
                     node.arg if isinstance(node, ast.arg) else
                     node.value if isinstance(node, ast.Constant) else None)
            if named == "_flight_ctx":
                offenders.append(f"{relative}:{node.lineno} _flight_ctx")
    assert not offenders, offenders


def _emit_calls():
    """``(module, lineno, kinds, n_fields)`` for every ``*.emit(...)``
    under ``src/repro``; ``n_fields`` is None when the call splats."""
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).with_suffix("").as_posix() \
            .replace("/", ".")
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "emit" and node.args):
                continue
            kinds = [c.value for c in ast.walk(node.args[0])
                     if isinstance(c, ast.Constant)
                     and isinstance(c.value, str)]
            fields = node.args[1:]
            splat = any(isinstance(arg, ast.Starred) for arg in fields)
            yield module, node.lineno, kinds, None if splat else len(fields)


def test_every_emit_matches_the_vocabulary_table():
    emitted = set()
    for module, lineno, kinds, n_fields in _emit_calls():
        if module == "obs.bus":
            continue
        where = f"{module}:{lineno}"
        assert kinds, f"{where}: emit kind must be a string literal"
        for kind in kinds:
            assert kind in VOCABULARY, f"{where}: {kind!r} has no row"
            fields, emitter = VOCABULARY[kind]
            assert emitter == module, f"{where}: {kind!r} row says {emitter}"
            if n_fields is not None:
                assert n_fields == len(fields.split()), \
                    f"{where}: {kind!r} carries {fields!r}"
            emitted.add(kind)
    assert emitted == set(VOCABULARY), \
        f"rows nothing emits: {sorted(set(VOCABULARY) - emitted)}"


def test_conn_is_always_the_last_field():
    for kind, (fields, _emitter) in VOCABULARY.items():
        assert "conn" not in fields.split()[:-1], kind


# -- one emission, one count -------------------------------------------------


def test_unretried_put_timeouts_are_counted_everywhere():
    """A PRISM-KV PUT under a plan that allows no retransmission
    (``retries=0``): its ack timeout surfaces as ``TimeoutExpired``. That
    expiry must show in every tally, not only the bus subscribers'."""
    sim = Simulator()
    series = sim.attach(SeriesCollector())
    views = sim.attach(ViewCollector())
    faults = sim.set_faults(parse_faults("seed=7,drop=0.2,retries=0"))
    fabric = make_fabric(sim, RACK, ["server", "c0"])
    server = PrismKvServer(sim, fabric, "server", SoftwarePrismBackend,
                           n_keys=64, max_value_bytes=128)
    client = PrismKvClient(sim, fabric, "c0", server)
    expired = []

    def main():
        for key in range(40):
            try:
                yield from client.put(key, b"v" * 32)
            except TimeoutExpired as exc:
                expired.append(exc)

    sim.run_until_complete(sim.spawn(main()))
    series.finish(sim.now)
    channel = client.client.channel
    assert expired, "the drop plan must defeat at least one PUT"
    assert channel.timeouts >= len(expired)
    assert faults.report()["timeouts"] == channel.timeouts
    assert sum((w.get("counters") or {}).get("timeouts", 0)
               for w in series.report()["windows"]) == channel.timeouts
    assert views.report()["signals"]["timeout"]["total"] == channel.timeouts


def test_abort_reason_is_the_same_for_every_consumer(drive):
    sim = Simulator()
    primitives = sim.attach(PrimitiveCollector())
    flight = sim.attach(FlightRecorder())
    fabric = make_fabric(sim, RACK, ["server", "c0"])
    server = PrismServer(sim, fabric, "server", SoftwarePrismBackend)
    addr, rkey = server.add_region(128)
    client = PrismClient(sim, fabric, "c0", server)
    miss = CasOp(target=addr, data=(9).to_bytes(8, "little"), rkey=rkey,
                 compare_data=(1).to_bytes(8, "little"))

    def main():
        # NAK chain: out-of-region READ, then a skipped successor.
        yield from client.execute(
            ReadOp(addr=addr + 4096, length=8, rkey=rkey),
            WriteOp(addr=addr, data=b"x" * 8, rkey=rkey, conditional=True))
        # CAS-miss chain (memory is zero, comparand is 1).
        yield from client.execute(miss)
        # Skipped-successor chain: the miss suppresses the WRITE.
        yield from client.execute(
            miss,
            WriteOp(addr=addr + 8, data=b"y" * 8, rkey=rkey,
                    conditional=True))
        # Committed chain: nobody reports an abort.
        yield from client.execute(ReadOp(addr=addr, length=8, rkey=rkey))

    drive(sim, main())
    logged = Counter(event["reason"] for event in flight.events
                     if event["kind"] == "chain.abort")
    assert dict(logged) == {"AccessViolation": 1, "cas_miss": 2}
    chains = primitives.report()["chains"]
    assert chains["abort_reasons"] == dict(logged)
    assert chains["aborted"] == 3 and chains["committed"] == 1
