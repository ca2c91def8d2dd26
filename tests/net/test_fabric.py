"""Fabric delivery: latency math, routing, port contention."""

import pytest

from repro.faults import FaultPlan
from repro.faults.plan import CrashEvent
from repro.net.fabric import Fabric, Host
from repro.net.port import RequestChannel, send_reply
from repro.net.topology import DIRECT, RACK, make_fabric
from repro.obs.trace import Tracer
from repro.sim import Interrupt, Simulator


def test_duplicate_host_rejected(sim):
    fabric = Fabric(sim, one_way_latency_us=1.0)
    fabric.add_host(Host(sim, "a", 1000))
    with pytest.raises(ValueError):
        fabric.add_host(Host(sim, "a", 1000))


def test_duplicate_service_rejected(sim):
    host = Host(sim, "a", 1000)
    host.register_service("svc", lambda m: None)
    with pytest.raises(ValueError):
        host.register_service("svc", lambda m: None)


def test_unknown_service_raises(sim):
    host = Host(sim, "a", 1000)
    with pytest.raises(KeyError, match="no service"):
        host.handler_for("nope")


def test_a_message_to_an_unregistered_service_raises_naming_host_and_service(
        sim):
    """The arrival looks the service up in place (its lead times the
    hand-over); a miss must still surface as ``Host.handler_for``'s
    error, out of ``Simulator.run``."""
    fabric = make_fabric(sim, DIRECT, ["a", "b"])
    fabric.post("a", "b", "nope", None, 64)
    with pytest.raises(KeyError, match="b: no service 'nope'"):
        sim.run()
    assert fabric.messages_delivered == 0   # it crossed; nobody took it


def test_loopback_latency_zero(sim):
    fabric = make_fabric(sim, DIRECT, ["a", "b"])
    assert fabric.path_latency_us("a", "a") == 0.0
    assert fabric.path_latency_us("a", "b") > 0


def test_delivery_time_components(ties, drive):
    """tx serialization + propagation + rx serialization."""
    sim = Simulator()
    fabric = Fabric(sim, one_way_latency_us=2.0)
    fabric.add_host(Host(sim, "src", bytes_per_us=1000))
    fabric.add_host(Host(sim, "dst", bytes_per_us=1000))
    arrivals = []
    fabric.hosts["dst"].register_service(
        "svc", lambda message: arrivals.append(sim.now))
    def main():
        yield from fabric.send("src", "dst", "svc", "hi", 1000)
        return sim.now
    send_done = drive(sim, main())
    sim.run()
    assert send_done == pytest.approx(1.0)           # 1000B @ 1000 B/us
    assert arrivals == [pytest.approx(1.0 + 2.0 + 1.0)]


def test_sender_released_before_delivery(sim, drive):
    """The sender only occupies its TX port, not the full path."""
    fabric = make_fabric(sim, RACK, ["a", "b"])
    fabric.hosts["b"].register_service("svc", lambda m: None)
    def main():
        yield from fabric.send("a", "b", "svc", None, 512)
        return sim.now
    done = drive(sim, main())
    assert done < fabric.one_way_latency_us  # TX time only
    sim.run()


def test_tx_port_serializes_concurrent_sends(ties):
    sim = Simulator()
    fabric = Fabric(sim, one_way_latency_us=0.0)
    fabric.add_host(Host(sim, "src", bytes_per_us=100))
    fabric.add_host(Host(sim, "dst", bytes_per_us=1e9))
    arrivals = []
    fabric.hosts["dst"].register_service(
        "svc", lambda m: arrivals.append(sim.now))
    def sender():
        yield from fabric.send("src", "dst", "svc", None, 500)  # 5 us
    sim.spawn(sender())
    sim.spawn(sender())
    sim.run()
    assert arrivals == [pytest.approx(5.0), pytest.approx(10.0)]


def test_rx_port_serializes_concurrent_receives(ties):
    sim = Simulator()
    fabric = Fabric(sim, one_way_latency_us=0.0)
    fabric.add_host(Host(sim, "a", bytes_per_us=1e9))
    fabric.add_host(Host(sim, "b", bytes_per_us=1e9))
    fabric.add_host(Host(sim, "dst", bytes_per_us=100))
    arrivals = []
    fabric.hosts["dst"].register_service(
        "svc", lambda m: arrivals.append(sim.now))
    for src in ("a", "b"):
        sim.spawn(fabric.send(src, "dst", "svc", None, 500))
    sim.run()
    assert arrivals == [pytest.approx(5.0), pytest.approx(10.0)]


def test_messages_delivered_counter(ties):
    sim = Simulator()
    fabric = make_fabric(sim, DIRECT, ["a", "b"])
    fabric.hosts["b"].register_service("svc", lambda m: None)
    sim.spawn(fabric.send("a", "b", "svc", None, 64))
    sim.spawn(fabric.send("a", "b", "svc", None, 64))
    sim.run()
    assert fabric.messages_delivered == 2


def test_payload_not_serialized(sim):
    """Payload objects pass through untouched (timing uses size only)."""
    fabric = make_fabric(sim, DIRECT, ["a", "b"])
    payload = {"nested": [1, 2, 3]}
    received = []
    fabric.hosts["b"].register_service(
        "svc", lambda m: received.append(m.payload))
    sim.spawn(fabric.send("a", "b", "svc", payload, 64))
    sim.run()
    assert received[0] is payload


# -- a posted message cannot be withdrawn --------------------------------------


@pytest.mark.parametrize("interrupt_at", [
    pytest.param(2.0, id="queued-behind-another-message"),
    pytest.param(7.0, id="while-serializing")])
def test_interrupting_a_blocked_sender_neither_loses_the_message_nor_strands_the_port(
        sim, interrupt_at):
    """``Fabric.send`` only lends the caller a wait: the message is the
    NIC's from the post on. Three 5 µs messages on one TX port; the
    middle one's sender is interrupted. It is still delivered exactly
    once, in FIFO order, and the message posted after the interrupt
    finishes at the FIFO instant — the port was neither freed early
    nor left busy forever."""
    fabric = Fabric(sim, one_way_latency_us=1.0)
    fabric.add_host(Host(sim, "src", bytes_per_us=100))
    fabric.add_host(Host(sim, "dst", bytes_per_us=1e9))
    arrivals = []
    fabric.hosts["dst"].register_service(
        "svc", lambda m: arrivals.append((m.payload, sim.now)))
    outcomes = []

    def sender(tag):
        try:
            yield from fabric.send("src", "dst", "svc", tag, 500)
        except Interrupt as interrupt:
            outcomes.append((tag, interrupt.cause, sim.now))
        else:
            outcomes.append((tag, "sent", sim.now))

    sim.spawn(sender("first"))              # serializes over [0, 5)
    victim = sim.spawn(sender("victim"))    # queued, then [5, 10)

    def killer():
        yield sim.timeout(interrupt_at)
        victim.interrupt("stop")
        yield from sender("next")           # FIFO: [10, 15)

    sim.spawn(killer())
    sim.run()
    assert set(outcomes) == {("first", "sent", 5.0),
                             ("victim", "stop", interrupt_at),
                             ("next", "sent", 15.0)}
    assert [tag for tag, _when in arrivals] == ["first", "victim", "next"]
    assert [when for _tag, when in arrivals] == [
        pytest.approx(6.0), pytest.approx(11.0), pytest.approx(16.0)]
    tx = fabric.hosts["src"].tx
    assert (tx.messages_total, tx.bytes_total) == (3, 1500)
    # Capacity conserved: busy over [0, 15) and idle since, read at 16.
    assert tx.utilization(15.0) == 1.0


# -- a message is a scheduled payload, not a process --------------------------


def _entries_for_messages(n, wait=False):
    """Kernel entries to deliver ``n`` messages on an idle fabric: all
    posted at once, or each sent (``wait``) when the last left."""
    sim = Simulator()
    fabric = make_fabric(sim, RACK, ["a", "b"])
    fabric.hosts["b"].register_service("sink", lambda message: None)

    def sender():
        for _ in range(n):
            if wait:
                yield from fabric.send("a", "b", "sink", None, 64)
            else:
                fabric.post("a", "b", "sink", None, 64)
        yield from ()

    sim.spawn(sender())
    sim.run()
    assert fabric.messages_delivered == n
    return sim.events_executed


def test_a_message_costs_two_kernel_entries(ties):
    """The end of propagation and of RX serialization: each entry is an
    instant at which model time has been spent. The TX port is booked
    at the post, so the end of TX serialization takes no entry (it took
    one, the third, while a chain of hand-offs started each queued
    message); no port grant takes a trip through the ready deque.
    ``Fabric.send`` adds the sender's own wake-up at ``tx_done``, 3.
    Measured as the slope over N so the sender's own bootstrap and
    completion cancel out; exact, so gated at zero tolerance."""
    assert _entries_for_messages(110) - _entries_for_messages(10) == 2 * 100
    assert (_entries_for_messages(110, wait=True)
            - _entries_for_messages(10, wait=True)) == 3 * 100


def test_a_request_channel_round_trip_costs_eight_entries(ties):
    """Post overhead, 2 for the request, the echo's bootstrap and
    completion, 2 for the reply, completion overhead = 8 (10 while each
    message's TX serialization ended in an entry of its own). An
    untimed call starts its completion stage in the reply's hand-over.
    The client is resumed once (``tests/net/test_port.py`` counts the
    resumes and the timed variant); the server never waits."""
    def entries(n):
        sim = Simulator()
        fabric = make_fabric(sim, RACK, ["a", "b"])
        channel = RequestChannel(sim, fabric, "a")

        def echo(message):
            request = message.payload
            sim.spawn(send_reply(fabric, "b", request, request.body, 64))

        fabric.host("b").register_service("echo", echo)

        def client():
            for index in range(n):
                assert (yield from channel.request(
                    "b", "echo", index, 64)) == index

        sim.run_until_complete(sim.spawn(client()))
        return sim.events_executed

    assert entries(110) - entries(10) == 8 * 100


def _chaos_run():
    """24 messages under duplication + jitter, ``b`` down from 6 to 9 µs."""
    sim = Simulator()
    injector = sim.set_faults(FaultPlan(
        seed=7, duplicate=0.3, jitter_us=2.0,
        crashes=(CrashEvent("b", at_us=6.0, recover_at_us=9.0),)))
    fabric = make_fabric(sim, RACK, ["a", "b"])
    arrivals = []
    fabric.host("b").register_service(
        "sink", lambda message: arrivals.append((message.payload, sim.now)))

    def sender():
        for index in range(24):
            yield from fabric.send("a", "b", "sink", index, 4096)

    sim.spawn(sender())
    sim.run()
    return fabric, injector, arrivals


def test_delivery_under_faults_matches_the_process_per_message_fabric(ties):
    """Golden values recorded from the generator-per-message fabric
    (the commit before deliveries became scheduled payloads): same
    fates, same crash drops, and arrival times equal to the last bit —
    the injected delay and the path latency stay two additions, one
    timer, because (t + d) + l and t + (d + l) round differently. The
    fates are drawn at the post now, not as the last byte leaves; with
    one sender waiting out each message the two orders are one."""
    fabric, injector, arrivals = _chaos_run()
    assert fabric.messages_delivered == 23
    assert {name: count for name, count in injector.counters.items()
            if count} == {"messages_duplicated": 5, "messages_delayed": 24,
                          "crash_drops": 6, "crashes": 1, "recoveries": 1}
    assert injector.delay_injected_us == 26.974116735853688
    assert arrivals == [
        (0, 2.8060466010295597), (2, 4.81398810050698),
        (1, 5.64638810050698), (3, 6.478788100506979),
        (8, 10.47103531760242), (9, 11.30343531760242),
        (9, 12.13583531760242), (10, 12.968235317602419),
        (10, 13.800635317602419), (11, 14.633035317602419),
        (12, 15.465435317602418), (13, 16.29783531760242),
        (14, 17.13023531760242), (15, 17.96263531760242),
        (16, 18.79503531760242), (18, 19.62743531760242),
        (17, 20.45983531760242), (19, 21.29223531760242),
        (20, 22.12463531760242), (21, 22.95703531760242),
        (22, 23.78943531760242), (23, 24.621835317602418),
        (23, 25.454235317602418)]


def _jittered(tracer=None, duplicate=0.0):
    """A RACK fabric a → b under a jitter-only plan, so every message
    draws a lag; returns the simulator, the fabric and the list each
    drawn fate appends ``(payload, delay)`` to."""
    sim = Simulator()
    if tracer is not None:
        sim.attach(tracer)
    injector = sim.set_faults(FaultPlan(seed=11, duplicate=duplicate,
                                        jitter_us=2.0))
    fates = []
    draw = injector.on_message

    def on_message(message):
        fate = draw(message)
        fates.append((message.payload, fate.delay_us))
        return fate

    injector.on_message = on_message
    return sim, make_fabric(sim, RACK, ["a", "b"]), fates


def test_a_drawn_lag_rides_the_paths_timer(monkeypatch):
    """A lagged message costs the 2 entries of an unlagged one, and a
    lagged duplicate's twin 2 more (3 and 5 while the end of TX
    serialization took an entry, 4 and 7 while the lag was its own
    timer): the lag's end was an instant no other entry could share.
    Its fate is drawn at the post. Its arrival keeps the two additions
    (t_tx + d) + l to the bit, the traced propagation still starts at
    t_tx + d, and the twin, pushed after the original, is still handed
    over after it."""
    def entries(n, duplicate):
        sim, fabric, fates = _jittered(duplicate=duplicate)
        fabric.hosts["b"].register_service("sink", lambda message: None)

        def sender():
            for _ in range(n):
                fabric.post("a", "b", "sink", None, 64)
            yield from ()

        sim.spawn(sender())
        sim.run()
        assert len(fates) == n and all(delay > 0.0 for _, delay in fates)
        assert fabric.messages_delivered == (2 if duplicate else 1) * n
        return sim.events_executed

    assert entries(110, 0.0) - entries(10, 0.0) == 2 * 100
    assert entries(110, 1.0) - entries(10, 1.0) == 4 * 100

    from repro.net.fabric import _Delivery

    launched, handed = [], []
    launch, hand_over = _Delivery._launch, _Delivery._hand_over

    def recording_launch(delivery, start):
        launched.append(delivery)
        launch(delivery, start)

    def recording_hand_over(delivery):
        handed.append(delivery)
        hand_over(delivery)

    monkeypatch.setattr(_Delivery, "_launch", recording_launch)
    monkeypatch.setattr(_Delivery, "_hand_over", recording_hand_over)
    tracer = Tracer()
    sim, fabric, fates = _jittered(tracer, duplicate=1.0)
    arrivals = []
    fabric.hosts["b"].register_service(
        "sink", lambda message: arrivals.append((message.payload, sim.now)))
    roots, tx_dones = [], []

    def sender():
        for index in range(12):
            root = tracer.root("op", op=index + 1)
            roots.append(root)
            delivery = fabric.post("a", "b", "sink", index, 64, span=root)
            tx_dones.append(delivery.tx_done)
            yield sim.timeout(10.0)    # the RX port is idle at each arrival

    sim.spawn(sender())
    sim.run()
    latency = fabric.one_way_latency_us
    rx_us = fabric.hosts["b"].rx.serialization_time(64)
    assert [payload for payload, _d in fates] == list(range(12))
    # The fates pin the order of the additions, not just their sum.
    assert any((t_tx + delay) + latency != t_tx + (delay + latency)
               for (_payload, delay), t_tx in zip(fates, tx_dones))
    for (payload, delay), t_tx, root in zip(fates, tx_dones, roots):
        arrive = (t_tx + delay) + latency
        assert [when for index, when in arrivals if index == payload] == [
            arrive + rx_us, (arrive + rx_us) + rx_us]
        assert [(span.start, span.end) for span in root.children
                if span.name == "net.propagate"] == [(t_tx + delay,
                                                      arrive)] * 2
    assert len(launched) == len(handed) == 24
    for original, twin in zip(launched[::2], launched[1::2]):
        assert original.message is twin.message
        assert handed.index(original) < handed.index(twin)


def test_deliveries_leave_no_reference_cycles(ties):
    """Benchmark points run with ``gc`` off, so a delivery that kept a
    bound method of itself would leak one cycle per message. With no
    cycle, reference counting alone frees every delivery: none is left
    for ``gc.collect()`` to find after a drained run."""
    import gc

    from repro.net.fabric import _Delivery

    def live_deliveries():
        return sum(1 for obj in gc.get_objects() if type(obj) is _Delivery)

    sim = Simulator()
    fabric = make_fabric(sim, RACK, ["a", "b"])
    seen_in_flight = []
    fabric.host("b").register_service(
        "sink", lambda message: seen_in_flight.append(live_deliveries()))

    def sender():
        for _ in range(50):
            yield from fabric.send("a", "b", "sink", None, 64)

    sim.spawn(sender())
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        sim.run()
        assert fabric.messages_delivered == 50
        # The census works: the delivery handing over is still alive.
        assert min(seen_in_flight) >= 1
        assert live_deliveries() == 0
    finally:
        if was_enabled:
            gc.enable()


# -- a service's lead rides the RX port's timer --------------------------------


def _lead_run(lead, n, plan=None, utilization=None):
    """``n`` 64 B messages posted at once from ``a`` to a service on ``b``
    registered with ``lead``; ``b``'s RX port is idle at each arrival.
    Returns the simulator, the fabric, the deliveries and each
    hand-over's ``(payload, message.landed, instant)``."""
    sim = Simulator()
    if plan is not None:
        sim.set_faults(plan)
    if utilization is not None:
        sim.attach(utilization)
    fabric = Fabric(sim, one_way_latency_us=1.0)
    fabric.add_host(Host(sim, "a", bytes_per_us=100))    # 0.64 µs a message
    fabric.add_host(Host(sim, "b", bytes_per_us=300))
    handed = []
    fabric.host("b").register_service(
        "svc", lambda m: handed.append((m.payload, m.landed, sim.now)),
        lead_us=lead)
    deliveries = [fabric.post("a", "b", "svc", index, 64)
                  for index in range(n)]
    sim.run()
    return sim, fabric, deliveries, handed


def test_a_services_lead_rides_the_rx_ports_timer(ties):
    """The hand-over comes ``lead_us`` after RX-done at ``done + lead``,
    the float a timer of the lead's own started at RX-done reaches, in
    the message's second entry: 2 entries a message, lead or none.
    ``message.landed`` is RX-done."""
    lead = 3.0
    _sim, fabric, deliveries, handed = _lead_run(lead, 12)
    rx_us = fabric.hosts["b"].rx.serialization_time(64)
    landed = [(delivery.tx_done + 1.0) + rx_us for delivery in deliveries]
    assert handed == [(index, done, done + lead)
                      for index, done in enumerate(landed)]

    def entries(lead, n):
        return _lead_run(lead, n)[0].events_executed

    assert entries(lead, 110) - entries(lead, 10) == 2 * 100
    assert entries(0.0, 110) - entries(0.0, 10) == 2 * 100


def test_each_duplicate_is_handed_its_own_landing_instant(ties):
    """A duplicated message is two deliveries of one :class:`Message`:
    the twin lands (and books the RX port) after the original but
    before the original's lead is over, and each hand-over still sees
    its own RX-done in ``message.landed``."""
    lead = 3.0
    _sim, fabric, deliveries, handed = _lead_run(
        lead, 4, plan=FaultPlan(seed=5, duplicate=1.0))
    rx_us = fabric.hosts["b"].rx.serialization_time(64)
    expected = []
    for index, delivery in enumerate(deliveries):
        done = (delivery.tx_done + 1.0) + rx_us
        twin = done + rx_us
        assert twin < done + lead
        expected += [(index, done, done + lead), (index, twin, twin + lead)]
    assert handed == expected


def test_a_lead_leaves_the_inflight_row_as_it_was(ties):
    """``fabric.inflight`` counts a message out at RX-done, booked at its
    arrival (``DepthMonitor.at``), not at the hand-over a lead later:
    a service with a lead reports the row one with none does."""
    from repro.obs.timeline import UtilizationCollector

    rows = []
    for lead in (0.0, 3.0):
        collector = UtilizationCollector()
        _sim, fabric, _deliveries, _handed = _lead_run(
            lead, 12, utilization=collector)
        collector.finish(20.0)
        rows.append(fabric.monitor.summary(0.0, 20.0))
    assert rows[0] == rows[1]
    assert rows[0]["enters"] == rows[0]["exits"] == 12
