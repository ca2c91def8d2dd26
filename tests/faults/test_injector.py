"""FaultInjector unit behaviour: seeding, fates, crash schedule."""

from repro.faults import FaultInjector, FaultPlan, parse_faults
from repro.sim import Simulator


def _fates(plan, n=200):
    sim = Simulator()
    injector = sim.set_faults(plan)
    return [(fate.drop, fate.duplicate, round(fate.delay_us, 9))
            for fate in (injector.on_message(None) for _ in range(n))]


class TestMessageFates:
    def test_same_seed_same_fates(self):
        plan = FaultPlan(seed=42, drop=0.2, duplicate=0.1, jitter_us=3.0)
        assert _fates(plan) == _fates(plan)

    def test_different_seed_different_fates(self):
        base = dict(drop=0.2, duplicate=0.1, jitter_us=3.0)
        assert (_fates(FaultPlan(seed=1, **base))
                != _fates(FaultPlan(seed=2, **base)))

    def test_quiet_plan_injects_nothing(self):
        assert _fates(FaultPlan(seed=5)) == [(False, False, 0.0)] * 200

    def test_counters_match_fates(self):
        sim = Simulator()
        injector = sim.set_faults(FaultPlan(seed=1, drop=0.3, duplicate=0.2,
                                            jitter_us=2.0))
        fates = [injector.on_message(None) for _ in range(500)]
        assert injector.counters["messages_dropped"] == sum(
            1 for f in fates if f.drop)
        assert injector.counters["messages_duplicated"] == sum(
            1 for f in fates if f.duplicate)
        assert injector.counters["messages_delayed"] == sum(
            1 for f in fates if f.delay_us > 0)
        assert injector.counters["messages_dropped"] > 0
        assert injector.counters["messages_duplicated"] > 0


class TestCrashSchedule:
    def test_down_window(self):
        sim = Simulator()
        injector = sim.set_faults(
            parse_faults("crash=server@100+50,crash=other@300"))
        assert not injector.is_down("server")
        sim.run(until=120)
        assert injector.is_down("server")
        assert not injector.is_down("other")
        sim.run(until=400)
        assert not injector.is_down("server")  # recovered at 150
        assert injector.is_down("other")       # permanent
        assert injector.counters["crashes"] == 2
        assert injector.counters["recoveries"] == 1

    def test_late_registered_server_fails_immediately(self):
        class FakeServer:
            def __init__(self):
                self.failed = 0
                self.recovered = 0

            def fail(self):
                self.failed += 1

            def recover(self):
                self.recovered += 1

        sim = Simulator()
        injector = sim.set_faults(parse_faults("crash=host@10+20"))
        sim.run(until=15)
        server = FakeServer()
        injector.register_server("host", server)
        assert server.failed == 1  # host already down when it registered
        sim.run(until=40)
        assert server.recovered == 1


class TestReporting:
    def test_report_carries_plan_and_counters(self):
        sim = Simulator()
        injector = sim.set_faults(FaultPlan(seed=3, drop=0.5))
        for _ in range(50):
            injector.on_message(None)
        report = injector.report()
        assert report["plan"]["seed"] == 3
        assert report["plan"]["drop"] == 0.5
        assert report["messages_dropped"] > 0
        assert report["hosts_down"] == []

    def test_retry_streams_numbered_in_allocation_order(self):
        sim = Simulator()
        injector = sim.set_faults(FaultPlan(seed=8))
        first = [injector.retry_stream().random() for _ in range(3)]
        sim2 = Simulator()
        injector2 = sim2.set_faults(FaultPlan(seed=8))
        second = [injector2.retry_stream().random() for _ in range(3)]
        assert first == second
