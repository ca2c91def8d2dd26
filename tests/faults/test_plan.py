"""FaultPlan construction, the CLI spec parser, and the plan as the
only source of a repeated request."""

import pytest

from repro.bench.harness import build_system
from repro.faults import CrashEvent, FaultPlan, RetryPolicy, parse_faults
from repro.net.port import RequestChannel
from repro.net.topology import RACK, make_fabric
from repro.sim import SimulationError, Simulator
from tests.bench.test_load_image import _IMAGES


class TestFaultPlan:
    def test_default_plan_is_quiet(self):
        assert FaultPlan(seed=7).quiet

    def test_any_injection_knob_breaks_quiet(self):
        assert not FaultPlan(drop=0.1).quiet
        assert not FaultPlan(duplicate=0.1).quiet
        assert not FaultPlan(jitter_us=1.0).quiet
        assert not FaultPlan(crashes=[CrashEvent("h", 5.0)]).quiet
        assert not FaultPlan(starve=0.5).quiet

    def test_probabilities_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(drop=1.5)
        with pytest.raises(ValueError):
            FaultPlan(duplicate=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(starve=2.0)
        with pytest.raises(ValueError):
            FaultPlan(jitter_us=-1.0)

    def test_crash_recovery_must_follow_crash(self):
        with pytest.raises(ValueError):
            CrashEvent("h", 10.0, recover_at_us=5.0)
        with pytest.raises(ValueError):
            CrashEvent("h", -1.0)


class TestRetryPolicy:
    def test_backoff_doubles_and_caps(self):
        policy = RetryPolicy(backoff_base_us=2.0, backoff_max_us=16.0)
        assert policy.backoff_us(0) == 2.0
        assert policy.backoff_us(1) == 4.0
        assert policy.backoff_us(2) == 8.0
        assert policy.backoff_us(3) == 16.0
        assert policy.backoff_us(10) == 16.0  # capped

    def test_backoff_jitter_bounded_and_seeded(self):
        from repro.sim.rng import SeededRng
        policy = RetryPolicy(backoff_base_us=2.0, backoff_max_us=16.0)
        draws = [policy.backoff_us(3, SeededRng(1).stream("s"))
                 for _ in range(20)]
        assert all(1.0 <= d <= 16.0 for d in draws)
        again = [policy.backoff_us(3, SeededRng(1).stream("s"))
                 for _ in range(20)]
        assert draws == again


class TestParseFaults:
    def test_full_spec(self):
        plan = parse_faults("seed=3,drop=0.01,dup=0.001,jitter=2,"
                            "crash=replica0@500+300,starve=0.5,"
                            "starve_at=200,starve_hold=400,"
                            "timeout=50,retries=4,backoff=1,backoff_max=64")
        assert plan.seed == 3
        assert plan.drop == 0.01
        assert plan.duplicate == 0.001
        assert plan.jitter_us == 2.0
        assert plan.crashes == (
            CrashEvent("replica0", 500.0, recover_at_us=800.0),)
        assert plan.starve == 0.5
        assert plan.starve_at_us == 200.0
        assert plan.starve_hold_us == 400.0
        assert plan.retry == RetryPolicy(timeout_us=50.0, max_retries=4,
                                         backoff_base_us=1.0,
                                         backoff_max_us=64.0)

    def test_permanent_crash(self):
        plan = parse_faults("crash=server@100")
        assert plan.crashes == (CrashEvent("server", 100.0),)
        assert plan.crashes[0].recover_at_us is None

    def test_repeatable_crash_key(self):
        plan = parse_faults("crash=r0@100,crash=r1@200+50")
        assert [c.host for c in plan.crashes] == ["r0", "r1"]

    def test_seed_only_spec_is_quiet(self):
        assert parse_faults("seed=9").quiet

    def test_bad_pieces_rejected(self):
        with pytest.raises(ValueError):
            parse_faults("drop")
        with pytest.raises(ValueError):
            parse_faults("frobnicate=1")
        with pytest.raises(ValueError):
            parse_faults("crash=no-at-sign")


# -- only a plan makes a repeat --------------------------------------------------


def _channels(system):
    """Every request channel of one client built on ``system``."""
    system.executor(0, "client0")
    services = system.fabric.host("client0")._services
    return [handler.__self__ for name, (handler, _) in services.items()
            if name.startswith("reply.")]


@pytest.mark.parametrize("point", sorted(_IMAGES))
def test_only_a_plan_makes_a_repeat(point):
    """With no plan, no client channel of each kind x flavor has a retry
    policy; under a plan, quiet as it is, each has the plan's."""
    kind, flavor = point.split("/")
    for plan in (None, FaultPlan(seed=1)):
        sim = Simulator()
        if plan is not None:
            sim.set_faults(plan)
        system = build_system(kind, flavor, sim, n_keys=50, value_size=64)
        channels = _channels(system)
        assert channels
        retry = None if plan is None else plan.retry
        assert all(channel.retry is retry for channel in channels)


def test_a_plan_after_a_channel_is_refused():
    """A channel takes its retry policy when it is built, so a plan
    installed after one would never reach it."""
    sim = Simulator()
    fabric = make_fabric(sim, RACK, ["client"])
    sim.set_faults(FaultPlan(seed=1))  # the fabric reads the plan per message
    RequestChannel(sim, fabric, "client")
    with pytest.raises(SimulationError, match="before the plan"):
        sim.set_faults(FaultPlan(seed=2))
