"""Host-side self-profiling: off by default, bit-identical when on.

The contract under test mirrors every other observability layer: no
profiler installed means bare ``is None`` hooks and the uninstrumented
kernel loop; a profiler installed meters the *wall* clock only, so
simulated results are byte-for-byte the same either way.
"""

import os
import signal
import threading
import time

import pytest

from repro.bench.harness import run_point
from repro.obs import HostProfiler, UtilizationCollector
from repro.obs.hostprof import (
    BUCKETS,
    ProfileSession,
    StackSampler,
    activate,
    deactivate,
    profile_session,
)
from repro.obs import hostprof
from repro.sim import Simulator
from repro.workload import YCSB_A

_POINT = dict(n_clients=4, n_keys=300, warmup_us=100, measure_us=500)


def _kv_point(**kwargs):
    result = run_point(
        "kv", "prism-sw",
        lambda i: YCSB_A(300, seed=5, client_id=i), **_POINT, **kwargs)
    return result


def _metrics(result):
    return (result.ops, result.throughput_ops_per_sec,
            result.mean_latency_us, result.median_latency_us,
            result.p99_latency_us, result.aborts, result.retries)


class TestOffByDefault:
    def test_simulator_has_no_profiler(self):
        assert Simulator().hostprof is None

    def test_ambient_default_is_off(self):
        assert hostprof.ACTIVE is None

    def test_run_point_leaves_ambient_clear(self):
        _kv_point(hostprof=HostProfiler())
        assert hostprof.ACTIVE is None

    def test_simulator_adopts_ambient(self):
        profiler = activate(HostProfiler())
        try:
            assert Simulator().hostprof is profiler
        finally:
            deactivate(profiler)
        assert Simulator().hostprof is None

    def test_deactivate_is_conditional(self):
        first = activate(HostProfiler())
        second = activate(HostProfiler())
        deactivate(first)  # stale handle: must not clear the newer one
        assert hostprof.ACTIVE is second
        deactivate(second)
        assert hostprof.ACTIVE is None


class TestBitIdentity:
    def test_profiled_point_matches_unprofiled(self):
        assert (_metrics(_kv_point(hostprof=HostProfiler()))
                == _metrics(_kv_point()))

    def test_stride_sampling_matches_too(self):
        assert (_metrics(_kv_point(hostprof=HostProfiler(stride=7)))
                == _metrics(_kv_point()))


class TestMeter:
    @pytest.fixture(scope="class")
    def profiled(self):
        profiler = HostProfiler()
        result = _kv_point(hostprof=profiler, utilization=None)
        return profiler, result

    def test_counters_exact(self, profiled):
        profiler, result = profiled
        assert profiler.events == result.extra["events_executed"]
        assert 0 < profiler.resumes <= profiler.events

    def test_report_rates(self, profiled):
        profiler, _ = profiled
        report = profiler.report()
        assert report["wall_s"] > 0
        assert report["events_per_sec"] == pytest.approx(
            report["events"] / report["wall_s"])
        assert report["resumes_per_sec"] > 0

    def test_shares_are_exclusive_and_bounded(self, profiled):
        profiler, _ = profiled
        report = profiler.report()
        shares = [report["buckets"][name]["share"] for name in BUCKETS]
        assert all(share >= 0.0 for share in shares)
        assert sum(shares) <= 1.0 + 1e-9
        assert report["attributed_share"] == pytest.approx(sum(shares))

    def test_hot_buckets_nonzero(self, profiled):
        profiler, _ = profiled
        buckets = profiler.report()["buckets"]
        # A KV point dispatches events, resumes processes, queues on
        # resources, and packs/unpacks key-value structs.
        for name in ("dispatch", "resume", "resource", "codec"):
            assert buckets[name]["seconds"] > 0, name

    def test_obs_hook_overhead_is_reported(self):
        profiler = HostProfiler()
        _kv_point(hostprof=profiler, utilization=UtilizationCollector())
        report = profiler.report()
        assert report["buckets"]["hooks.obs"]["seconds"] > 0
        assert report["buckets"]["hooks.obs"]["share"] < 1.0

    def test_no_obs_hooks_without_collector(self, profiled):
        profiler, _ = profiled
        assert profiler.report()["buckets"]["hooks.obs"]["seconds"] == 0.0

    def test_stride_keeps_counters_exact(self):
        exact = HostProfiler()
        strided = HostProfiler(stride=5)
        first = _kv_point(hostprof=exact)
        second = _kv_point(hostprof=strided)
        assert exact.events == first.extra["events_executed"]
        assert strided.events == second.extra["events_executed"]
        assert exact.events == strided.events
        assert 0 < strided.timed_events <= exact.events // 5 + 1
        assert strided.report()["attributed_share"] <= 1.0 + 1e-9

    def test_stride_validation(self):
        with pytest.raises(ValueError):
            HostProfiler(stride=0)


class TestBucketStack:
    def test_nested_bucket_suspends_parent(self):
        profiler = HostProfiler()
        profiler.run_begin()
        profiler.event_begin()            # opens "dispatch"
        profiler.enter("resource")
        profiler.enter("hooks.obs")
        profiler.exit()
        profiler.exit()
        profiler.event_end()
        profiler.run_end()
        seconds = profiler.bucket_s
        assert seconds["dispatch"] >= 0
        assert seconds["resource"] >= 0
        assert seconds["hooks.obs"] >= 0
        total = sum(seconds.values())
        assert total <= profiler.wall_s + 1e-9

    def test_event_end_unwinds_stranded_buckets(self):
        profiler = HostProfiler()
        profiler.run_begin()
        profiler.event_begin()
        profiler.enter("resource")        # never exited: simulated
        profiler.event_end()              # exception in a callback
        profiler.run_end()
        assert profiler._current is None
        assert profiler._stack == []

    def test_enter_exit_noop_when_not_timing(self):
        profiler = HostProfiler()
        profiler.enter("codec")
        profiler.exit()
        assert all(value == 0.0 for value in profiler.bucket_s.values())


class TestStackSampler:
    def test_samples_busy_loop(self):
        sampler = StackSampler(interval_s=0.001).start()
        deadline = time.perf_counter() + 0.05
        while time.perf_counter() < deadline:
            sum(range(100))
        sampler.stop()
        collapsed = sampler.collapsed()
        assert collapsed
        assert all(count > 0 for count in collapsed.values())
        # Frames are basename:function joined by semicolons.
        stack = next(iter(collapsed))
        assert ":" in stack

    def test_stop_is_idempotent(self):
        sampler = StackSampler(interval_s=0.001).start()
        sampler.stop()
        sampler.stop()

    def test_a_sampled_busy_loop_is_named_from_its_own_thread(self):
        """The samples come from a ``SIGPROF`` interval timer whose
        handler walks the profiled thread's own stack: no thread is
        started, and ``stop`` disarms the timer and puts the previous
        handler back."""
        previous = signal.getsignal(signal.SIGPROF)
        threads = threading.active_count()
        sampler = StackSampler(interval_s=0.001).start()
        assert threading.active_count() == threads
        _spin(0.1)
        sampler.stop()
        assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
        assert signal.getsignal(signal.SIGPROF) is previous
        assert any(stack.endswith("test_hostprof.py:_spin")
                   for stack in sampler.collapsed())

    def test_start_off_the_main_thread_raises_and_arms_nothing(self):
        raised = []

        def start():
            try:
                StackSampler().start()
            except ValueError as error:
                raised.append(str(error))

        thread = threading.Thread(target=start)
        thread.start()
        thread.join()
        assert len(raised) == 1 and "main thread" in raised[0]
        assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


def _spin(seconds):
    """Burn ``seconds`` of CPU time in this frame."""
    deadline = time.process_time() + seconds
    while time.process_time() < deadline:
        sum(range(100))


class TestProfileSession:
    def test_sample_mode_writes_flame_file(self, tmp_path):
        with profile_session("sample", prefix="t", out_dir=str(tmp_path)) \
                as session:
            deadline = time.perf_counter() + 0.02
            while time.perf_counter() < deadline:
                sum(range(100))
        assert session.paths == [str(tmp_path / "flame.t.txt")]
        assert os.path.exists(session.paths[0])

    def test_cprofile_mode_writes_pstats_and_flame(self, tmp_path):
        with profile_session("cprofile", prefix="t",
                             out_dir=str(tmp_path)) as session:
            sum(range(10000))
        assert session.paths == [str(tmp_path / "t.pstats"),
                                 str(tmp_path / "flame.t.txt")]
        for path in session.paths:
            assert os.path.getsize(path) > 0
        import pstats
        stats = pstats.Stats(session.paths[0])
        assert stats.total_calls > 0

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            ProfileSession("perf")
