"""The event loop and process machinery.

``Simulator`` owns two scheduling structures: a FIFO *ready deque* of
work due at the current instant and a priority heap of future-time
entries. Every entry pushed at the current simulated time lands on the
deque (no heap push, no sequence number, no tuple); only real timers
and deferred callables reach the heap. Because nothing can schedule
work at or before the current time *into the heap*, draining order is
exactly the old single-heap ``(when, seq)`` order: heap entries at a
timestamp were pushed from an earlier instant, so they precede
everything appended to the deque at that timestamp. For the same
reason a heap-fired timer runs its waiters in the entry that pops it
(``TimerEvent.fire``) instead of taking a second trip through the
deque: the waiters would run in the same relative order either way,
so every kernel entry does model work.

Same-instant work runs heap entries first, then the deque FIFO: that
is the *default* tie order, not a guarantee model code may rely on.
:meth:`Simulator.shuffle_ties` installs a seeded draw over everything
due at an instant instead (docs/performance.md, rule 11(e)).

Every generator the kernel drives is stepped by one driver,
:class:`_Task`, and every value it yields must be an
:class:`~repro.sim.events.Event` (or a :class:`Process`, which doubles
as its completion event). A process owns a task and is the event of its
completion; a generator nothing will wait on is *launched*
(:meth:`Simulator.launch`): a task with no owner, so no completion entry;
a quorum phase's legs are tasks the phase owns
(:class:`~repro.sim.phase.Phase`).
"""

import heapq
from itertools import count

from repro.obs import hostprof as _hostprof
from repro.obs.bus import Bus
from repro.obs.trace import NULL_TRACER
from repro.sim.rng import SeededRng
from repro.sim.events import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    SimulationError,
    TimeoutExpired,
    TimerEvent,
    _LateCall,
)

from collections import deque

#: Tombstoned timers are compacted out of the heap in bulk once they
#: outnumber live entries (and at least this many have accumulated) —
#: amortized O(1) per cancel, keeping the heap O(in-flight).
_COMPACT_MIN = 64


class _ScheduledCall:
    """Heap payload for :meth:`Simulator.call_at`.

    Gives bare future callables the same ``cancelled``/``fire`` shape
    as :class:`~repro.sim.events.TimerEvent`, so the run loop touches
    exactly one payload type.
    """

    __slots__ = ("fire", "cancelled")

    def __init__(self, callback):
        self.fire = callback
        self.cancelled = False


class _Halted(Exception):
    """Ends the run loop for :meth:`Simulator.run_until_complete`, which
    alone catches it."""


def _halt():
    """The ready-deque entry a completed awaited process leaves."""
    raise _Halted


def _fire_due_now(timer):
    """Waiter of the zero-delay timer whose value is a payload due at
    the current instant (:meth:`Simulator.schedule_at`'s cold branch).
    It checks ``cancelled`` as a heap pop would: a payload withdrawn
    while it rides the ready deque does not fire, and the tombstone its
    owner noted — for a heap entry that never existed — is paid back."""
    payload = timer._value
    if payload.cancelled:
        timer.sim._cancelled_timers -= 1
    else:
        payload.fire()


class Process(Event):
    """A running generator coroutine; also the event of its completion.

    The generator is stepped by the :class:`_Task` the process owns; the
    process is what others wait on. The completion value is whatever
    the generator returns. An uncaught exception inside the generator
    fails the completion event, and — if nothing is waiting on the
    process — propagates out of ``Simulator.run`` so bugs never pass
    silently.
    """

    __slots__ = ("_task", "_ever_waited")

    def __init__(self, sim, generator, name=None):
        super().__init__(sim)
        self._ever_waited = False
        self._task = task = _Task(
            sim, generator, name or getattr(generator, "__name__", "process"),
            self._finished)
        tracer = sim.tracer
        if tracer.trace_processes:
            tracer.process_started(self)
        sim._ready.append(task)  # the boot slot

    @property
    def name(self):
        return self._task.name

    def add_callback(self, callback):
        self._ever_waited = True
        super().add_callback(callback)

    @property
    def alive(self):
        """True while the generator has not finished."""
        return not self._triggered

    def interrupt(self, cause=None):
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is a no-op. No model code calls
        this; it is the kernel's cancellation guarantee, and the tests of
        every resource-backed event's withdrawal drive it.
        """
        if self._triggered:
            return
        interrupt_event = Event(self.sim)
        interrupt_event.callbacks.append(self._interrupted)
        interrupt_event.fail(Interrupt(cause))

    def _interrupted(self, interrupt_event):
        """Detach the task from what it waits on — so a resource-backed
        event withdraws its claim — and throw the interrupt in. A wake-up
        from the abandoned event that was already queued is stale: the
        task now waits on ``interrupt_event``, so it ignores that one."""
        if self._triggered:
            return
        task = self._task
        waited = task._waiting_on
        if waited is not None:
            waited.waiter_detached(task)
        task._waiting_on = interrupt_event
        task(interrupt_event)

    def _finished(self, task, ok, value):
        """The task's one report: the generator returned ``value``
        (``ok``) or raised it."""
        sim = self.sim
        if ok:
            self.succeed(value)
            tracer = sim.tracer
            if tracer.trace_processes:
                tracer.process_finished(self)
        else:
            self.fail(value)
            sim.tracer.process_finished(self)
            sim._note_process_failure(self, value)

    def __repr__(self):
        return f"<Process {self.name} {'done' if self._triggered else 'alive'}>"


class _Task:
    """The kernel's one generator driver (docs/performance.md, rule 11).

    A task is its generator's boot step — called with no event, in a
    boot slot or by the phase that owns it — and its own callback on
    every event the generator yields: it is resumed in the entry where
    that event is processed, and counted as one resume by the host
    profiler. A non-``Event`` yield has
    :class:`SimulationError` thrown in; an already-processed one resumes
    it in a :class:`_LateCall`; waiting on a child :class:`Process`
    marks the child observed.

    When the generator returns or raises, the task tells ``done`` —
    ``done(task, ok, value)``, once — and ignores any later call. Three
    owners: a :class:`Process` (its completion event), a
    :class:`~repro.sim.phase.Phase` (a leg, named by its index) and
    none, for a generator :meth:`Simulator.launch` ran; with no owner a
    raising generator is recorded like an unobserved process's failure
    and raised at the end of the run. The owner never changes the
    driver's type: CPython specialises a hot method per type (rule 11).
    """

    __slots__ = ("sim", "_generator", "name", "_waiting_on", "_done")

    #: orphan-failure triage: nothing can ever have waited on a task
    _ever_waited = False

    def __init__(self, sim, generator, name, done=None):
        self.sim = sim
        self._generator = generator
        self.name = name
        self._done = done
        self._waiting_on = None

    def __call__(self, event=None):
        """Boot slot (no event) or the callback of the awaited event."""
        if event is not self._waiting_on:
            # A stale wake-up from an event the task detached from (see
            # Process._interrupted), or a call after the generator ended
            # (``_waiting_on`` is then False, which no event is).
            return
        sim = self.sim
        # Host-profiling hook: resume accounting (off => one None check).
        hp = sim.hostprof
        if hp is not None:
            hp.resumes += 1
            if hp._timing:
                hp.enter("resume")
            else:
                # Unsampled step (stride sampling): the counter stays
                # exact, but bucket attribution is off for this event —
                # skip the paired enter/exit calls entirely.
                hp = None
        generator = self._generator
        try:
            try:
                if event is None:
                    target = generator.send(None)
                elif event._ok:
                    target = generator.send(event._value)
                else:
                    target = generator.throw(event._value)
                while not isinstance(target, Event):
                    target = generator.throw(SimulationError(
                        f"generator {self.name!r} yielded {target!r}; "
                        "processes, tasks and phase legs may only yield "
                        "Event instances (use 'yield from' to call "
                        "sub-generators)"))
            except StopIteration as stop:
                ok, value = True, stop.value
            except Exception as exc:
                ok, value = False, exc
            else:
                self._waiting_on = target
                # Inlined Event.add_callback. Waiting on a child process
                # must still mark it observed (orphan-failure triage).
                if isinstance(target, Process):
                    target._ever_waited = True
                if target._processed:
                    sim._ready.append(_LateCall(self, target))
                else:
                    target.callbacks.append(self)
                return
            self._waiting_on = False
            done, self._done = self._done, None
            if done is not None:
                done(self, ok, value)
            elif not ok:
                sim._note_process_failure(self, value)
        finally:
            if hp is not None:
                hp.exit()


class Simulator:
    """Deterministic discrete-event simulator with a microsecond clock.

    Observability is off by default: ``tracer`` is the no-op
    :data:`~repro.obs.trace.NULL_TRACER` and every other observer
    handle is None. :meth:`attach` is the one installer — call it
    *before* system construction, so resources, engines and servers
    register with the observer as they are built. ``events_executed``
    counts queue entries run — a cheap health counter. (Tombstoned —
    cancelled — timers are skipped, not run, so they are not counted.)
    """

    def __init__(self):
        self._now = 0.0
        self._queue = []
        self._ready = deque()
        self._sequence = count()
        self._cancelled_timers = 0
        self._failed_processes = []
        self.tracer = NULL_TRACER
        self.utilization = None
        self.faults = None
        #: set by the first request channel built, which took its retry
        #: policy from ``faults``: a later plan would not reach it
        self.faults_adopted = False
        #: the probe bus every hook site emits on; None until the
        #: first :meth:`attach`, so unobserved runs pay one load
        self.bus = None
        # Named handles the observers' ``bind`` fills (``tracer``,
        # ``utilization`` and ``hostprof`` too). Those of the event
        # collectors are for post-hoc readers — the data path only ever
        # sees ``bus``; ``views`` doubles as what ``PrismClient.views``
        # exposes for in-sim queries.
        self.flight = None
        self.series = None
        self.views = None
        # Adopt the ambient host profiler, if one is active (None in
        # normal runs; standalone --profile scripts activate one).
        self.hostprof = _hostprof.ACTIVE
        #: the tie-order draw (:meth:`shuffle_ties`); None: default order
        self._ties = None
        self.events_executed = 0

    def _check_not_started(self, what):
        """Install-before-run contract shared by the installers: a
        collector (or injector) installed after the simulation started
        executing would have missed registrations and transitions, and
        its counts would silently disagree with the run — so this
        raises instead of half-collecting."""
        if self._now > 0.0 or self.events_executed:
            raise SimulationError(
                f"{what}: must be installed before the simulation runs "
                f"(now={self._now:g} µs, {self.events_executed} events "
                f"executed) — call sim.{what}(...) before system "
                "construction so every registration and transition is "
                "seen from time zero")

    def attach(self, collector):
        """Install an observer; returns it.

        The one installer for all seven :mod:`repro.obs` collectors.
        Install *before* system construction so resources, engines,
        servers and clients pick the observer up. ``collector.bind``
        takes its named handle on this simulator (``self.tracer``,
        ``self.utilization``, ``self.hostprof``, ``self.flight``, ...);
        a collector that folds probe events also has ``subscribe`` and
        is subscribed to ``self.bus``, created here on first use — so a
        tracer, utilization collector or host profiler leaves the bus
        (and every hook site's emit) off. See :mod:`repro.obs.bus` for
        the contract (bit-identical timing included)."""
        self._check_not_started("attach")
        bound = collector.bind(self)
        subscribe = getattr(bound, "subscribe", None)
        if subscribe is not None:
            if self.bus is None:
                self.bus = Bus()
            subscribe(self.bus)
        return bound

    def set_faults(self, plan):
        """Install (and bind) a fault injector for ``plan``; returns it.

        Accepts a :class:`~repro.faults.FaultPlan` or an already-built
        :class:`~repro.faults.FaultInjector`. Install *before* system
        construction so the fabric, servers, and free lists register
        themselves; once a request channel has taken its retry policy
        (none) this raises. With no injector installed (the default) every
        hook is a single ``is None`` check — same bit-identical-timing
        contract as the observability collectors.
        """
        from repro.faults.injector import FaultInjector
        self._check_not_started("set_faults")
        if self.faults_adopted:
            raise SimulationError(
                "set_faults: a request channel was built before the plan "
                "and would never take its retry policy — call "
                "sim.set_faults(...) before system construction")
        injector = (plan if isinstance(plan, FaultInjector)
                    else FaultInjector(plan))
        self.faults = injector.bind(self)
        return self.faults

    def shuffle_ties(self, seed):
        """Run same-instant work in a seeded random order.

        At each instant the next entry is drawn uniformly from
        everything due then — the heap entries whose time has come and
        the ready deque alike — so heap-before-deque and FIFO become one
        draw among many; each entry still runs whole, and a
        :meth:`run_until_complete` halt still runs first. A shuffled run
        may change timings, never a verdict (docs/performance.md, rule
        11(e)). Install before the run, like :meth:`set_faults`.
        Unprofiled only: the host profiler times the default loop.
        """
        self._check_not_started("shuffle_ties")
        if self.hostprof is not None:
            raise SimulationError(
                "shuffle_ties: the tie-order shuffle runs unprofiled only "
                "— a host profiler is attached")
        self._ties = SeededRng(seed).stream("sim.ties")

    @property
    def now(self):
        """Current simulated time in microseconds."""
        return self._now

    # -- scheduling ------------------------------------------------------

    def event(self):
        """Create a fresh pending event on this timeline."""
        return Event(self)

    def timeout(self, delay, value=None):
        """An event that succeeds ``delay`` microseconds from now."""
        if not delay >= 0:  # refuses NaN too, which `delay < 0` let through
            raise SimulationError(f"negative delay: {delay}")
        return self.sleep_until(self._now + delay, value)

    def sleep_until(self, when, value=None):
        """An event that succeeds at absolute simulated time ``when`` —
        exactly that float, never ``now + (when - now)``.

        ``when`` in the past (or now) fires on the next kernel step at
        the current time, so daemons can use it as an idempotent
        "no earlier than" barrier.
        """
        # TimerEvent.__init__ inlined — timers are the most common
        # allocation in the kernel, and skipping the constructor frame
        # is worth ~a call per event on the dominant op path.
        event = TimerEvent.__new__(TimerEvent)
        event.sim = self
        event.callbacks = []
        event._value = None
        event._ok = None
        event._triggered = False
        event._processed = False
        event._fire_value = value
        event.cancelled = False
        if when > self._now:
            event._in_heap = True
            self.schedule_at(when, event)
        else:
            # A zero-delay timer is its own ready-deque entry and keeps
            # FIFO position with other same-instant work.
            event._in_heap = False
            self._ready.append(event)
        return event

    def schedule(self, delay, payload):
        """:meth:`schedule_at` ``delay`` microseconds from now."""
        if not delay >= 0:  # refuses NaN too, which `delay < 0` let through
            raise SimulationError(f"negative delay: {delay}")
        when = self._now + delay
        if when > self._now:
            # schedule_at's hot branch, inlined: every stage of every
            # message, execution and call comes through here.
            heapq.heappush(self._queue,
                           (when, next(self._sequence), payload))
        else:
            self.schedule_at(when, payload)

    def schedule_at(self, when, payload):
        """Fire ``payload`` at absolute time ``when``, as one kernel entry.

        The one absolute-time primitive: :meth:`timeout`,
        :meth:`sleep_until` and :meth:`schedule` all end here.
        ``payload`` is any object with a ``fire()`` method and a
        ``cancelled`` attribute — false, unless its owner withdrew the
        heap entry the way ``TimerEvent.cancel`` does (set it, then
        :meth:`_note_timer_cancelled`); it goes on the heap as it is — no
        event, no wrapper, no waiter list. This is how the model work
        of a fixed pipeline (a fabric delivery, a device execution, a
        client call advancing a stage) is timed without a process.
        Compare the *computed* instant, not a delay:
        one that rounds to the current instant (or lies in the past)
        must keep FIFO position with other same-instant work — the heap
        only ever holds strictly-future entries, the ordering invariant
        the run loop relies on — so it rides a zero-delay timer and gets
        exactly the slot a ``yield sim.timeout(0)`` would have had.
        """
        if when > self._now:
            heapq.heappush(self._queue,
                           (when, next(self._sequence), payload))
        else:
            # Cold path: loopback, zero-latency test fabrics.
            self.sleep_until(when, payload).callbacks.append(_fire_due_now)

    def spawn(self, generator, name=None):
        """Start running a generator as a process."""
        return Process(self, generator, name=name)

    def launch(self, generator, name):
        """Run a generator that nothing will wait on; returns None.

        Scheduled exactly as :meth:`spawn` would, minus the process's
        completion entry: with no handle, no waiter can attach, so that
        entry could only ever be a no-op (see :class:`_Task`). For
        fire-and-forget work — an open-loop arrival's operation, a
        recycler report.
        """
        self._ready.append(_Task(self, generator, name))  # the boot slot

    def with_timeout(self, event, timeout_us, what="wait"):
        """Process helper: wait on ``event`` for at most ``timeout_us``.

        Returns the event's value, or raises
        :class:`~repro.sim.events.TimeoutExpired` once the budget is
        spent. On timeout the abandoned event is *cancelled*, so a
        resource-backed event (a queued ``acquire``, a blocked ``get``)
        withdraws its claim instead of stranding a slot or swallowing
        an item — which is also what makes the helper interrupt-safe:
        an Interrupt landing inside the wait detaches from both the
        event and the timer through the same cancellation path. When
        ``event`` wins, the losing timer is withdrawn from the heap
        (see :class:`~repro.sim.events.TimerEvent`), so N timed waits
        leave O(in-flight) queue entries, not O(N).
        """
        if not isinstance(event, Event):
            raise SimulationError("with_timeout requires an Event")
        index, value = yield self.any_of([event, self.timeout(timeout_us)])
        if index == 1:
            event.cancel()
            raise TimeoutExpired(timeout_us, what=what)
        return value

    def any_of(self, events):
        """Event that fires with ``(index, value)`` of the first to trigger."""
        return AnyOf(self, events)

    def all_of(self, events):
        """Event that fires with the list of values once all trigger."""
        return AllOf(self, events)

    def call_at(self, when, callback):
        """Run a bare callable at absolute time ``when``."""
        if when < self._now:
            raise SimulationError(f"cannot schedule in the past: {when} < {self._now}")
        if when == self._now:
            self._ready.append(callback)
        else:
            heapq.heappush(self._queue,
                           (when, next(self._sequence), _ScheduledCall(callback)))

    # -- kernel internals -------------------------------------------------

    def _note_timer_cancelled(self):
        """A heap-resident timer was tombstoned; compact when they dominate."""
        self._cancelled_timers += 1
        queue = self._queue
        if (self._cancelled_timers >= _COMPACT_MIN
                and self._cancelled_timers * 2 > len(queue)):
            # In place: the run loop holds a local alias to the list.
            # Only the tombstones swept here leave the count: one noted
            # for a payload riding the ready deque is paid back there.
            before = len(queue)
            queue[:] = [entry for entry in queue if not entry[2].cancelled]
            heapq.heapify(queue)
            self._cancelled_timers -= before - len(queue)

    def _note_process_failure(self, process, exc):
        self._failed_processes.append((process, exc))

    # -- execution ---------------------------------------------------------

    def _loop(self, until):
        """Execute entries until the queue drains (returns False) or the
        next one lies beyond ``until`` (returns True, clock untouched).

        The one run loop; :meth:`_loop_profiled` is its twin under the
        host profiler and :meth:`_loop_shuffled` its twin under a
        tie-order draw. Its shape, the default tie order:

          1. pop heap entries due at the current instant (they were
             pushed from an *earlier* instant, so they precede anything
             on the ready deque at this instant);
          2. drain the ready deque FIFO — nothing a ready callback does
             can make a heap entry due at the current instant, so no
             re-check is needed between deque entries;
          3. advance the clock to the earliest future heap entry.

        Tombstoned (cancelled) timers are skipped without advancing the
        clock and without counting in ``events_executed``.
        """
        if until is not None and not until >= self._now:
            raise SimulationError(
                f"cannot run until {until}: the clock is at {self._now} "
                "and only runs forwards")
        if self._ties is not None:
            return self._loop_shuffled(until)
        if self.hostprof is not None:
            return self._loop_profiled(until)
        ready = self._ready
        queue = self._queue
        pop = heapq.heappop
        now = self._now
        executed = 0
        try:
            while True:
                while queue and queue[0][0] <= now:
                    obj = pop(queue)[2]
                    if obj.cancelled:
                        self._cancelled_timers -= 1
                        continue
                    executed += 1
                    obj.fire()
                while ready:
                    executed += 1
                    ready.popleft()()
                if not queue:
                    return False
                when = queue[0][0]
                if until is not None and when > until:
                    return True
                obj = pop(queue)[2]
                if obj.cancelled:
                    self._cancelled_timers -= 1
                    continue
                now = when
                self._now = when
                executed += 1
                obj.fire()
        finally:
            self.events_executed += executed

    def _loop_profiled(self, until):
        """:meth:`_loop` with the host-profiler's wall-clock meters on.

        A separate loop so the unprofiled hot path pays no per-entry
        test for it; the simulated schedule is identical — the profiler
        only reads ``perf_counter`` around the same callbacks.
        """
        hp = self.hostprof
        ready = self._ready
        queue = self._queue
        pop = heapq.heappop
        now = self._now
        # Stride sampling inlined: untimed events pay one increment and
        # one modulo, not two method calls and a try/finally.
        stride = hp.stride
        executed = 0
        # The sampling counter lives in a local for the whole loop (an
        # attribute RMW per event is measurable); flushed on exit so
        # report() and nested runs see the true count.
        ev = hp.events
        hp.run_begin()
        try:
            while True:
                while queue and queue[0][0] <= now:
                    obj = pop(queue)[2]
                    if obj.cancelled:
                        self._cancelled_timers -= 1
                        continue
                    executed += 1
                    ev += 1
                    if ev % stride:
                        obj.fire()
                    else:
                        hp.begin_timed()
                        try:
                            obj.fire()
                        finally:
                            hp.event_end()
                while ready:
                    executed += 1
                    ev += 1
                    if ev % stride:
                        ready.popleft()()
                    else:
                        hp.begin_timed()
                        try:
                            ready.popleft()()
                        finally:
                            hp.event_end()
                if not queue:
                    return False
                when = queue[0][0]
                if until is not None and when > until:
                    return True
                obj = pop(queue)[2]
                if obj.cancelled:
                    self._cancelled_timers -= 1
                    continue
                now = when
                self._now = when
                executed += 1
                ev += 1
                if ev % stride:
                    obj.fire()
                else:
                    hp.begin_timed()
                    try:
                        obj.fire()
                    finally:
                        hp.event_end()
        finally:
            self.events_executed += executed
            hp.events = ev
            hp.run_end()

    def _loop_shuffled(self, until):
        """:meth:`_loop` with the tie order drawn (:meth:`shuffle_ties`).

        At each instant the heap entries due then are popped into
        ``due``; from then on every entry is drawn uniformly from
        ``due`` and the ready deque together, until both are empty —
        nothing an entry does can make another heap entry due now. A
        halt at the head of the deque runs before any draw. Entries
        still in ``due`` when the loop leaves go back on the heap with
        their sequence numbers.
        """
        if self.hostprof is not None:
            raise SimulationError(
                "shuffle_ties: the tie-order shuffle runs unprofiled only "
                "— a host profiler is attached")
        draw = self._ties.randrange
        ready = self._ready
        queue = self._queue
        pop = heapq.heappop
        due = []
        executed = 0
        try:
            while True:
                now = self._now
                while queue and queue[0][0] <= now:
                    due.append(pop(queue))
                while due or ready:
                    if ready and ready[0] is _halt:
                        executed += 1
                        ready.popleft()()
                    index = draw(len(due) + len(ready))
                    if index < len(due):
                        # Swap-remove: the draw is uniform whatever the
                        # order of ``due``.
                        obj = due[index][2]
                        due[index] = due[-1]
                        due.pop()
                        if obj.cancelled:
                            self._cancelled_timers -= 1
                            continue
                        executed += 1
                        obj.fire()
                    else:
                        index -= len(due)
                        entry = ready[index]
                        del ready[index]
                        executed += 1
                        entry()
                if not queue:
                    return False
                when, _, obj = queue[0]
                if until is not None and when > until:
                    return True
                if obj.cancelled:  # skipped without advancing the clock
                    pop(queue)
                    self._cancelled_timers -= 1
                    continue
                self._now = when
        finally:
            self.events_executed += executed
            for entry in due:
                heapq.heappush(queue, entry)

    def run(self, until=None):
        """Run until the queue drains or simulated time passes ``until``.

        A process that dies with an unhandled exception (and no waiter
        observing its completion) re-raises here at the end of the run.
        """
        self._loop(until)
        if until is not None:
            self._now = until
        self._raise_orphan_failures()
        return self._now

    def run_until_complete(self, process, limit=None):
        """Run until ``process`` finishes; return its value.

        Leaves right after the entry that completes ``process`` (later
        same-instant entries stay queued) so perpetual background
        daemons cannot keep the run alive forever. ``limit`` bounds
        simulated time as a deadlock guard; when it trips, ``_now``
        advances to ``limit`` — the same contract as :meth:`run` with
        ``until`` — rather than sticking at the last executed event.
        """
        if not process._processed:
            # No per-entry test for completion: the process's completion
            # entry puts a halt at the *head* of the ready deque, so it
            # runs next — after every other completion callback, before
            # any later same-instant entry — and ends the loop.
            # Appended directly, not through ``add_callback``: the
            # driver is not an observer of the process (orphan triage).
            ready = self._ready

            def arm(completed):
                ready.appendleft(_halt)
            process.callbacks.append(arm)
            try:
                if self._loop(limit):
                    self._now = limit
            except _Halted:
                # The halt entry is not model work.
                self.events_executed -= 1
                if self.hostprof is not None:
                    self.hostprof.events -= 1
            finally:
                # Whatever ended the loop, leave nothing behind (only a
                # halt is ever pushed at the head of the deque).
                process.discard_callback(arm)
                if ready and ready[0] is _halt:
                    ready.popleft()
        self._raise_orphan_failures()
        if not process.triggered:
            raise SimulationError(
                f"process {process.name!r} did not complete "
                f"(simulated until t={self._now:.3f})")
        if not process.ok:
            raise process.value
        return process.value

    def _raise_orphan_failures(self):
        failures = self._failed_processes
        if not failures:
            return
        self._failed_processes = []
        # A failure is "observed" if anything ever waited on the
        # process's completion event; otherwise it must not vanish.
        orphans = [(process, exc) for process, exc in failures
                   if not process._ever_waited]
        if not orphans:
            return
        first_exc = orphans[0][1]
        # Raise the first orphan, but never swallow the rest: attach
        # them as notes so two concurrently-crashing daemons both
        # surface in the traceback.
        for process, exc in orphans[1:]:
            first_exc.add_note(
                f"also unobserved: process {process.name!r} failed with "
                f"{type(exc).__name__}: {exc}")
        raise first_exc
