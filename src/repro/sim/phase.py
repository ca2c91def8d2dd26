"""Fan-out phases: one generator per leg, run in parallel, waited on once.

A quorum protocol progresses as soon as a majority responds; the
stragglers' replies still arrive and are consumed in the background. A
partitioned transaction waits for every shard.
"""

from repro.core.errors import PrismError
from repro.sim.events import Event
from repro.sim.kernel import _Task


class QuorumError(PrismError):
    """Fewer than the required number of legs succeeded."""


def _straggler(leg, ok, value):
    """The owner of a leg still running once its phase was decided: its
    result, failure included, counts nowhere."""


class Phase(Event):
    """One fan-out phase as a scheduled payload (docs/performance.md,
    rule 11): the event its client yields, and the owner of its legs.

    ``legs`` are generators — a replica's round trip and its
    post-processing, a shard's batch. Each runs on a :class:`_Task` the
    phase owns, named by its index: resumed in the entry where the
    event it waits on is processed, by the kernel's one driver. The
    phase's value is the first ``need`` successful legs as ``(index,
    value)`` pairs in completion order, or :class:`QuorumError` — its
    ``__cause__`` the failure that decided it — once that many are out
    of reach; with ``need=None`` it
    *settles*: it waits for every leg and never fails, failures
    consumed. Lock protocols need that — after a fail-fast quorum an op
    that quietly succeeds *after* the caller gave up (a lock CAS whose
    reply was delayed or retransmitted) would be held forever; settling
    first means the caller knows exactly which operations took effect
    before it decides what to roll back.

    Its entries are those of the leg processes it replaced, at their
    instants, minus those that did only bookkeeping: every leg starts in
    the entry that builds the phase, where their bootstraps were queued;
    the leg that decides the phase wakes the waiter in its own entry
    (docs/performance.md, rule 11, the phase-wake argument: a leg is
    the one callback of the fresh event it yields, so nothing of that
    entry runs after it). Stragglers still run to completion and count
    nowhere. A zero-leg phase is born processed with ``[]``. Deciding
    hands every leg to :func:`_straggler`, so a leg that never finishes
    (a lost round trip) keeps no phase alive (``gc`` is off during a
    run).
    """

    __slots__ = ("legs", "need", "total", "successes", "failures")

    def __init__(self, sim, legs, need=None):
        total = len(legs)
        if need is not None and need > total:
            raise QuorumError(f"need {need} of only {total} legs")
        # Inlined Event.__init__ — one call per phase (see _Call).
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._ok = None
        self._triggered = False
        self._processed = False
        self.need = need
        self.total = total
        self.successes = []
        self.failures = 0
        if total:
            # Inlined _Task.__init__ — a frame per leg on the request
            # path (rule 12).
            book = self._book
            self.legs = tasks = []
            for index, generator in enumerate(legs):
                task = _Task.__new__(_Task)
                task.sim = sim
                task._generator = generator
                task.name = index
                task._done = book
                task._waiting_on = None
                tasks.append(task)
            for task in tasks:  # once all exist: a first step may decide
                task()
        else:
            self.legs = None
            self._ok = self._triggered = self._processed = True
            self._value = self.successes

    def __call__(self):
        """Wake the waiter: an inlined Event._process (rule 12)."""
        self._processed = True
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)

    def _book(self, leg, ok, value):
        """Leg ``leg`` returned ``value`` (``ok``) or raised it."""
        successes, need, total = self.successes, self.need, self.total
        if ok:
            successes.append((leg.name, value))
        else:
            self.failures += 1
        if len(successes) == need or (
                need is None and len(successes) + self.failures == total):
            self._ok, self._value = True, successes
        elif need is not None and self.failures > total - need:
            error = QuorumError(
                f"{self.failures} of {total} legs failed, {need} needed: "
                f"{value!r}")
            error.__cause__ = value
            self._ok, self._value = False, error
        else:
            return
        for leg in self.legs:
            leg._done = _straggler
        self._triggered = True
        self()  # the waiter wakes in the deciding leg's entry
