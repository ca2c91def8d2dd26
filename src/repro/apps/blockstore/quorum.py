"""Quorum phases: one round trip to each of n replicas, waited on once.

ABD progresses as soon as a majority responds; the stragglers' replies
still arrive and are consumed in the background.
"""

from functools import partial

from repro.core.errors import PrismError
from repro.sim.events import Event


class QuorumError(PrismError):
    """Fewer than the required number of replica operations succeeded."""


class Phase(Event):
    """One quorum phase as a scheduled payload (docs/performance.md,
    rule 11): the event its client yields, and what runs its legs.

    ``legs`` are the replica operations' generators (``PrismClient``
    round trips and their post-processing). The phase runs each one as
    a process would — resumed in the entry where the round trip it
    waits on completes, under its creator's flight-recorder context —
    without being one. Its value is the first ``need`` successful legs
    as ``(index, value)`` pairs in completion order, or
    :class:`QuorumError` once that many are out of reach; with
    ``need=None`` it *settles*: it waits for every leg and never fails,
    failures consumed. Lock protocols need that — after a fail-fast
    quorum an op that quietly succeeds *after* the caller gave up (a
    lock CAS whose reply was delayed or retransmitted) would be held
    forever; settling first means the caller knows exactly which
    operations took effect before it decides what to roll back.

    Its entries are the leg processes', at their instants, minus those
    that did only bookkeeping: one boot slot starts every leg, where
    their consecutive bootstraps were; the leg that decides the phase
    takes the slot its process's completion entry had, which queues the
    phase's own to wake the waiter. Stragglers still run to completion
    and count nowhere. A zero-leg phase is born processed with ``[]``.
    The phase holds no leg once booted, so no reference cycle outlives
    one (``gc`` is off during a run).
    """

    __slots__ = ("legs", "need", "total", "successes", "failures",
                 "_flight_ctx")

    def __init__(self, sim, legs, need=None):
        total = len(legs)
        if need is not None and need > total:
            raise QuorumError(f"need {need} of only {total} replicas")
        # Inlined Event.__init__ — one call per phase (see _Call).
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._ok = None
        self._triggered = False
        self._processed = False
        self.legs = legs
        self.need = need
        self.total = total
        self.successes = []
        self.failures = 0
        self._flight_ctx = sim.context()
        if total:
            sim._ready.append(self)  # the boot slot
        else:
            self._ok = self._triggered = self._processed = True
            self._value = self.successes

    def __call__(self):
        """Boot slot, decision slot, or the wake-up of the waiter."""
        if self._triggered:
            self._process()
        elif self._ok is not None:
            self._triggered = True
            self.sim._ready.append(self)
        elif self._flight_ctx is None:
            self._boot()
        else:
            self.sim.call_as(self, Phase._boot, self)

    def _boot(self):
        legs, self.legs = self.legs, None
        for index, leg in enumerate(legs):
            self._step(index, leg)

    def _step(self, index, leg, event=None):
        """Run leg ``index`` to its next wait, as a process's resume
        would; once it has finished, book it."""
        try:
            if event is None or event._ok:
                target = leg.send(None if event is None else event._value)
            else:
                target = leg.throw(event._value)
        except StopIteration as stop:
            value, failure = stop.value, None
        except Exception as exc:
            value, failure = None, exc
        else:
            resume = partial(self._step, index, leg)
            if self._flight_ctx is not None:
                resume = partial(self.sim.call_as, self, resume)
            target.callbacks.append(resume)
            return
        if self._ok is not None:
            return  # a straggler
        successes, need, total = self.successes, self.need, self.total
        if failure is None:
            successes.append((index, value))
        else:
            self.failures += 1
        if len(successes) == need or (
                need is None and len(successes) + self.failures == total):
            self._ok, self._value = True, successes
        elif need is not None and self.failures > total - need:
            self._ok, self._value = False, QuorumError(
                f"{self.failures} replica ops failed; quorum of "
                f"{need}/{total} unreachable: {failure!r}")
        else:
            return
        self.sim._ready.append(self)  # the decision slot
