"""Fault plans: what to break, when, and how hard.

A :class:`FaultPlan` is a *declarative, seeded* description of the
failures a run must survive: message loss/duplication/delay-jitter on
the fabric, crash-stop (and optional recovery) of hosts, and free-list
starvation pressure. Installed via ``sim.set_faults(plan)`` it drives a
:class:`~repro.faults.injector.FaultInjector`; every stochastic choice
is drawn from named :class:`~repro.sim.rng.SeededRng` substreams of
``plan.seed``, so a faulty run replays bit-identically from its seed.

The plan also carries the *recovery* side's knobs: the
:class:`RetryPolicy` (ack timeout, capped exponential backoff,
retransmission budget) that every client channel built under it posts
with. A plan is the only source of a repeated request.

:func:`parse_faults` turns the bench CLI's compact spec —
``--faults seed=3,drop=0.01,dup=0.001,jitter=2,crash=replica0@500+300``
— into a plan.
"""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CrashEvent:
    """Crash-stop ``host`` at ``at_us``; recover at ``recover_at_us``.

    ``recover_at_us=None`` is a permanent crash. Memory contents
    survive recovery (fail-recover with stable state, the model the
    paper's ABD variant assumes); protocol-level catch-up is the
    application's business.
    """

    host: str
    at_us: float
    recover_at_us: float = None

    def __post_init__(self):
        if self.at_us < 0:
            raise ValueError(f"crash time must be >= 0, got {self.at_us}")
        if self.recover_at_us is not None and self.recover_at_us <= self.at_us:
            raise ValueError(
                f"{self.host}: recovery at {self.recover_at_us} must come "
                f"after the crash at {self.at_us}")


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout/retransmission knobs for the recovery machinery, which
    the clients take from the installed plan's ``retry`` and from
    nowhere else (``RequestChannel.retry``).

    ``timeout_us`` is the per-attempt ack timeout; a lost request or
    reply surfaces as :class:`~repro.sim.events.TimeoutExpired` after
    this long. Retransmissions back off exponentially from
    ``backoff_base_us`` doubling per attempt, capped at
    ``backoff_max_us``, with uniform jitter drawn from the caller's
    seeded stream (no jitter without a stream — still deterministic).
    A NAK is *not* retried here: it is a delivered negative answer,
    not a loss, and reaches the application immediately.
    """

    timeout_us: float = 75.0
    max_retries: int = 8
    backoff_base_us: float = 2.0
    backoff_max_us: float = 256.0

    def backoff_us(self, attempt, rng=None):
        """Backoff before retransmission number ``attempt`` (0-based)."""
        ceiling = min(self.backoff_max_us,
                      self.backoff_base_us * (2 ** min(attempt, 16)))
        if rng is None:
            return ceiling
        return rng.uniform(self.backoff_base_us / 2, ceiling)


@dataclass(frozen=True)
class FaultPlan:
    """Everything a run should suffer, seeded for exact replay.

    All rates default to zero and the crash/starvation schedules to
    empty, so ``FaultPlan(seed=N)`` is an installed-but-quiet plan —
    useful for verifying the off-path is bit-identical.
    """

    seed: int = 0
    #: probability a message vanishes in flight (after TX serialization)
    drop: float = 0.0
    #: probability a message is delivered twice
    duplicate: float = 0.0
    #: max extra one-way delay, uniform in [0, jitter_us]
    jitter_us: float = 0.0
    #: crash-stop schedule
    crashes: tuple = ()
    #: fraction of each free list to withhold (starvation pressure)
    starve: float = 0.0
    #: when to apply the starvation pressure
    starve_at_us: float = 0.0
    #: how long to withhold; 0 withholds for the rest of the run
    starve_hold_us: float = 0.0
    #: what each client channel built under this plan retries with
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self):
        for name in ("drop", "duplicate"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p}")
        if not 0.0 <= self.starve <= 1.0:
            raise ValueError(f"starve must be in [0, 1], got {self.starve}")
        if self.jitter_us < 0:
            raise ValueError(f"jitter_us must be >= 0, got {self.jitter_us}")
        object.__setattr__(self, "crashes", tuple(self.crashes))

    @property
    def quiet(self):
        """True when the plan injects nothing (pure recovery knobs)."""
        return (self.drop == 0.0 and self.duplicate == 0.0
                and self.jitter_us == 0.0 and not self.crashes
                and self.starve == 0.0)


def _parse_crash(spec):
    """``host@at`` or ``host@at+down_for`` -> :class:`CrashEvent`."""
    host, sep, when = spec.partition("@")
    if not sep or not host:
        raise ValueError(
            f"crash spec {spec!r} must be host@at_us or host@at_us+down_us")
    at_text, sep, down_text = when.partition("+")
    at_us = float(at_text)
    recover = at_us + float(down_text) if sep else None
    return CrashEvent(host=host, at_us=at_us, recover_at_us=recover)


def parse_faults(text):
    """Parse the CLI spec ``key=value,...`` into a :class:`FaultPlan`.

    Keys: ``seed`` ``drop`` ``dup`` ``jitter`` (µs) ``crash`` (repeatable,
    ``host@at_us`` or ``host@at_us+down_us``) ``starve`` ``starve_at``
    ``starve_hold`` (µs) and the retry knobs ``timeout`` (µs)
    ``retries`` ``backoff`` ``backoff_max`` (µs). Example::

        seed=3,drop=0.01,dup=0.001,jitter=2,crash=replica0@500+300
    """
    plan = {"crashes": []}
    retry = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        key, sep, value = piece.partition("=")
        if not sep:
            raise ValueError(f"fault spec piece {piece!r} is not key=value")
        if key == "seed":
            plan["seed"] = int(value)
        elif key == "drop":
            plan["drop"] = float(value)
        elif key in ("dup", "duplicate"):
            plan["duplicate"] = float(value)
        elif key == "jitter":
            plan["jitter_us"] = float(value)
        elif key == "crash":
            plan["crashes"].append(_parse_crash(value))
        elif key == "starve":
            plan["starve"] = float(value)
        elif key == "starve_at":
            plan["starve_at_us"] = float(value)
        elif key == "starve_hold":
            plan["starve_hold_us"] = float(value)
        elif key == "timeout":
            retry["timeout_us"] = float(value)
        elif key == "retries":
            retry["max_retries"] = int(value)
        elif key == "backoff":
            retry["backoff_base_us"] = float(value)
        elif key == "backoff_max":
            retry["backoff_max_us"] = float(value)
        else:
            raise ValueError(f"unknown fault spec key {key!r}")
    if retry:
        plan["retry"] = RetryPolicy(**retry)
    return FaultPlan(**plan)
