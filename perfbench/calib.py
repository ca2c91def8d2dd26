"""The host-speed yardstick: a fixed pure-Python loop timed beside every repeat.

Raw wall time on a shared 2-core box drifts ~16% between back-to-back
invocations of the same deterministic point; the same wall divided by the time
this loop took just before and after drifts ~2%. The loop does what the kernel
hot path does (generator ``send``, ``heapq`` push/pop, ``deque`` append/pop) so
that frequency scaling, cache pressure and a busy neighbour slow both alike.
It imports nothing from ``repro``: a change to the program cannot move it.
"""

import heapq
from collections import deque
from time import perf_counter

#: Nominal duration of :func:`calibration_loop` on the box the benchmark was
#: sized on. Normalised seconds are ``wall / calib_wall * CALIB_REF_S``, i.e.
#: "seconds this would have taken had the yardstick run at its nominal speed".
CALIB_REF_S = 0.25

_ROUNDS = 330_000
_HEAP_DEPTH = 512  # about what a 32-client run keeps in flight


def normalised(seconds, calib_before, calib_after):
    """``seconds`` as they would read had the yardstick run at nominal speed."""
    return seconds / ((calib_before + calib_after) / 2.0) * CALIB_REF_S


def _echo():
    value = 0
    while True:
        value = (yield value) + 1


def calibration_loop(rounds=_ROUNDS):
    """Run the yardstick once; returns the wall seconds of a full-length loop.

    A shorter loop (``rounds`` below the default, for the micro-benchmarks)
    is scaled up to what the full-length one would have taken at the speed
    observed, so every caller divides by the same quantity.
    """
    start = perf_counter()
    gen = _echo()
    send = gen.send
    send(None)
    heap = []
    ready = deque()
    push, pop = heapq.heappush, heapq.heappop
    acc = 0
    for i in range(rounds):
        push(heap, ((i * 7919) % 1009, i))
        ready.append(send(i))
        if i >= _HEAP_DEPTH:
            acc += pop(heap)[0] + ready.popleft()
    gen.close()
    return (perf_counter() - start) * (_ROUNDS / rounds)
