"""Command times corrected for the speed the host runs at just then.

On a shared host one interpreter's speed changes by 30-50% both in steps
that last tens of seconds, longer than a run, and from one fraction of a
second to the next, within a single command.  Raw wall times of the same
code then spread past any useful bound.  The change hits every piece of
pure-Python work running at that moment, so the benchmark samples the
speed with a fixed kernel that never calls the program: nine runs right
before a timed block, nine right after, and one every `PERIOD_S` while it
runs, from a timer signal.  It reports the block's wall time, less the
time the samples inside it took, scaled to a host on which one kernel run
takes `REF_KERNEL_S`:

    scaled = (wall - samples inside) * REF_KERNEL_S / median(kernel samples)

The value reads in seconds at that reference speed; on the reference host
(a 2-vCPU Intel Xeon VM at 2.1 GHz, Python 3.11) in its fast state it is
the wall time.  A change to the program moves the wall time and not the
kernel, so it moves the scaled time by the same share.

The timer interrupts the program about 50 times a second, which costs it
a little time of its own beyond the samples; the cost is the same on every
commit.  Everything runs in the main thread, which is where Python runs
signal handlers.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from typing import Callable, Optional, TypeVar

T = TypeVar("T")

# median kernel run on the reference host in its fast state, in seconds
REF_KERNEL_S = 0.00033
PERIOD_S = 0.02  # one sample inside a block every 20 ms
BRACKET = 9  # samples before and after a block

_N = 400
_rng = random.Random(20120203)
_ADJ = tuple(tuple(_rng.sample(range(_N), 4)) for _ in range(_N))


def _kernel() -> int:
    """Breadth-first searches over a fixed random graph held as a list of
    tuples, with the list, dict, set and integer work the program's own
    searches do."""
    total = 0
    for root in range(3):
        seen = [False] * _N
        parent: dict[int, int] = {}
        queue, head = [root], 0
        seen[root] = True
        while head < len(queue):
            v = queue[head]
            head += 1
            for w in _ADJ[v]:
                if not seen[w]:
                    seen[w] = True
                    parent[w] = v
                    queue.append(w)
        total += len(set(parent.values())) + sum(queue) % 7
    return total


_KERNEL_RESULT = _kernel()


def _sample() -> float:
    """Wall time of one kernel run."""
    t0 = time.perf_counter()
    if _kernel() != _KERNEL_RESULT:
        raise AssertionError("calibration kernel gave a different result")
    return time.perf_counter() - t0


# samples taken by the timer signal in the open block; None when no block
# is open, so that a signal still pending after a block closes is ignored
_inside: Optional[list[float]] = None


def _tick(signum, frame) -> None:
    if _inside is not None:
        _inside.append(_sample())


signal.signal(signal.SIGALRM, _tick)


class Block:
    """Times the `with` body: `wall` is its wall time less the samples
    taken inside it, `scaled` that time at the reference speed."""

    wall = scaled = 0.0

    def __enter__(self) -> "Block":
        global _inside
        self._before = [_sample() for _ in range(BRACKET)]
        _inside = []
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        global _inside
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        end = time.perf_counter()
        inside, _inside = _inside, None
        self.wall = end - self._t0 - sum(inside)
        after = [_sample() for _ in range(BRACKET)]
        self.scaled = self.wall * REF_KERNEL_S / statistics.median(self._before + inside + after)


def timed(fn: Callable[[], T]) -> tuple[T, float]:
    """Run `fn`; return its result and its time at the reference speed."""
    with Block() as block:
        result = fn()
    return result, block.scaled
