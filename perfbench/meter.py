"""Speed meter: CPU seconds at a fixed reference CPU speed.

The machine the benchmark was built on (a 2-vCPU VM) loses time in two
ways that have nothing to do with the program: the host takes the vCPU
away (steal time, up to half of a second), and the speed of the vCPU
changes by about a third, for seconds to minutes at a time.  Raw
wall-clock times of the same call then spread by 20-25% from run to run,
which hides any change smaller than that.

The meter therefore counts CPU time, which leaves steal time out, and
converts it to a fixed speed.  It times a fixed reference loop (exact
``Fraction`` products summed into a dict keyed by exponent tuples, the
library's own kind of work) about ten times per CPU second *while* the
measured code runs, from a ``SIGPROF`` handler in the same thread, and
once before and after.  A duration is reported as::

    (CPU seconds - CPU seconds spent in the handler)
        * mean(REFERENCE_S / reference CPU seconds)

that is, the time the code would take at the speed at which the reference
loop takes ``REFERENCE_S``, with the CPU to itself.  On that machine this
cut the spread of one 4 s call from about 20% to about 3%.  The handler
touches no program state, so outputs do not change.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter, process_time, thread_time

# the reference loop's CPU time at the nominal speed (Python 3.11, 2 GHz vCPU)
REFERENCE_S = 0.002
INTERVAL_S = 0.1

_KEYS = [(i % 17, i % 13, i) for i in range(500)]
_TABLE = {k: Fraction(k[2] + 1, k[0] + 3) for k in _KEYS}
_SCALE = Fraction(3, 7)


def reference() -> float:
    """CPU seconds taken by one pass of the fixed reference loop."""
    start = thread_time()
    out: dict = {}
    for k in _KEYS:
        e = (k[0] + 1, k[1] + 2)
        out[e] = out.get(e, 0) + _TABLE[k] * _SCALE
    return thread_time() - start


def speed_factor(refs: list) -> float:
    """Multiplier from CPU seconds to seconds at the reference speed."""
    return statistics.fmean(REFERENCE_S / r for r in refs)


class SpeedMeter:
    """``with SpeedMeter() as m: work()``; then ``m.seconds`` is the time
    at the reference speed, ``m.factor`` the multiplier from CPU seconds
    to it, and ``m.wall_s`` the raw wall-clock time."""

    def __init__(self):
        self.refs: list = []
        self.handler_s = 0.0
        self.wall_s = 0.0
        self.factor = 1.0
        self.seconds = 0.0

    def _tick(self, signum, frame) -> None:
        start = thread_time()
        self.refs.append(reference())
        self.handler_s += thread_time() - start

    def __enter__(self) -> "SpeedMeter":
        self.refs.append(reference())
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        self._wall = perf_counter()
        self._cpu = process_time()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        cpu_s = process_time() - self._cpu
        self.wall_s = perf_counter() - self._wall
        signal.signal(signal.SIGPROF, self._previous)
        self.refs.append(reference())
        self.factor = speed_factor(self.refs)
        self.seconds = (cpu_s - self.handler_s) * self.factor
