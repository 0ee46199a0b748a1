"""A clock that runs at the machine's reference speed, not at wall speed.

On a shared VM the same pure-Python work can take 1.5x to 2.2x longer for
minutes at a time, while other tenants load the host.  Those slow spells are
far longer than one run, so neither the fastest nor the median repetition
within a run removes them.  ``SpeedClock`` measures the machine's speed while
the benchmark runs and divides it out:

* every ``INTERVAL_S`` of wall time a SIGALRM handler runs ``kernel``, a fixed
  pure-Python integer loop, and times it;
* the wall time between two samples is scaled by ``REFERENCE_S / k``, where
  ``k`` is the median of the last ``WINDOW`` kernel times;
* the handler's own time is left out.

``now()`` reads the sum, so differences of ``now()`` are durations in seconds
of a machine on which ``kernel`` takes ``REFERENCE_S``.  The kernel is part of
the benchmark, not of activita, so a faster activita does not move it.

Of the kernels tried, the integer loop tracked all three workloads best: over
five 40 s runs of each, at five seeds, the spread (IQR/median) of the median
pass fell from 0.19 to 0.11 on scale-w4 and from 0.19 to 0.09 on cold-queries,
and stayed at 0.06 on corpus.  A kernel of frozensets, generators and dict
lookups over-corrected scale-w4, whose work slows less than such code does.

The clock runs in the main thread of one process, with no threads, and a
signal handler is called only between bytecodes: a long call into C delays the
next sample but does not corrupt it.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.01
WINDOW = 5
# kernel time inside the handler on a 2-vCPU Xeon VM at its fastest, so that
# clock seconds read about as wall seconds on that machine when it is idle
REFERENCE_S = 100e-6


def kernel() -> int:
    """Fixed reference work: an integer loop, about 0.1 ms."""
    x = 0
    for i in range(1200):
        x += (i & 3) ^ (x >> 7)
    return x


class SpeedClock:
    """Start with ``start()``, read with ``now()``, end with ``stop()``."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.handler_s = 0.0
        self._clock = time.perf_counter
        # (now() at wall time `last`, `last`, scale): one tuple, so a sample
        # taken while now() runs cannot pair old and new fields
        self._state = (0.0, 0.0, 1.0)
        self._previous = None

    def start(self) -> "SpeedClock":
        kernel()  # warm up, then time one run for the first interval's scale
        start = self._clock()
        kernel()
        self._state = (0.0, self._clock(), REFERENCE_S / (self._clock() - start))
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _sample(self, signum, frame) -> None:
        clock = self._clock
        start = clock()
        kernel()
        end = clock()
        self.samples.append(end - start)
        recent = sorted(self.samples[-WINDOW:])
        virtual, last, scale = self._state
        virtual += (start - last) * scale
        end = clock()
        self._state = (virtual, end, REFERENCE_S / recent[len(recent) // 2])
        self.handler_s += end - start

    def now(self) -> float:
        """Reference-speed seconds since an arbitrary origin."""
        virtual, last, scale = self._state
        return virtual + (self._clock() - last) * scale
