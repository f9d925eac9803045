"""The host's speed, sampled with a fixed loop while segments are timed.

The benchmark runs on shared hosts whose speed drifts by a quarter and
more within seconds, for reasons outside the process: a fixed loop of
integer arithmetic, run back to back, takes anywhere from 0.14 to 0.21 s
on a 2-vCPU cloud VM.  Raw times of the same code then spread wider
between runs than any useful bound.  So the benchmark times each segment
(an import, a set-up, one CLI command, one block of session queries) with
the gauge running: a sample of the fixed loop below at the start, every
``PERIOD_S`` of wall time from a timer signal, and at the end.  The
segment's seconds are scaled by ``REF_S`` over the mean sample, so that
they read as seconds on a host where the loop takes ``REF_S``.  On that
VM this cut the spread of one 5 s computation, repeated over minutes,
from 0.14 of its median to 0.05; samples at the segment's ends alone did
not cut it.

The loop touches nothing of the package, so a change to the package
moves the scaled times by the same share as the raw ones.  The scaling is
not exact: when the host slows, the package slows about 1.3 times as much
as the loop, so scaled times still drift a few percent with the host.
``clock`` leaves out the time the samples took, so they add nothing to
what is timed.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
from time import perf_counter

LOOP = 20_000
REF_S = 0.0015  # about the loop's median time on the 2-vCPU VM the bounds were set on
PERIOD_S = 0.05


class Segment:
    """What the gauge measured over one segment; ``factor`` is set when
    the segment ends."""

    factor = 1.0


class Gauge:
    """Owns the timer signal; create one per run, in the main thread."""

    def __init__(self) -> None:
        self._taken = 0.0
        self._samples: list[float] | None = None
        self.factors: list[float] = []
        signal.signal(signal.SIGALRM, self._sample)

    def clock(self) -> float:
        """Seconds, less those the gauge's samples took."""
        return perf_counter() - self._taken

    def _sample(self, *_signal) -> None:
        if self._samples is None:  # a late signal after the segment ended
            return
        t0 = perf_counter()
        s = 0
        for i in range(LOOP):
            s += i * i % 7
        t1 = perf_counter()
        self._samples.append(t1 - t0)
        self._taken += perf_counter() - t0

    @contextlib.contextmanager
    def segment(self):
        """Sample the host's speed while the body runs; time the body with
        ``clock``, then scale its seconds by the segment's ``factor``."""
        seg = Segment()
        self._samples = []
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield seg
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._sample()
            seg.factor = REF_S / statistics.fmean(self._samples)
            self._samples = None
        self.factors.append(seg.factor)
