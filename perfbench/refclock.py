"""Reference seconds: wall time corrected for the host's changing speed.

The benchmark runs on shared hosts whose speed changes under it.  On the
2-vCPU development machine a fixed pure-Python loop took anywhere from
0.10 to 0.18 s, switching between the two within seconds, with no steal
time reported to the guest; two sets of runs half an hour apart differed
by up to 1.5 times in every time metric.  Raw wall time then measures the
neighbours as much as the program.

A ``RefClock`` samples the host's speed while the program runs: every
``PERIOD`` seconds a timer signal runs ``reference_loop`` (stdlib only, no
graphalign code) in the same thread and records how long it took.  A span
of program time becomes reference seconds by scaling it with
``NOMINAL / t``, averaged over the samples taken during the span and the
``CONTEXT`` samples just before it, where ``t`` is one sample's loop time.
A span measured while the host ran at half speed thus counts half.  The
sampler's own time is taken out of every span.

A change to the program moves reference seconds as it moves wall time,
since the loop does not run program code; a change of host speed that the
loop feels too does not move them.  Disk and other kernel work need not
slow down with the loop, so the correction is only as good as the span is
CPU-bound Python.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

NOMINAL = 5.0e-4  # seconds: the loop's typical time on the development machine
PERIOD = 0.05  # seconds between samples
CONTEXT = 4  # samples before a span that also count for it


def reference_loop() -> dict:
    """A fixed mix of the dict, tuple, frozenset, string and sorting work
    graphalign does.

    In one sweep_small process whose raw round times had a relative
    standard deviation of 0.14, correcting by the first half of this loop
    alone left 0.056, by a loop like the second half alone 0.049, and by
    both together 0.032.
    """
    d = {}
    for i in range(400):
        k = (i % 97, i % 13)
        d[k] = d.get(k, 0) + 1
        frozenset(k)
    made = []
    for i in range(150):
        made.append(frozenset((f"e{i}", i % 7)))
    made.sort(key=len)
    return {x: i for i, x in enumerate(made)}


class RefClock:
    """Context manager that samples the host's speed while it is entered."""

    def __init__(self, period: float = PERIOD, on_sample=None) -> None:
        self.period = period
        self.on_sample = on_sample  # called with each sample's seconds
        self.factors: list[float] = []  # NOMINAL / loop time, one per sample
        self.sampling = 0.0  # seconds spent in the sampler
        self._busy = False
        self._previous = None

    def sample(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = perf_counter()
        reference_loop()
        t1 = perf_counter()
        self.factors.append(NOMINAL / (t1 - t0))
        spent = perf_counter() - t0
        self.sampling += spent
        if self.on_sample is not None:
            self.on_sample(spent)
        self._busy = False

    def __enter__(self) -> RefClock:
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def time(self, fn):
        """Call ``fn()``; return its result, its raw seconds and its reference seconds.

        Raw seconds leave out the sampler's time.  An exception from ``fn``
        propagates and nothing is returned.
        """
        n0, s0 = len(self.factors), self.sampling
        t0 = perf_counter()
        result = fn()
        raw = perf_counter() - t0 - (self.sampling - s0)
        factor = statistics.fmean(self.factors[max(n0 - CONTEXT, 0):])
        return result, raw, raw * factor
