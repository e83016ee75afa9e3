"""The speed of the host's CPU, read while the benchmark runs.

On a shared host the work one CPU second does is not fixed: the same kernel
call takes 0.67 s for a few seconds, then 1.1 s, then 0.67 s again, and a
fixed loop slows by about the same factor at the same moments.  A
:class:`Sampler` times a short fixed loop, a reference round, every
``SAMPLE_S`` CPU seconds of the process (on ``SIGPROF``), so the rounds are
spread evenly over the CPU time an operation takes.  :meth:`Sampler.scale`
turns an operation's CPU time into nominal seconds: each stretch of CPU time
is weighted by how much faster than its reference reading the nominal host
would have run it, ``NOMINAL_S`` over the round's time.  Time spent in the
rounds themselves is taken out first.

CPU time is read from the calling thread's clock: the benchmark runs in one
thread, and while the profiling timer is armed the process-wide clock only
advances in scheduler ticks.

Both rounds are the Sturm-count recurrence the program's bisection kernel
spends most of its time in, written here so that no change to diraclab can
speed them up, and each takes about 1 ms.  Which round follows the host best
depends on the work it is set beside.  :func:`float_round` runs it on plain
floats; over twelve fresh imports of ``diraclab.cli`` it brought the
quartile spread of the import's CPU time from 0.079 down to 0.058, where
:func:`array_round` raised it to 0.134.  :func:`array_round` runs it on small
numpy arrays, as the kernel does; beside a repeated operation of any
workload it left scaled times that no longer rise and fall with the raw CPU
time, where :func:`float_round` left a correlation of up to 0.76.  So set-up
is scaled by the first and operations by the second.
"""

from __future__ import annotations

import signal
from time import thread_time

import numpy as np

SAMPLE_S = 0.05          # CPU seconds between reference rounds
NOMINAL_S = 0.001        # a reference round's CPU time at the nominal speed
FLOATS = [2.0 + 0.5 * ((7 * i) % 11) / 11.0 for i in range(400)]
FLOAT_SHIFTS = [0.1 * s + 0.05 for s in range(20)]
DIAG = 2.0 + 0.5 * (7 * np.arange(100) % 11) / 11.0
SHIFTS = np.linspace(0.05, 3.9, 6)
PIVMIN = 1e-300


def float_round() -> float:
    """CPU seconds taken by the recurrence on plain floats."""
    start = thread_time()
    negative = 0
    for shift in FLOAT_SHIFTS:
        q = 1.0
        for d in FLOATS:
            q = d - shift - 1.0 / q
            if q < 0.0:
                negative += 1
            elif q == 0.0:
                q = PIVMIN
    elapsed = thread_time() - start
    if negative < 0:         # keeps the loop's result live
        raise AssertionError
    return elapsed


def array_round() -> float:
    """CPU seconds taken by the recurrence on small numpy arrays."""
    start = thread_time()
    q = DIAG[0] - SHIFTS
    counts = (q <= 0).astype(np.int64)
    for d in DIAG[1:]:
        q = d - SHIFTS - 1.0 / q
        q = np.where(np.abs(q) < PIVMIN, -PIVMIN, q)
        counts += q <= 0
    elapsed = thread_time() - start
    if counts.sum() < 0:     # keeps the loop's result live
        raise AssertionError
    return elapsed


class Sampler:
    """Reference rounds every ``SAMPLE_S`` CPU seconds until :meth:`stop`.

    ``reference`` is the round taken; it may be changed between marks.
    """

    def __init__(self, reference):
        self.reference = reference
        self.speedups = []   # NOMINAL_S / round time, one per round
        self.spent = 0.0     # CPU seconds spent in the rounds
        self._busy = False
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_S, SAMPLE_S)

    def _sample(self, signum, frame):
        if self._busy:       # a signal handled during a round
            return
        self._busy = True
        elapsed = self.reference()
        self.speedups.append(NOMINAL_S / elapsed)
        self.spent += elapsed
        self._busy = False

    def cpu(self) -> float:
        """CPU seconds of the process so far, reference rounds excluded."""
        return thread_time() - self.spent

    def mark(self):
        """A point in the process's CPU time, for :meth:`scale`."""
        return self.cpu(), len(self.speedups)

    def scale(self, begin, end):
        """(nominal seconds, CPU seconds) between two marks, rounds excluded.

        With no round in between, the speed of every round so far is used.
        """
        cpu = end[0] - begin[0]
        speedups = self.speedups[begin[1]:end[1]] or self.speedups
        return cpu * sum(speedups) / len(speedups), cpu

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
