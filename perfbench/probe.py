"""Speed probe: how fast this machine runs Python at the moment.

On a shared host the speed of one core drifts by up to 90% within
seconds, as neighbours load the caches and memory bus, and a whole
repetition of a workload can run 40% slower than the one before it.  The
probe measures that drift while the workload runs: a fixed computation
that uses only the standard library (pointer chasing over a 40 MB list,
big-integer products, ``Fraction`` sums, the ingredients of the
workloads), started from a ``SIGALRM`` handler every ``PERIOD`` seconds,
so that it samples the same seconds as the operations around it.  Its own
time is subtracted from the operation that it interrupted.

``run.py`` divides a repetition's operation time by the probe's mean time
in that repetition and scales the quotient by ``REF_S``: the result is the
operation time on a core where the probe takes ``REF_S`` seconds.  A change
to the library moves the operation time and leaves the probe alone; a
change to this file changes every ``wall_ref_s``, so it must not be
edited between two commits that are compared.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

PERIOD = 0.2   # seconds between probe samples
REF_S = 0.012  # the probe's time on an idle Xeon core of the 2-core host

_N = 1 << 20
_STEPS = 20_000
_X = 3 ** 50_000
_Y = 7 ** 40_000


class Probe:
    """Runs the probe every ``PERIOD`` seconds until ``stop``."""

    def __init__(self) -> None:
        # i -> (a*i + c) mod 2^20 with c odd and a = 1 (mod 4) is one
        # cycle through every index, so the chase visits the whole list.
        self._chain = [(1103515245 * i + 12345) & (_N - 1)
                       for i in range(_N)]
        self.times: list[float] = []
        self.total = 0.0

    def _sample(self) -> None:
        t = time.perf_counter()
        chain, i = self._chain, 0
        for _ in range(_STEPS):
            i = chain[i]
        for _ in range(2):
            _X * _Y
        acc = Fraction(0)
        for k in range(1, 200):
            acc += Fraction(1, k * k)
        dt = time.perf_counter() - t
        self.times.append(dt)
        self.total += dt

    def _on_alarm(self, signum, frame) -> None:
        self._sample()

    def start(self) -> None:
        self._sample()  # warm: the first sample pages the list in
        self.times.clear()
        self.total = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.times:  # a run shorter than PERIOD
            self._sample()
