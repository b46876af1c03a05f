"""Scaling report: single-layer timings at fixed inputs (reported, not gated).

Usage (from the repository root):  python3 perfbench/scaling.py

Reproduces the baseline rows of ROADMAP item 1, so that a later change to
one layer can be shown at the same inputs: the interval exp/ln kernels at
256 and 4096 bits, ``ensure_values(N)`` at 128 bits for N = 500..4000
(with the growth exponent between neighbouring N, 2 for the quadratic
recurrence), ``ensure_exact(200)`` and ``hyp_series("3h3h3", 9/10, 256)``.
Each row is the median of several cold samples in this process; the
sample count is printed with it.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ellipmono import CoefficientTable, Interval, hyp_series  # noqa: E402


def _median_ms(fn, samples: int) -> float:
    times = []
    for _ in range(samples):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return 1e3 * statistics.median(times)


def main() -> None:
    rows = []
    for bits in (256, 4096):
        x = Interval.from_fraction(Fraction(7, 5), bits)
        samples = 201 if bits == 256 else 21
        for name in ("exp", "ln"):
            rows.append((f"Interval.{name} at {bits} bits",
                         _median_ms(getattr(x, name), samples), samples))
    values = []
    for n in (500, 1000, 2000, 4000):
        samples = 5 if n <= 1000 else 3
        ms = _median_ms(lambda: CoefficientTable().ensure_values(n, 128),
                        samples)
        values.append((n, ms))
        rows.append((f"ensure_values({n}) at 128 bits", ms, samples))
    rows.append(("ensure_exact(200)", _median_ms(
        lambda: CoefficientTable().ensure_exact(200), 3), 3))
    rows.append(('hyp_series("3h3h3", 9/10) at 256 bits',
                 _median_ms(lambda: hyp_series("3h3h3", Fraction(9, 10), 256),
                            5), 5))
    for name, ms, samples in rows:
        print(f"{name:42s} {ms:10.3f} ms  (median of {samples})")
    for (n0, t0), (n1, t1) in zip(values, values[1:]):
        print(f"ensure_values growth {n0} -> {n1}: "
              f"exponent {math.log(t1 / t0) / math.log(n1 / n0):.2f}")


if __name__ == "__main__":
    main()
