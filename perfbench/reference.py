"""A fixed computation that gauges how fast the machine runs right now.

The host this benchmark was built on shares its cores: the same pass of
queries ran up to 80% slower a few minutes apart, uniformly across the
package's layers.  ``reference_ns`` times a fixed mix of the operations the
package spends its time in (small-int loops, dict stores, Fraction sums,
list sorting, set building, JSON encoding), none of them from the package.
The benchmark interleaves it with the queries and scales each measured time
by ``NOMINAL_NS`` over the reference time measured alongside it, which
reports times at one fixed machine speed.  The raw times stay in the report.
"""

from __future__ import annotations

import json
import statistics
import time
from fractions import Fraction

# the reference computation's median time on the reference machine (2-core
# x86-64 VM, CPython 3.11) while it ran this benchmark
NOMINAL_NS = 6_000_000


def reference_ns() -> int:
    start = time.perf_counter_ns()
    total = 0
    table = {}
    for i in range(8000):
        total += (i * i) % 7919
        table[i & 1023] = total
    x = Fraction(1, 3)
    for i in range(1, 200):
        x += Fraction(1, i)
    values = [(i * 7919) % 100003 for i in range(20000)]
    values.sort()
    set(values)
    json.dumps(values[:5000])
    return time.perf_counter_ns() - start


def speed_factor(samples: list[int]) -> float:
    """NOMINAL_NS over the median of the reference times measured alongside."""
    return NOMINAL_NS / statistics.median(samples)
