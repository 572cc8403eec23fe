"""Build time and memory of the orbit tables behind exact AI/FAI, n = 10..19.

For each n this prints the number of P-orbits of monomials, then the time
and the tracemalloc peak of building the orbit tables (_orbits(n), which
still holds 2^n-entry arrays) and of building the orbit rows of every
weight class (_class_truth_table(n, k) for k = 0..n), which use no array
with a point axis.  Times are taken with tracemalloc off; each peak comes
from a second, traced build.  Runs above the exact cap MAX_EXACT_N, since
these private builders have none; n = 19 takes a few seconds in all.

Run:  python demos/orbit_rows_scaling.py
"""

import time
import tracemalloc

from symfai.immunity import _class_truth_table, _orbits


def all_rows(n):
    return [_class_truth_table.__wrapped__(n, k) for k in range(n + 1)]


def timed(build, n):
    t0 = time.perf_counter()
    build(n)
    seconds = time.perf_counter() - t0
    tracemalloc.start()
    build(n)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return seconds, peak / 2**20


print(" n  orbits   _orbits(n): s      MB    all rows: s      MB")
for n in range(10, 20):
    orbit_s, orbit_mb = timed(_orbits.__wrapped__, n)
    _orbits(n)  # the rows read the cached tables
    rows_s, rows_mb = timed(all_rows, n)
    print(f"{n:2d}  {len(_orbits(n).reps):6d}  {orbit_s:14.3f}  {orbit_mb:6.1f}  {rows_s:11.3f}  {rows_mb:6.2f}")
