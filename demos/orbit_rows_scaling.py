"""Build time and memory of the orbit tables behind exact AI/FAI, n = 10..22.

For each n this prints the number of P-orbits of monomials, then the time
and the tracemalloc peak of building the orbit tables with every orbit row
(_orbits(n), with the per-level block tables already built), and of one
_Orbits.expand of the vector of every orbit, which lays out all 2^n ANF
coefficient bits.  Every table is a tuple of ints or a byte string, and
none runs over the 2^n masks.  Times are taken with tracemalloc off; each
peak comes from a second, traced run.  Above the exact cap MAX_EXACT_N
this measures the engine's private builders only (they have no cap);
n = 22 takes well under a second.

Run:  python demos/orbit_rows_scaling.py
"""

import time
import tracemalloc

from symfai.immunity import _block_parities, _orbits


def timed(build, *args):
    t0 = time.perf_counter()
    build(*args)
    seconds = time.perf_counter() - t0
    tracemalloc.start()
    build(*args)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return seconds, peak / 2**20


for level in range(5):
    _block_parities(level)  # the block tables of levels 0..4, shared by every n up to 31

print(" n  orbits   _orbits(n): s      MB   expand: s      MB")
for n in range(10, 23):
    orbit_s, orbit_mb = timed(_orbits.__wrapped__, n)
    orbits = _orbits(n)
    # the vector of every orbit: the sum of all 2^n monomials
    expand_s, expand_mb = timed(orbits.expand, (1 << len(orbits.reps)) - 1)
    print(f"{n:2d}  {len(orbits.reps):6d}  {orbit_s:14.3f}  {orbit_mb:6.2f}  {expand_s:9.3f}  {expand_mb:6.2f}")
