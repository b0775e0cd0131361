"""Host speed reference: a fixed kernel timed around every measurement.

The hosts this benchmark was built on are shared, and their speed drifts:
the same fixed loop took 23 to 42 ms from one half-second to the next, and
identical solves ran up to 25% slower a few minutes later, in CPU time as
much as in wall time.  So every reported time t is scaled to a nominal host
speed, t * NOMINAL_NS / r, where r is the mean time of `kernel` measured
just before and just after t.  The kernel uses only builtins (big-int
modular squaring and a dict, like a walk step), so no change to dlogwalk can
move it.
"""

from time import perf_counter_ns

NOMINAL_NS = 400_000  # kernel time on a quiet 2-CPU x86-64 host, Python 3.11


def kernel() -> int:
    seen = {}
    x = 12345
    for i in range(1500):
        x = x * x % 16776899
        seen[x] = i
        if x ^ i in seen:
            x += 1
    return x


def reference_ns() -> int:
    t0 = perf_counter_ns()
    kernel()
    return perf_counter_ns() - t0
