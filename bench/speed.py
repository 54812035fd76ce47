"""A fixed reference workload that measures how fast the machine runs now.

On a shared host the speed of one vCPU drifts by +-20% over seconds to
minutes, so two runs of identical work differ by more than the changes
the benchmark must resolve.  The benchmark therefore brackets every
timed job with a few units of this reference work and reports job times
in *reference seconds*: raw seconds x REF_UNIT_S / (measured seconds per
unit around that job).  On a machine where one unit takes REF_UNIT_S,
reference seconds equal wall seconds.

The reference is plain Python of the same kind dforge runs (tuple
polynomial products mod p with trimming, dict and tuple churn, a sort)
and imports nothing from dforge, so no change to the package moves it.
The cyclic garbage collector is off while it runs, so the size of the
heap a job leaves behind does not enter the measurement.
"""

import gc
import time

REF_UNIT_S = 0.002   # nominal seconds per unit (about one unit here)
REF_SHARE = 0.05     # reference time on each side, as a share of the job
MIN_UNITS = 2        # on each side, however short the job


def _unit():
    p = 7
    a = tuple((i * 3 + 1) % p for i in range(40))
    seen = {}
    for r in range(8):
        b = tuple((i * 5 + r) % p for i in range(40))
        out = [0] * 79
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] = (out[i + j] + x * y) % p
        while out and out[-1] == 0:
            out.pop()
        seen[tuple(out[:8])] = r
        a = tuple(out[:40])
    d = {}
    for i in range(1000):
        k = (i % 97, i // 97, (i * 7) % 13)
        d[k] = (k, i)
    s = sum(v[1] ^ k[0] for k, v in d.items())
    return s + len(sorted(d, key=lambda k: (k[2], k[0]))) + len(seen)


def units_for(expected_s):
    """Reference units to run on each side of a job of this length."""
    return max(MIN_UNITS, int(REF_SHARE * expected_s / REF_UNIT_S))


def seconds_per_unit(n):
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(n):
            _unit()
        return (time.perf_counter() - t0) / n
    finally:
        if enabled:
            gc.enable()
