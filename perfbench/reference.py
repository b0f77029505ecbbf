"""Host-speed reference: scales op times to a fixed machine speed.

The shared hosts this benchmark runs on change speed in steps of up to half
that last from seconds to minutes (other tenants' load, not steal time, so
CPU time shows the same steps).  Longer runs do not average them out: the
spread of 24 s and of 48 s windows of the same op stream came out alike.

So a part times a fixed piece of pure-Python work, the reference, about
every REF_EVERY_S seconds of op time, and scales each op's time by
REF_NOMINAL_S over the reference time measured around it.  The reference
does the kinds of work the program does (a square-test scan over a center
progression, isqrt of a big integer, building a dict and its JSON) but
calls none of the program's code, so a change to the program moves op times
and leaves the reference alone.  Each kind alone tracks the host's steps
only in part; the mix tracked every workload's ops best.  Over ten seeded
26 s runs of each workload, the spread (quartile distance over median) of
throughput fell from 0.07-0.22 unscaled to 0.015-0.049 scaled.  A scaled
time reads as the op's time on this kind of host at the speed where the
reference takes REF_NOMINAL_S.
"""

import json
import math
from time import perf_counter

#: Reference time at the host's usual speed: the median over a few minutes
#: on a 2-vCPU Intel Xeon VM with CPython 3.11.7.
REF_NOMINAL_S = 2.5e-3
#: Seconds of op time between two references.
REF_EVERY_S = 0.1
#: Passes of the reference per measurement; the fastest counts, so that an
#: interrupt during one pass does not read as a slow host.
REF_PASSES = 3

_SQ64 = bytes(int(any(i * i % 64 == r for i in range(64))) for r in range(64))
_SQ63 = bytes(int(any(i * i % 63 == r for i in range(63))) for r in range(63))
_BIG = (1 << 20000) + 12345


def _square_root(x: int):
    if x < 0 or not _SQ64[x & 63] or not _SQ63[x % 63]:
        return None
    r = math.isqrt(x)
    return r if r * r == x else None


def _work() -> int:
    N = 9_000_001
    center = 8 * 375 + 1
    disc = center * center - N
    hits = 0
    for _ in range(2500):
        hits += _square_root(disc) is not None
        disc += 16 * center + 64
        center += 8
    for _ in range(3):
        hits += math.isqrt(_BIG) & 1
    table = {str(i): [i, i * i] for i in range(800)}
    return hits + len(json.dumps(table))


def reference_s() -> float:
    """Seconds the reference takes now: the fastest of REF_PASSES passes."""
    best = math.inf
    for _ in range(REF_PASSES):
        start = perf_counter()
        _work()
        best = min(best, perf_counter() - start)
    return best


def scale(latencies: list[float], refs: list[tuple[int, float]]) -> list[float]:
    """Scale each latency to the nominal host speed.

    refs holds (number of ops run before the reference, reference seconds),
    in order, starting at 0 and ending at len(latencies).  The ops between
    two references are scaled by the mean of the two.
    """
    scaled = []
    for (lo, before), (hi, after) in zip(refs, refs[1:]):
        factor = REF_NOMINAL_S / ((before + after) / 2)
        scaled += [t * factor for t in latencies[lo:hi]]
    return scaled
