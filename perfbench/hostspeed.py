"""How fast the host runs right now, measured beside every timed operation.

The benchmark runs on a few cores of a shared host whose speed moves under
it: the same pure-Python loop takes anywhere from 1x to 2x its best time,
flickering within a second and staying slow for tens of seconds at a time.
A raw wall time therefore measures the neighbours as much as the program.

So the worker times a fixed slice of pure-Python work (`slice_s`) between
operations, and the harness rescales each operation's wall time to a host
on which that slice takes `REFERENCE_SLICE_S`:

    normalised time = wall time * REFERENCE_SLICE_S / slice time beside it

A change to fubuki moves the wall time and leaves the slice alone, so it
moves the normalised time by the same share; a slow host moves both and
cancels out. The slice shares no code with fubuki and allocates nothing the
garbage collector tracks. Raw wall times are printed beside the normalised
ones and kept in the run record.
"""

from __future__ import annotations

import time
from itertools import islice, permutations

# Every 36th permutation of 1..9: 10,080 grids, built once per process.
_GRIDS = tuple(islice(permutations(range(1, 10)), 0, None, 36))
# The slice's time on a quiet host of the kind the benchmark was written on
# (a 2-core x86-64 VM, CPython 3.11); it only sets the scale of the metrics.
REFERENCE_SLICE_S = 0.004


def slice_s() -> float:
    """Seconds one calibration slice takes now."""
    counts: dict[int, int] = {}
    start = time.perf_counter()
    for p in _GRIDS:
        key = (((p[0] + p[1] + p[2]) << 5 | (p[3] + p[4] + p[5])) << 5
               | (p[0] + p[3] + p[6])) << 4 | p[4]
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - start


def calibrate(slices: int) -> float:
    """Mean seconds per slice over `slices` slices in a row."""
    return sum(slice_s() for _ in range(slices)) / slices


def normalise(seconds: float, slice_seconds: float) -> float:
    """`seconds` rescaled to a host on which a slice takes REFERENCE_SLICE_S."""
    return seconds * REFERENCE_SLICE_S / slice_seconds
