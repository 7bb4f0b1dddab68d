"""How fast the machine runs right now, measured by two fixed loads.

The benchmark's machine changes speed by 10-45%, both from one tenth of
a second to the next and over minutes (see README.md, "Drift").  Each
worker times ``sample()`` just before every operation, so the speed is
measured at the same moments as the program.  A factor is the
machine's slowness relative to the reference: 1.0 at the reference
speed, 1.2 when the fixed loads take 20% longer.  run.py divides each
time it reports by the factor ``op_factors()`` gives for it.

The loads touch nothing of excov, so a change to the program cannot move
a factor.  One is pure Python (tuple permutations and a dict, like the
group and orbit code), one is numpy (a gather and a bincount over 2^17
int64 in buffers allocated once, like the table code).  A sample's
factor is the geometric mean of the two.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# Median times of the two loads, in ms, on the reference machine (a
# 2-vCPU VM, "Intel Xeon Processor" at 2.1 GHz, Python 3.11.7, numpy
# 2.4.6), over the samples of ten tower-sweep and big-field runs.
# Reported times are in seconds at this speed.
REF_PY_MS = 2.8
REF_NP_MS = 2.5

_N = 1 << 17
_PERM = tuple((i * 37 + 11) % 257 for i in range(257))
_A = np.arange(_N, dtype=np.int64)
_IDX = np.empty(_N, dtype=np.int64)
_B = np.empty(_N, dtype=np.int64)


def sample() -> tuple[float, float]:
    """Times of the pure-Python and the numpy load, in ms."""
    t0 = time.perf_counter()
    p = tuple(range(257))
    seen: dict = {}
    for _ in range(160):
        p = tuple(_PERM[i] for i in p)
        seen[p] = seen.get(p, 0) + 1
    t1 = time.perf_counter()
    np.multiply(_A, 7919, out=_IDX)
    np.add(_IDX, 13, out=_IDX)
    np.remainder(_IDX, _N, out=_IDX)
    np.take(_A, _IDX, out=_B)
    np.remainder(_B, 1021, out=_B)
    np.bincount(_B, minlength=1021)
    t2 = time.perf_counter()
    return (t1 - t0) * 1000, (t2 - t1) * 1000


def factor(samples: list) -> float:
    """The machine's slowness over ``samples``, relative to the reference."""
    py = statistics.median(s[0] for s in samples) / REF_PY_MS
    nump = statistics.median(s[1] for s in samples) / REF_NP_MS
    return math.sqrt(py * nump)


def op_factors(samples: list, exponent: float = 1.0) -> list[float]:
    """One factor per sample, for the time measured just after it.

    Each is the geometric mean of the sample's own factor and the factor
    of all samples, raised to ``exponent``.  A short operation runs at
    about the speed measured just before it; a long one spans many
    changes of speed, which the median over the round follows better.
    ``exponent`` is how strongly a workload's times follow the loads:
    1 for compute-bound work, less where memory traffic dominates.
    """
    whole = factor(samples)
    return [(factor([s]) * whole) ** (exponent / 2) for s in samples]
