"""The host-speed reference: a fixed loop timed next to every operation.

The 2-CPU hosts this benchmark runs on are shared: the speed of each
CPU drifts by 20-50% within seconds and in phases lasting minutes, so
an operation's wall time swings with the host, not only with the
program.  A fixed loop of the same kinds of work the program does
slows down with it: an interpreter-bound arithmetic loop, and small
NumPy convolutions, prefix sums and searches over a table larger than
a core's L2 cache, with dict probes, hashing and small frozen objects
(as the program's result cache and PDFs do).  Timing that loop before
the first operation and after each one, and dividing the mean
operation time by the mean loop time, gives the operation's duration
in reference units: steady across host phases, and still proportional
to the program's own cost, because the loop calls no code of the
program.

The table costs about 8 MB, allocated at import, so it is part of the
in-process workloads' ``peak_rss_mb`` on every commit alike.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

#: Rounds of each half: about 0.06 s each on the 2-CPU host the
#: benchmark was built on.
ARITH_ROUNDS = 6000
OBJECT_ROUNDS = 2400

_RNG = np.random.default_rng(7)
_POOL = _RNG.random(1 << 16)
_STARTS = _RNG.integers(0, (1 << 16) - 64, 1 << 12).tolist()
_TABLE = {(i, i * 7919 % 1009): _RNG.random(33) for i in range(20000)}
_PROBES = [(i, i * 7919 % 1009)
           for i in _RNG.integers(0, 20000, 1 << 12).tolist()]


@dataclass(frozen=True)
class _Pdf:
    offset: int
    masses: np.ndarray

    def percentile(self, q: float) -> int:
        c = np.cumsum(self.masses)
        return self.offset + int(c.searchsorted(q * c[-1]))


def _arith(rounds: int) -> float:
    a = _POOL[:33]
    b = _POOL[33:50]
    acc = 0.0
    table = {}
    for i in range(rounds):
        acc += float(np.cumsum(np.convolve(a, b))[-1])
        table[i & 255] = (acc, i)
        s = 0
        for j in range(30):
            s += j * i
    return acc


def _objects(rounds: int) -> float:
    made = {}
    acc = 0.0
    for i in range(rounds):
        start = _STARTS[i & 4095]
        a = _POOL[start:start + 33]
        c = np.convolve(a, _TABLE[_PROBES[i & 4095]][:17])
        c /= c.sum()
        p = _Pdf(i, c[c > 1e-4].copy())
        acc += p.percentile(0.99)
        made[(i & 1023, hash(p.masses.tobytes()))] = p
        for j in range(4):
            acc += float(_TABLE.get(_PROBES[(i * 5 + j) & 4095], a)[j])
    return acc


def reference_s() -> float:
    """Wall time of the fixed reference loop."""
    t0 = time.perf_counter()
    _arith(ARITH_ROUNDS)
    _objects(OBJECT_ROUNDS)
    return time.perf_counter() - t0
