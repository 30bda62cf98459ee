"""A fixed reference computation that measures how fast the machine is now.

On a shared virtual machine the speed of the same code drifts by up to a
factor of two over tens of seconds.  The benchmark runs this kernel before
every timed invocation and reports each invocation's wall time as a multiple
of the kernel's, which cancels the drift.  The kernel never calls harqsdo, so
a change to the package does not change its time.  Its work resembles the
workloads': Python tuples gathered into numpy arrays, then many small
per-trial numpy calls and Python-int elimination over GF(2).
"""

from __future__ import annotations

import itertools
import time

import numpy as np

_COMBOS = 5_000  # per chunk, so the kernel adds little to the peak RSS
_CHUNKS = 40
_TRIALS = 900
_WEIGHTS = np.uint64(1) << np.arange(56, dtype=np.uint64)


def reference() -> float:
    """Wall seconds of one run of the fixed work; about 0.2 s on a 2.1 GHz Xeon."""
    t0 = time.perf_counter()
    for _ in range(_CHUNKS):
        combos = np.array(list(itertools.islice(itertools.combinations(range(64), 4), _COMBOS)),
                          dtype=np.int64)
        ((combos[:, 1:] - combos[:, :-1]) * combos[:, :-1]).sum()
    for i in range(_TRIALS):
        rng = np.random.Generator(np.random.Philox(key=1, counter=[0, 0, i, 0]))
        bits = rng.integers(0, 2, size=(40, 56), dtype=np.uint8)
        basis: dict[int, int] = {}
        for word in (bits.astype(np.uint64) * _WEIGHTS).sum(axis=1, dtype=np.uint64).tolist():
            while word:
                top = word.bit_length() - 1
                if top not in basis:
                    basis[top] = word
                    break
                word ^= basis[top]
    return time.perf_counter() - t0
