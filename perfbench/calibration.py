"""A fixed CPU kernel that measures how fast the machine runs right now.

The host this benchmark was built on changes speed by up to 2x over
minutes (shared cores; the process is never descheduled, its instructions
just take longer), which moves every wall time of a run by the same
factor.  The kernel mixes the kinds of work the program does -- a BLAS
matmul, many small numpy operations and plain Python dict and list work --
and uses no classlm code, so a change to the program never changes it.

`run.py` times the kernel right before and right after every round and
reports the end-to-end times scaled to the reference speed:

    time at reference speed = wall time * REFERENCE_S / mean kernel time

REFERENCE_S is the kernel's median time on the reference machine (2 vCPUs
at 2.1 GHz, one BLAS thread), so on that machine at its usual speed the
scaled times equal the wall times.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.11

_rng = np.random.default_rng(0)
_A = _rng.random((128, 256))
_B = _rng.random((256, 256)) / 256.0
_X = _rng.random(400)
_Y = _rng.random(400)


def kernel_seconds():
    """Wall time of one pass of the fixed kernel."""
    start = time.perf_counter()
    for _ in range(120):
        np.tanh(_A @ _B).sum()
    for _ in range(4500):
        v = np.exp(-_X) * _Y + _X
        v.max()
    counts = {}
    for i in range(120000):
        key = i % 113
        counts[key] = counts.get(key, 0) + i
    [sum(row) for row in ([j] * 30 for j in range(4500))]
    return time.perf_counter() - start
