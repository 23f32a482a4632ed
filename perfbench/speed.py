"""A speed probe that puts op times on one host-speed scale.

The benchmark was built on a shared two-vCPU x86_64 VM whose speed moved by
up to 40% over minutes while nothing else ran in it. The probe is a fixed
~5 ms mix of the kinds of work derivkit does: a pure-Python loop, small
matrix products, and passes over an 8 MB array. The runner times it between
ops and scales each op's latency by ``REFERENCE_S`` over the median of the
eight probes around the op, which takes out much of the host's drift (the
probe itself varies by ~15% from one call to the next, hence the median);
the raw times are kept in every result file.
"""

from __future__ import annotations

import time

import numpy as np

#: Median probe time on the reference host when it ran at its quiet speed,
#: so scaled times read as seconds on that host.
REFERENCE_S = 0.0050

_ARRAY = np.linspace(0.0, 1.0, 1_000_000)
_MATRIX = np.eye(3) * 0.5


def probe() -> float:
    """Seconds taken by the fixed probe work."""
    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i
    v = np.zeros(3)
    for _ in range(300):
        v = _MATRIX @ v + 1.0
    for _ in range(3):
        _ARRAY.sum()
    return time.perf_counter() - start
