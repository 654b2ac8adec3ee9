"""Host speed, measured beside the program in every run.

A shared virtual host runs this machine's CPUs faster or slower in
phases lasting minutes -- other tenants contend for the same cores,
caches and memory -- and the same query's CPU time moves with them by a
third and more.  :func:`sample` times :func:`task`, a fixed piece of
work that calls nothing of the program but has its mix (small numpy
comparisons, interpreted loops over tuples, dicts and sets, and many
short-lived objects), so the ratio of its time to :data:`REFERENCE_S`
tells how fast the host runs now.  The benchmark takes samples just
before every query and scales that query's timings by
``REFERENCE_S / median(samples)``: seconds on a host that runs
:func:`task` in :data:`REFERENCE_S`.  A change to the program moves the
query times and not the samples, so it still shows.

On the reference host, over ten minutes of a noisy phase (540
``paper-2000`` queries, each after one sample), scaling each query by
its own sample cut the standard deviation of the logarithm of 40-query
medians from 0.117 to 0.028 (0.036 with one factor per 40 queries).
The host's speed is not one number -- work with a larger working set
slows more -- so the scaling narrows the drift but does not remove it.
"""

from __future__ import annotations

import gc
from typing import Callable, List

import numpy as np

#: CPU seconds :func:`task` takes on the reference host (2-vCPU KVM
#: guest, Intel Xeon, Python 3.11, numpy 2.4): the median of the
#: samples a run takes there between queries
REFERENCE_S = 0.03

_ROWS = np.random.default_rng(20200101).integers(0, 8, size=(1500, 6))
_LISTS = _ROWS.tolist()


def task() -> int:
    """Fixed work independent of the program; returns a checksum."""
    rows = _ROWS
    total = 0
    for row in rows[:100]:
        dominated = (rows <= row).all(axis=1) & (rows < row).any(axis=1)
        total += int(np.count_nonzero(dominated))
    groups = {}
    for index, row in enumerate(_LISTS):
        groups.setdefault(tuple(sorted(row)), set()).add(index)
    for key, members in sorted(groups.items(), key=lambda item: (len(item[1]), item[0])):
        total += len(members) * key[0]
    records = [(i, i % 7, float(i)) for i in range(30_000)]
    by_key = {record[:2]: record for record in records}
    for i in range(0, 30_000, 3):
        total += by_key[i, i % 7][1]
    return total


def sample(clock: Callable[[], float]) -> float:
    """Seconds :func:`task` takes now on ``clock``.

    The collector is off meanwhile: its passes would scan whatever heap
    the benchmark holds, and the sample must not depend on that.
    """
    gc.disable()
    try:
        start = clock()
        task()
        return clock() - start
    finally:
        gc.enable()


def speed_factor(samples: List[float]) -> float:
    """Multiplier taking this run's timings to the reference host's speed."""
    return REFERENCE_S / float(np.median(samples)) if samples else 1.0
