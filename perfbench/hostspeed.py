"""Host-speed gauge for the timed runs.

On the shared 2-core machine the benchmark was defined on, the same work
runs up to twice as fast in some periods as in others.  The periods last
10-30 s, and CPU time tracks wall time, so the machine itself runs slower,
not the scheduler.  For example, identical 1000-point index passes took
0.49-1.09 s in one 200 s series.  Longer runs cannot average that away.

The gauge is a fixed piece of interpreter and small-array numpy work,
close to the package's own mix, that shares no code with the package.
Timed runs read it before a pass, about every ``EVERY_S`` seconds between
items, and after the pass.  Each item's time is then also reported
rescaled to the reference speed: it is multiplied by ``REFERENCE_S`` over
the mean of the two readings around the item.  On the dispersion batch
this cut the spread of pass times from 0.24 to 0.05 (quartile distance
over median).

Workloads whose items take many seconds are not rescaled (see
``workloads.Field``): two readings around a 10 s item widened the spread
of field times (0.35 against 0.11 raw), and so did a gauge of large
complex temporaries like ``CauchyTable.phi`` read five times around each
item (0.107 against 0.060 raw over ten runs).
"""

from __future__ import annotations

import time

import numpy as np

EVERY_S = 0.2
# the gauge's time on that machine in its faster periods (about its 25th
# percentile); it only fixes the scale of the rescaled times
REFERENCE_S = 5.0e-3

_X = np.linspace(0.1, 5.0, 105)


def gauge() -> float:
    """Seconds taken by the fixed gauge work."""
    start = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(600):
        table[i % 17] = table.get(i % 17, 0.0) + 0.5 * i
        acc += (1.0001 * i) % 7.0
    for i in range(150):
        v = np.log(_X + i) + 1j * np.angle(_X - 2.5 + 0.1j)
        acc += float(np.abs(v).sum()) + float(np.unwrap(v.imag)[-1])
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor to the reference speed for an item between two readings."""
    return 2.0 * REFERENCE_S / (before + after)
