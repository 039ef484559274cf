"""Host speed, measured right before each timed piece of work.

The benchmark runs on small shared machines whose speed for plain Python and
numpy code drifts by up to about 2x for seconds at a time, as other tenants load
the host; a whole run can fall in a fast or a slow stretch, so raw times of
the same code differ more between runs than any bound worth keeping.  So
before each task and each set-up, the benchmark times a fixed piece of
reference work and reports the task's time at the reference speed: measured
time multiplied by ``REFERENCE_S / t_ref``.  The reference work uses nothing
from the program, so a change to the program cannot change its time.  It
holds a little of each kind of operation the workloads spend their time in:
interpreter loops, dict and tuple work, ``Fraction`` arithmetic, small numpy
arrays, float formatting, JSON encoding and list allocation.  Each kind slows
down by a different amount as the load on the host changes, and in trials
this mix tracked all three workloads better than any single kind.
``REFERENCE_S`` is about what it takes on an unloaded 2-core Xeon (Sapphire
Rapids, 2.1 GHz), so reported times read as that machine's.  Each run's
record keeps the measured times and the reference timings as well.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

import numpy as np

REFERENCE_S = 0.4e-3
REPEATS = 2  # the faster of two back-to-back timings


_FLOATS = [i * 0.37 + 1e-3 for i in range(150)]


def reference_work() -> int:
    """A little of each kind of operation the three workloads spend time in,
    each taking a similar share of the time."""
    acc = 0.0
    for i in range(1500):
        acc += i * 0.5
    table = {(i, i % 7): i * 3 % 97 for i in range(500)}
    q = Fraction(0)
    for i in range(1, 25):
        q += Fraction(i, i + 1)
    v = np.linspace(0.0, 1.0, 9)
    for _ in range(30):
        v = v * 0.5 + np.sqrt(v)
    text = ",".join("%.17g" % x for x in _FLOATS[:100])
    doc = json.dumps(_FLOATS)
    column = [float(i) for i in range(1500)]
    return len(table) + q.denominator % 7 + len(text) + len(doc) + int(acc + sum(column) + v[0])


class Speed:
    """Scale factors from measured time to reference-speed time."""

    def __init__(self):
        self.samples: list[float] = []

    def scale(self) -> float:
        """Time the reference work now; return ``REFERENCE_S / t_ref``."""
        timings = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            reference_work()
            timings.append(time.perf_counter() - start)
        self.samples.append(min(timings))
        return REFERENCE_S / self.samples[-1]
