"""Host-speed reference: a fixed slice of work timed beside the program.

On the shared host this benchmark was written on, the CPU's speed drifts
by up to about two times, CPU time included, for stretches from under a second
to whole minutes. A run whose entire window falls in a slow stretch is slow
however many passes it takes, so raw wall times of the same code spread
between runs further than a regression bound allows. The benchmark
therefore times a fixed slice of its own work right after every timed
invocation and every set-up run, and scales its times by how fast the
slices ran. The slice mixes the three kinds of work the workloads do:
interpreter steps on tiny arrays (the iteration engines), pure Python
arithmetic (schedule evaluation) and bulk array work over a few megabytes
(the pairwise scans). Nothing in it comes from `src/`, so a change to the
program cannot move the reference.
"""

from __future__ import annotations

import csv
import io
import json
import time

import numpy as np

# One slice's median wall time on the host the benchmark was tuned on
# (Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.4). It only sets the scale:
# scaled times read as seconds at that speed. Changing it moves every
# scaled time, so it stays fixed.
NOMINAL_S = 0.0297

# Reference time sampled after a timed span, as a share of that span, so
# the speed is sampled in proportion to where the program spends its time.
SHARE = 0.15

_MAPS = [(lambda f: lambda x: f * x)(f) for f in (0.99, 0.98, 0.97, 0.96, 0.95)]
_BULK = np.linspace(-1.0, 1.0, 2 * 500).reshape(500, 2)
# The bulk part writes into buffers made once, so its speed does not
# depend on how the program left the allocator's heap.
_DIFF = np.empty((500, 500, 2))
_DIST = np.empty((500, 500))


def slice_s() -> float:
    """Wall time of one reference slice (about 30 ms at the nominal speed)."""
    t0 = time.perf_counter()
    # a small averaged iteration with a tent-like step size and records
    x = np.array([0.3, -0.7])
    records = []
    for n in range(1, 400):
        alpha = 0.25 * min(1.0, 100.0 / n)
        ys = [m(x) for m in _MAPS]
        nx = (1 - alpha) * x + alpha * (sum(ys) / len(ys))
        records.append({"n": n, "alpha": alpha, "x": [float(v) for v in nx],
                        "gap": float(np.linalg.norm(nx - x)),
                        "dists": [float(np.linalg.norm(y - nx)) for y in ys]})
        x = nx
    # CSV and JSON formatting of the records
    writer = csv.writer(io.StringIO())
    for r in records:
        writer.writerow([r["n"], repr(r["alpha"]), *map(repr, r["x"]),
                         repr(r["gap"])])
    json.dumps({"name": "reference", "records": records[::10]}, indent=2)
    # pure Python arithmetic
    s = 0.0
    for k in range(1, 15000):
        s += (k * 7 % 13) / k
    # bulk array work
    np.subtract(_BULK[:, None, :], _BULK[None, :, :], out=_DIFF)
    np.multiply(_DIFF, _DIFF, out=_DIFF)
    np.sum(_DIFF, axis=-1, out=_DIST)
    float(np.sqrt(_DIST, out=_DIST).max())
    return time.perf_counter() - t0


class SpeedMeter:
    """Accumulates reference slices over a run's timed window."""

    def __init__(self) -> None:
        self.slices: list[float] = []

    def sample(self, span_s: float) -> None:
        """Run slices after a timed span until they add up to SHARE of it."""
        spent = 0.0
        while True:
            t = slice_s()
            self.slices.append(t)
            spent += t
            if spent >= SHARE * span_s:
                return

    def slowdown(self) -> float:
        """Mean slice time over NOMINAL_S: 1.0 at the nominal speed, 1.5
        when the host ran half as slow again."""
        return sum(self.slices) / len(self.slices) / NOMINAL_S
