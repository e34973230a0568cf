"""Host-speed calibration: a fixed reference timed around each measurement.

The speed of a small shared host drifts by up to 1.7x, in phases that last
from a fraction of a second to minutes, and a whole run can fall in a slow
phase.  A calibration kernel is timed between blocks of about 20 ms of
queries.  A query's calibrated latency is its raw latency times
``nominal / k``, where k is the mean kernel time just before and just after
its block: the latency the query would have at the kernel's nominal speed.
Processes (set-up probes, ``homcone`` runs) are calibrated the same way by
``PROCESS``, a fresh interpreter that imports numpy, timed before and after
each.

The kernels are the benchmark's own code and never change with the program,
so a faster program still reads faster.  Each is a bisection on a clipped
vector, the shape of a query's root find, at the vector length of the
workload it calibrates: ``small`` is Python arithmetic and small numpy calls
(scalar queries on small sets), ``large`` is numpy passes over 20,000
elements (the projector kernels of large sets).  A kernel tracks the drift of
code like it, so each workload names the kernel that matches its queries.
"""

import subprocess
import sys
import time

import numpy as np

#: Seconds of queries between two kernel readings.
BLOCK_S = 0.02

_rng = np.random.default_rng(20220606)


class Kernel:
    """Bisection for the scale t at which a / t leaves the box [-b, b] by 0.3.

    ``nominal`` is, in seconds, about the kernel's median time on the
    reference host (Xeon at 2.1 GHz) in a quiet phase; calibrated latencies
    are scaled to it.
    """

    def __init__(self, size, steps, nominal):
        self.a = _rng.normal(size=size)
        self.b = _rng.uniform(0.5, 2.0, size=size)
        self.steps = steps
        self.nominal = nominal

    def run(self):
        a, b = self.a, self.b
        lo, hi = 0.0, 10.0
        for _ in range(self.steps):
            mid = 0.5 * (lo + hi)
            x = a / mid
            if float(np.linalg.norm(x - np.clip(x, -b, b))) > 0.3:
                lo = mid
            else:
                hi = mid
        return mid

    def seconds(self, clock=time.perf_counter):
        t0 = clock()
        self.run()
        return clock() - t0


KERNELS = {
    "small": Kernel(size=10, steps=40, nominal=400e-6),
    "large": Kernel(size=20000, steps=4, nominal=600e-6),
}


class Process:
    """A fresh interpreter that imports numpy and exits.

    It tracks the drift of process start-up and imports, which the in-process
    kernels do not: over 15 s windows in which raw ``homcone`` process times
    spread 25 %, their ratio to it spread 4 %.  It imports nothing of the
    program.  ``nominal`` is its median time on the reference host.
    """

    nominal = 0.13

    def seconds(self, clock=time.perf_counter):
        t0 = clock()
        subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                       timeout=60)
        return clock() - t0


PROCESS = Process()
