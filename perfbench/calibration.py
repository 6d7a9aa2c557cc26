"""A fixed numpy kernel that tracks the speed of the machine.

On the shared 2-core machine this benchmark was built on, the CPU speed
drifts between states about 1.6x apart that last from seconds to minutes:
a fixed loop of eigendecompositions and matrix products ran between 57 and
106 times per second within one minute, and whole runs of one workload
moved every call's time by the same factor.  So each timed pass (and
each set-up) is preceded or followed by this kernel, and its times are
scaled by ``NOMINAL_S / kernel seconds`` (a pass by the mean of the
factors measured before and after it): they read as on the machine at its
typical speed.  The kernel does not touch gnorm, so a change to gnorm
moves the scaled times as it moves the raw ones; the raw times are
reported next to them.
"""

import time

import numpy as np

NOMINAL_S = 0.0105  # median kernel time at this commit on the 2-core machine
REPEATS = 40
SAMPLES = 3  # the median of three timings shrugs off one interruption
# After large matrix products OpenBLAS worker threads spin for about 2**28
# cycles before they sleep; a thread spinning on the other core slowed the
# kernel by about a fifth, so the kernel waits that out first.
SETTLE_S = 0.15


class Kernel:
    """A PSD projection of a small hermitian matrix (eigendecomposition,
    rebuild, triangle packing) and a mid-size matrix-vector product: the
    operations, and the interpreter overhead around them, that dominate
    gnorm's solves."""

    def __init__(self):
        rng = np.random.default_rng(0)
        g = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        self.h = g + g.conj().T
        self.a = rng.normal(size=(512, 700))
        self.x = rng.normal(size=700)
        self.upper = np.triu_indices(16)
        self.seconds()  # first call allocates

    def seconds(self):
        t0 = time.perf_counter()
        for _ in range(REPEATS):
            w, u = np.linalg.eigh(self.h)
            p = (u * np.clip(w, 0.0, None)) @ u.conj().T
            np.concatenate([p.real[self.upper], p.imag[self.upper]])
            self.a @ self.x
        return time.perf_counter() - t0

    def factor(self):
        """Multiplier taking times measured now to the typical speed."""
        time.sleep(SETTLE_S)
        return NOMINAL_S / sorted(self.seconds() for _ in range(SAMPLES))[SAMPLES // 2]
