"""Fixed reference loop that measures how fast the host runs right now.

On a shared host the speed of the same single-threaded code drifts by tens of
percent over seconds to minutes, and a run-length median cannot average that
out. The benchmark times a few runs of this loop between every two timed calls
into the program, so the loop sees the same drift as the program next to it,
and scales the wall time of each call by

    REFERENCE_S / mean(loop times just before and just after the call)

so the reported times are in seconds at the reference speed. The loop
mixes what a slabtrt step does: staggered differences on a 501x100 grid, thin
matrix products and a thin QR, a dense matrix product, sweeps over an array
the size of a 2001x400 grid and many calls on 3x3 arrays, whose cost is the
interpreter's. It never changes, so a change to the program moves the scaled
times and a change of host speed does not.
"""

from __future__ import annotations

import time

import numpy as np

# Median loop time on the reference machine (Intel Xeon, 2 vCPUs at 2.1 GHz,
# numpy 2.4 with OpenBLAS pinned to one thread). Only the scale of the reported
# times depends on it.
REFERENCE_S = 0.025
ROUNDS = 25


class Calibration:
    """The reference loop and the times it took in one benchmark run."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self._grid0 = rng.standard_normal((501, 100))
        self._big0 = rng.standard_normal((2001, 400))
        self._mix = rng.standard_normal((100, 12)) / 10
        # Every array the loop writes is allocated here, once: arrays above the
        # allocator's mmap threshold would otherwise be page-faulted afresh on
        # each use, at a cost that depends on what the program allocated before.
        self._grid = np.empty_like(self._grid0)
        self._diff = np.empty_like(self._grid0)
        self._big = np.empty_like(self._big0)
        self._basis = np.empty((501, 24))
        self._basis[:, 12:] = rng.standard_normal((501, 12))
        self._coef = np.empty((24, 100))
        self._dense = rng.standard_normal((160, 160)) / 160
        self._prod = np.empty((160, 160))
        self._tiny = rng.standard_normal((3, 3))
        self.blocks: list[list[float]] = []
        self.checksum = None

    def _loop(self) -> float:
        a, d, big = self._grid, self._diff, self._big
        np.copyto(a, self._grid0)
        np.copyto(big, self._big0)
        acc = 0.0
        for i in range(ROUNDS):
            np.subtract(a[1:], a[:-1], out=d[1:])
            d[0] = a[0]
            d *= 1e-3
            a -= d
            np.matmul(a, self._mix, out=self._basis[:, :12])
            q, _ = np.linalg.qr(self._basis)
            np.matmul(q.T, a, out=self._coef)
            acc += float(np.vdot(self._coef, self._coef)) * 1e-9
            np.matmul(self._dense, self._dense, out=self._prod)
            acc += float(self._prod[i, i])
            half = big[:1000] if i % 2 else big[1000:]
            half *= 0.999
            acc += float(big[i, i])
            t = self._tiny
            for j in range(50):
                t = np.tanh(t @ self._tiny + (j % 7))
            acc += float(t[0, 0])
        return acc

    def measure(self, repeats: int):
        """Time a block of `repeats` loops; the result must never change."""
        block = []
        for _ in range(repeats):
            began = time.perf_counter()
            value = self._loop()
            block.append(time.perf_counter() - began)
            if self.checksum is None:
                self.checksum = value
            elif value != self.checksum:
                raise RuntimeError("calibration loop gave a different result")
        self.blocks.append(block)

    def scale(self) -> float:
        """Factor to reference speed for the call between the last two blocks."""
        if len(self.blocks) < 2:
            raise RuntimeError("a timed call needs a block of reference loops on each side")
        return REFERENCE_S / float(np.mean(self.blocks[-2] + self.blocks[-1]))

    @property
    def times(self) -> list[float]:
        return [t for block in self.blocks for t in block]
