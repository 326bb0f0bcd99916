"""How fast the host runs right now, from fixed pieces of work the benchmark times.

On a shared host the same code runs up to 1.9 times slower for spells of
a second to minutes, and not every kind of work slows alike: at times pure
Python and small numpy calls slow the most and BLAS kernels hardly at all,
at other times work on a large working set slows the most (NOTES.md). The
probe is fixed work built only from numpy and Python, never from
``drlfolio``, in two parts:

- ``blas``: a batch GEMM like the training conv and dense layers, a
  matrix-vector product over 4 MiB like the batch-1 actor, and a sum over
  32 MiB, about the size of the networks and Adam state in training;
- ``python``: small numpy calls like an env step or a factor-book day, float
  parsing like CSV ingest, and a pure Python loop.

The benchmark runs the probe between operations and scales each time it
measures by ``reference / probe time`` of the probes nearest to it, so a
metric reads as it would on the reference host at its usual speed. Each
metric follows the part that does its kind of work on its workload
(``Workload.probe_part``), or ``whole``, both parts together. A change to
the program cannot change the probe.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

# Median times of the two parts on the reference host: the 2-vCPU Xeon VM of
# NOTES.md, numpy 2.4.6 on OpenBLAS with one thread. They only set the scale
# of the metrics; any fixed values would do, as long as they never change.
REFERENCE = {"blas": 0.0090, "python": 0.0053}
REFERENCE["whole"] = REFERENCE["blas"] + REFERENCE["python"]
NEAREST = 2  # probes on each side of a sample that scale it


class Probes:
    """The probe's fixed inputs, and its results over one run in time order."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.gemm = rng.random((64, 640)), rng.random((640, 128))
        self.matvec = rng.random((1024, 512)), rng.random(512)  # 4 MiB matrix, read whole each call
        self.stream = rng.random(4 * 1024 * 1024)  # 32 MiB
        self.small = rng.random(12)
        self.cells = [repr(float(x)) for x in rng.random(3000)]
        self.times: list[float] = []  # when each probe ended
        self.parts: list[dict[str, float]] = []

    @property
    def nbytes(self) -> int:
        """Memory the probe's arrays hold (the parsed strings are left out: ~0.2 MiB)."""
        return sum(a.nbytes for a in (*self.gemm, *self.matvec, self.stream, self.small))

    def measure(self) -> dict[str, float]:
        """Seconds each part of the fixed work takes now."""
        start = time.perf_counter()
        for _ in range(5):
            self.gemm[0] @ self.gemm[1]
        for _ in range(8):
            self.matvec[0] @ self.matvec[1]
        self.stream.sum()
        middle = time.perf_counter()
        for _ in range(500):
            np.maximum(self.small, 0.5).sum()
        for cell in self.cells:
            float(cell)
        acc = 0.0
        for i in range(16000):
            acc += i * 0.5
        end = time.perf_counter()
        return {"blas": middle - start, "python": end - middle, "whole": end - start}

    def take(self) -> None:
        parts = self.measure()
        self.times.append(time.perf_counter())
        self.parts.append(parts)

    def scale(self, at: float, part: str) -> float:
        """Factor that turns a time measured around ``at`` into reference-host time.

        It compares the given part of the NEAREST probes on either side of
        ``at`` with the reference.
        """
        i = bisect.bisect_left(self.times, at)
        near = [parts[part] for parts in self.parts[max(i - NEAREST, 0):i + NEAREST]]
        return REFERENCE[part] / (sum(near) / len(near))
