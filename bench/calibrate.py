"""A fixed calibration kernel that measures how fast the machine runs right now.

The host is shared: other tenants' load slows every instruction by up to about
1.9x for minutes at a time, so a wall-clock rate measured at one moment and
another differs more than a code change would.  The benchmark times this
kernel between its jobs and scales each job's rate by how fast the kernel ran
next to it (see run.py).

The kernel never calls splatsynth, so no change to the library can change its
cost; its inputs are fixed, not seeded from --seed.  It mixes the kinds of work
the workloads do, so that contention slows it about as much as it slows them:
a dynamic-programming loop over a numpy array indexed one element at a time
(as DTW is), short numpy operations on 3-vectors (as a DMP step is), radius
queries on a k-d tree of 5e4 points (as the density lookups are), and binary
records unpacked one at a time into many Python floats, some then checked
with a 3x3 eigen-decomposition (as PLY loading is).
"""

from __future__ import annotations

import struct
from time import perf_counter

import numpy as np
from scipy.spatial import cKDTree


class Kernel:
    def __init__(self):
        rng = np.random.default_rng(20240601)
        self.grid = rng.random((48, 48))
        self.vectors = rng.normal(size=(120, 3))
        points = rng.uniform(-2.0, 2.0, size=(50_000, 3))
        self.tree = cKDTree(points)
        self.queries = rng.uniform(-2.0, 2.0, size=(60, 3))
        self.record = struct.Struct("<" + "f" * 62)
        self.records = rng.normal(size=(300, 62)).astype("<f4").tobytes()
        self.expected = None

    def work(self) -> float:
        grid = self.grid
        n, m = grid.shape
        acc = np.full((n + 1, m + 1), np.inf)
        acc[0, 0] = 0.0
        for i in range(1, n + 1):
            row = grid[i - 1]
            for j in range(1, m + 1):
                acc[i, j] = row[j - 1] + min(acc[i - 1, j], acc[i, j - 1], acc[i - 1, j - 1])
        y, v = np.zeros(3), np.zeros(3)
        for g in self.vectors:
            a = 25.0 * (6.25 * (g - y) - v)
            v = v + 0.01 * a
            y = y + 0.01 * v
            if np.linalg.norm(v) > 1e3:
                v = v / np.linalg.norm(v)
        found = sum(len(ix) for ix in self.tree.query_ball_point(self.queries, 0.15))
        rec = self.record
        rows = np.array([rec.unpack_from(self.records, i * rec.size)
                         for i in range(len(self.records) // rec.size)], dtype=float)
        positive = 0
        for row in rows[:60]:
            m3 = np.outer(row[:3], row[:3]) + np.diag(np.exp(row[3:6]))
            positive += bool(np.min(np.linalg.eigvalsh(0.5 * (m3 + m3.T))) > 0)
        return float(acc[n, m]) + float(y.sum()) + found + float(rows.sum()) + positive

    def time(self, reps: int = 1) -> float:
        """Seconds for reps passes of the kernel; checks that it computes the
        same answer every time."""
        start = perf_counter()
        for _ in range(reps):
            result = self.work()
            if self.expected is None:
                self.expected = result
            elif result != self.expected:
                raise RuntimeError("calibration kernel gave a different answer")
        return perf_counter() - start
