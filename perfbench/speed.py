"""A probe of how fast the machine runs at the moment, to put timings on one scale.

On a shared host the same work can take 30% more or less time from one
minute to the next, with no change in the program, and for minutes at a
time a second thread may gain nothing. Runs of a benchmark made minutes
apart then differ by more than any useful bound. So every run times a
fixed piece of work that does not touch `disents` between the workload's
operations: on one thread a small matmul, an elementwise pass, small NumPy
calls and a Python loop (about 9 ms, in cache). `evaluate`, which runs
its batches on a pool of DISENTS_THREADS threads, is instead scaled by the
same work cut into as many pieces as it has batches and run on such a
pool, so that a second thread the host withholds slows both alike. Each
timed operation is reported as

    wall time * reference / median(times of the probes made near it)

that is, in seconds of a machine on which the probe takes the reference
time. "Near" is within NEAR_S before its start or after its end, or else
the two closest probes. The probes run between timed operations, never
inside one.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from concurrent.futures import ThreadPoolExecutor
from statistics import median
from time import perf_counter

import numpy as np

# Median probe times on the reference machine (2 vCPUs, OpenBLAS on 1 thread).
REFERENCE_S = 0.009
NEAR_S = 0.6
INTERVAL_S = 0.3  # least time between two probes made by `maybe`
ROUNDS = 30
SHARD_ROUNDS = 60  # a piece of the sharded probe: twice the one-thread probe


class _Series:
    """Probe times in the order they were taken."""

    def __init__(self, reference_s: float):
        self.reference_s = reference_s
        self.times: list[float] = []  # midpoints, ascending
        self.durations: list[float] = []

    def add(self, start: float, end: float) -> None:
        self.times.append((start + end) / 2)
        self.durations.append(end - start)

    def scaled(self, start: float, end: float) -> float:
        lo = bisect_left(self.times, start - NEAR_S)
        hi = bisect_right(self.times, end + NEAR_S)
        if hi - lo < 2:
            mid = bisect_left(self.times, (start + end) / 2)
            lo, hi = max(0, mid - 1), min(len(self.times), mid + 1)
        return (end - start) * self.reference_s / median(self.durations[lo:hi])


class SpeedProbe:
    def __init__(self):
        self.single = _Series(REFERENCE_S)
        self.sharded: _Series | None = None
        self.samples: dict[str, list[float]] = {}
        self.spent: dict[str, float] = {}
        self._last = float("-inf")
        rng = np.random.default_rng(0)
        self._matrix = rng.random((128, 128))
        self._vector = rng.random(1 << 15)
        self._small = rng.random(64)
        self._buffers = threading.local()  # outputs per thread: no false sharing
        self._pool: ThreadPoolExecutor | None = None
        self._patched: list[tuple[object, str, object]] = []

    def _work(self, rounds: int) -> None:
        # BLAS, a vectorised pass, NumPy call overhead and bare Python: the
        # kinds of work a train step or a forecast of `disents` is made of
        out = getattr(self._buffers, "out", None)
        if out is None:
            out = self._buffers.out = (np.empty_like(self._matrix), np.empty_like(self._vector))
        for _ in range(rounds):
            np.matmul(self._matrix, self._matrix, out=out[0])
            np.tanh(self._vector, out=out[1])
            small = self._small
            for _ in range(30):
                small = small * 0.5 + 0.25
            sum(i * i for i in range(300))

    def _file(self, phase: str, start: float, end: float) -> None:
        self.spent[phase] = self.spent.get(phase, 0.0) + (end - start)
        self._last = end

    def probe(self, phase: str) -> None:
        """Time the fixed work once on this thread and file it under `phase`.

        One untimed round first brings the probe's 400 KB back into cache,
        so the time does not depend on what the workload left there."""
        start = perf_counter()
        self._work(1)
        t0 = perf_counter()
        self._work(ROUNDS)
        t1 = perf_counter()
        self.single.add(t0, t1)
        self.samples.setdefault(phase, []).append(t1 - t0)
        self._file(phase, start, t1)

    def probe_sharded(self, phase: str, shards: int, threads: int) -> None:
        """Time `shards` pieces of the fixed work on a pool of `threads`.

        On the reference machine, with every thread free, it takes twice
        REFERENCE_S per wave of `threads` pieces."""
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=threads)
            waves = -(-shards // threads)
            self.sharded = _Series(REFERENCE_S * SHARD_ROUNDS / ROUNDS * waves)
        start = perf_counter()
        list(self._pool.map(self._work, [1] * threads))
        t0 = perf_counter()
        list(self._pool.map(self._work, [SHARD_ROUNDS] * shards))
        t1 = perf_counter()
        self.sharded.add(t0, t1)
        self._file(phase, start, t1)

    def maybe(self, phase: str) -> None:
        """Probe if INTERVAL_S has passed since the last probe."""
        if perf_counter() - self._last >= INTERVAL_S:
            self.probe(phase)

    def before_each_call(self, owner, attr: str, phase: str) -> None:
        """Probe, when due, before every call of `owner.attr` (outside its timing)."""
        original = getattr(owner, attr)

        def probed(*args, **kwargs):
            self.maybe(phase)
            return original(*args, **kwargs)

        setattr(owner, attr, probed)
        self._patched.append((owner, attr, original))

    def close(self) -> None:
        """Put patched attributes back and stop the pool's threads."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def scaled(self, start: float, end: float) -> float:
        """One-thread work timed from `start` to `end`, in reference seconds."""
        return self.single.scaled(start, end)

    def scaled_sharded(self, start: float, end: float) -> float:
        """Work sharded like the last `probe_sharded`, in reference seconds."""
        return self.sharded.scaled(start, end)

    def factor(self, phase: str) -> float:
        """How much slower than the reference machine a phase ran (1.0: as fast)."""
        samples = self.samples.get(phase) or self.single.durations
        return median(samples) / REFERENCE_S

    def factors(self) -> dict[str, float]:
        return {phase: self.factor(phase) for phase in self.samples}
