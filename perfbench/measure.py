"""Shared measurement helpers: operation records, order statistics,
memory, and the host fingerprint every record carries."""

from __future__ import annotations

import os
import platform
import random
import resource
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Optional


@dataclass
class Op:
    """One attempted operation of a workload.

    ``failure`` says why the operation did not succeed (None when it
    did).  ``wrong`` marks a failure that is a wrong output, as opposed
    to a verdict the program reports on purpose.  ``seconds`` is None
    for checks that have no latency of their own.
    """

    name: str
    seconds: Optional[float]
    failure: Optional[str] = None
    wrong: bool = False


def percentile(values, q: float) -> float:
    """Linearly interpolated percentile, *q* in [0, 1]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def latency_metrics(ops: list[Op]) -> dict[str, float]:
    """``op_p50_ms`` / ``op_p95_ms``: percentiles over operation kinds
    (``Op.name``) of each kind's median latency.

    Each kind counts once, however often it ran, so the figures do not
    jump when a run's mix of kinds shifts by a job or a pass.
    """
    typical = list(kind_medians(ops).values())
    return {"op_p50_ms": 1000.0 * percentile(typical, 0.50),
            "op_p95_ms": 1000.0 * percentile(typical, 0.95)}


def kind_medians(ops: list[Op]) -> dict[str, float]:
    """Operation kind -> median latency (seconds) across the run."""
    by_name = defaultdict(list)
    for op in ops:
        if op.seconds is not None:
            by_name[op.name].append(op.seconds)
    return {name: median(v) for name, v in by_name.items()}


def sequential_pass_seconds(ops: list[Op]) -> float:
    """Seconds for one pass of a workload that runs its operations one
    after another: the sum of each operation's median latency."""
    return sum(kind_medians(ops).values())


def pass_order(names, seed: int, index: int) -> list[str]:
    """The seeded order of one pass over *names*."""
    order = list(names)
    random.Random(f"{seed}/{index}").shuffle(order)
    return order


#: Host speed probe.  Shared hosts drift in speed by tens of percent
#: within a minute, for CPU time as much as wall time.  Workloads that
#: run in this process report *reference seconds*: host seconds scaled
#: by REFERENCE_CHUNK_S / (mean duration of a fixed chunk of interpreter
#: work, timed right before and right after the interval).
REFERENCE_CHUNK_S = 0.001
PROBE_CHUNKS = 16


def _reference_chunk() -> int:
    """Fixed interpreter work, independent of the program under test:
    dict and list traffic, small-integer arithmetic, calls, slicing."""
    table: dict = {}
    items: list = []
    acc = 0
    blob = bytes(range(64))
    for i in range(1800):
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0) + i
        acc = (acc * 31 + int.from_bytes(blob[i & 31:(i & 31) + 4], "little")
               ) & 0xFFFFFFFF
        items.append((key, acc & 7))
        if len(items) > 64:
            items.pop(0)
    return acc + len(table) + len(items)


class SpeedProbe:
    """Times the reference chunk around measured intervals.

    Consecutive intervals share the burst between them, so a pass of
    back-to-back operations costs one burst per operation.  A disabled
    probe reports host seconds: for work that runs in other processes,
    which a burst in this one would contend with rather than track.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.samples: list[float] = []
        self._last: list[float] = []

    def burst(self) -> list[float]:
        times = []
        for _ in range(PROBE_CHUNKS):
            start = time.perf_counter()
            _reference_chunk()
            times.append(time.perf_counter() - start)
        self.samples.extend(times)
        self._last = times
        return times

    def measure(self, fn):
        """Run *fn* between two bursts; returns (result, host seconds,
        reference seconds)."""
        before = (self._last or self.burst()) if self.enabled else []
        start = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - start
        if not self.enabled:
            return result, seconds, seconds
        return result, seconds, seconds * self.factor(before + self.burst())

    @staticmethod
    def factor(chunks: list[float]) -> float:
        # The mean, not the median: the host flips between a fast and a
        # slow state, and an interval's slowdown is the time-weighted
        # mix of the two, which the mean of the chunks around it tracks.
        return REFERENCE_CHUNK_S / statistics.fmean(chunks)


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set of another live process, from /proc."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def host_fingerprint() -> dict:
    return {"cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine()}
