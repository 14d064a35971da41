"""SMILE target-block placement over the 25 SPEC profiles.

Each profile's synthetic binary (scale 128) is empty-mode rewritten once
for rv64gc with a recording allocator, which logs every ``place`` and
``place_unconstrained`` call the patcher makes.  The log is then replayed
into fresh allocators, so the timing covers the allocator alone:

* ``next_achievable`` calls per profile, counted by wrapping
  ``repro.core.smile.next_achievable`` during one replay;
* seconds inside ``place`` per profile, the median of 5 replays, with
  the min and max as spread;
* the same sweep through the linear-scan allocator the gap index
  replaced (``tests/property/test_smile_allocator.py``), for a same-host
  ratio.

Gates, both of which arm on any CPU count:

* wrf_s, the profile with the most placements, makes at most 20
  ``next_achievable`` calls per placement.  It is a count, so it is
  deterministic.  A scan of every free gap on every placement makes
  about 320 per placement there.
* the indexed allocator spends at least 5x less time in ``place`` than
  the linear scan over the whole sweep.

``BENCH_smile_alloc.json`` records every number and the host's CPU count.
"""

from __future__ import annotations

import os
import statistics
import time

import pytest

import repro.core.patcher as patcher_module
import repro.core.smile as smile
from benchmarks.helpers import SCALE, emit_bench, print_table, scaled_arch
from repro.core.rewriter import ChimeraRewriter
from repro.core.smile import SmileTextAllocator
from repro.isa.extensions import RV64GC
from repro.telemetry import MetricsRegistry
from repro.workloads.spec_profiles import PROFILES
from repro.workloads.synthetic import SyntheticBinary
from tests.property.test_smile_allocator import ReferenceAllocator

REPEATS = 5
REFERENCE_REPEATS = 3
GATE_PROFILE = "wrf_s"
MAX_CALLS_PER_PLACEMENT = 20
MIN_SPEEDUP = 5.0


class RecordingAllocator(SmileTextAllocator):
    """Logs the patcher's allocator calls for replay."""

    logs: list = []

    def __init__(self, base: int, *, compressed: bool):
        super().__init__(base, compressed=compressed)
        self.log = (base, compressed, [])
        RecordingAllocator.logs.append(self.log)

    def place(self, tramp_addr: int, size: int) -> int:
        self.log[2].append((tramp_addr, size))
        return super().place(tramp_addr, size)

    def place_unconstrained(self, size: int) -> int:
        self.log[2].append((None, size))
        return super().place_unconstrained(size)


def _record(name: str) -> list:
    """The allocator call logs of one empty-mode rewrite of *name*."""
    binary = SyntheticBinary(PROFILES[name], scale=SCALE).build()
    RecordingAllocator.logs = []
    original = patcher_module.SmileTextAllocator
    patcher_module.SmileTextAllocator = RecordingAllocator
    try:
        ChimeraRewriter(arch=scaled_arch(), mode="empty").rewrite(binary, RV64GC)
    finally:
        patcher_module.SmileTextAllocator = original
    return RecordingAllocator.logs


def _replay(logs: list, allocator=SmileTextAllocator) -> tuple[float, list[int]]:
    """Seconds inside ``place`` and every returned address."""
    spent = 0.0
    addrs = []
    for base, compressed, calls in logs:
        alloc = allocator(base, compressed=compressed)
        for tramp, size in calls:
            if tramp is None:
                addrs.append(alloc.place_unconstrained(size))
                continue
            t0 = time.perf_counter()
            addrs.append(alloc.place(tramp, size))
            spent += time.perf_counter() - t0
    return spent, addrs


def _count_calls(logs: list) -> int:
    calls = 0
    original = smile.next_achievable

    def counting(tramp_addr: int, cursor: int) -> int:
        nonlocal calls
        calls += 1
        return original(tramp_addr, cursor)

    smile.next_achievable = counting
    try:
        _replay(logs)
    finally:
        smile.next_achievable = original
    return calls


@pytest.fixture(scope="module")
def measurements():
    rows = {}
    for name in PROFILES:
        logs = _record(name)
        placements = sum(tramp is not None for _, _, calls in logs for tramp, _ in calls)
        samples = []
        for _ in range(REPEATS):
            spent, addrs = _replay(logs)
            samples.append(spent)
        reference = []
        for _ in range(REFERENCE_REPEATS):
            spent, ref_addrs = _replay(logs, ReferenceAllocator)
            reference.append(spent)
        assert ref_addrs == addrs, f"{name}: placements differ from the linear scan"
        rows[name] = {
            "placements": placements,
            "calls": _count_calls(logs),
            "place_s": samples,
            "reference_s": reference,
        }
    return rows


def test_smile_alloc(measurements):
    registry = MetricsRegistry()
    table = []
    for name, row in measurements.items():
        median = statistics.median(row["place_s"])
        registry.gauge("bench.smile_placements", row["placements"], profile=name)
        registry.gauge("bench.smile_next_achievable_calls", row["calls"], profile=name)
        for stat, value in (("median", median), ("min", min(row["place_s"])),
                            ("max", max(row["place_s"]))):
            registry.gauge("bench.smile_place_s", round(value, 6),
                           profile=name, stat=stat)
        table.append([name, row["placements"], row["calls"], f"{median * 1e3:.2f}ms",
                      f"{statistics.median(row['reference_s']) * 1e3:.2f}ms"])
    print_table(f"SMILE placement, empty mode, scale {SCALE}, median of {REPEATS}",
                ["profile", "placements", "next_achievable", "place", "linear scan"],
                table)

    # Sweep totals per repeat, so the spread is that of the whole sweep.
    totals = [sum(row["place_s"][k] for row in measurements.values())
              for k in range(REPEATS)]
    ref_totals = [sum(row["reference_s"][k] for row in measurements.values())
                  for k in range(REFERENCE_REPEATS)]
    speedup = statistics.median(ref_totals) / statistics.median(totals)
    for stat, fn in (("median", statistics.median), ("min", min), ("max", max)):
        registry.gauge("bench.smile_place_total_s", round(fn(totals), 6), stat=stat)
        registry.gauge("bench.smile_reference_place_total_s", round(fn(ref_totals), 6),
                       stat=stat)
    registry.gauge("bench.smile_place_speedup", round(speedup, 3))
    registry.gauge("bench.cpu_count", os.cpu_count() or 1)
    emit_bench("smile_alloc", registry)
    print(f"place over the sweep: {statistics.median(totals):.3f}s "
          f"(min {min(totals):.3f}, max {max(totals):.3f}); linear scan "
          f"{statistics.median(ref_totals):.3f}s; {speedup:.1f}x")

    gate = measurements[GATE_PROFILE]
    assert gate["calls"] <= MAX_CALLS_PER_PLACEMENT * gate["placements"], (
        f"{GATE_PROFILE}: {gate['calls']} next_achievable calls for "
        f"{gate['placements']} placements")
    assert speedup >= MIN_SPEEDUP, f"place only {speedup:.1f}x faster than the linear scan"
