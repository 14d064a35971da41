"""Pipeline scaling: the process pool must buy wall-clock on real cores.

The fault-isolated pipeline exists for robustness, but the pool must
not *cost* scaling: on a multi-core box the process executor at
``jobs = min(4, cpu_count)`` should beat the serial executor (one
interpreter verifying region after region).  Byte-identity between the
two is asserted unconditionally; the speedup gate only arms when the
machine actually has >= 4 CPUs — single-core CI boxes record the numbers
without judging them.  ``BENCH_pipeline_scale.json`` carries the
measured wall-clocks.
"""

import os
import time

import pytest

from benchmarks.helpers import SCALE, emit_bench, print_table
from repro.core.pipeline import rewrite_and_verify
from repro.isa.extensions import RV64GC
from repro.telemetry import MetricsRegistry
from repro.workloads.spec_profiles import PROFILES
from repro.workloads.synthetic import SyntheticBinary


def _gcc():
    return SyntheticBinary(PROFILES["gcc_r"], scale=SCALE).build()


def _section_bytes(result):
    return {s.name: bytes(s.data) for s in result.binary.sections}


def test_pipeline_scale(benchmark, monkeypatch):
    monkeypatch.setenv("REPRO_FUZZ_SEED", "20260806")
    jobs = min(4, os.cpu_count() or 1)

    def run():
        timings = {}
        outputs = {}
        for executor in ("serial", "process"):
            t0 = time.perf_counter()
            out = rewrite_and_verify(_gcc(), RV64GC, oracle_trials=2,
                                     jobs=jobs, executor=executor)
            timings[executor] = time.perf_counter() - t0
            outputs[executor] = out
        return timings, outputs

    timings, outputs = benchmark.pedantic(run, rounds=1, iterations=1)

    assert (_section_bytes(outputs["serial"].result)
            == _section_bytes(outputs["process"].result))
    assert (outputs["serial"].report.as_dict()
            == outputs["process"].report.as_dict())

    speedup = timings["serial"] / timings["process"]
    rows = [[executor, jobs, f"{timings[executor]:.2f}s",
             f"{speedup:.2f}x" if executor == "process" else "1.00x"]
            for executor in ("serial", "process")]
    print_table("Pipeline wall-clock: serial vs process pool",
                ["executor", "jobs", "wall", "vs serial"], rows)

    registry = MetricsRegistry()
    for executor, wall in timings.items():
        registry.gauge("bench.pipeline_wall_seconds", round(wall, 3),
                       executor=executor, jobs=str(jobs))
    registry.gauge("bench.pipeline_process_speedup", round(speedup, 3),
                   jobs=str(jobs))
    registry.gauge("bench.cpu_count", os.cpu_count() or 1)
    emit_bench("pipeline_scale", registry)

    if (os.cpu_count() or 1) >= 4:
        # With 4 real cores the pool must beat one interpreter; the bar
        # is deliberately modest so machine noise cannot flake it.
        assert speedup > 1.1, (
            f"process pool slower than serial on {os.cpu_count()} CPUs: "
            f"{timings['process']:.2f}s vs {timings['serial']:.2f}s")
