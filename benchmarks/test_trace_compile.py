"""What the trace tier compiles over the Fig. 13 runs, and what it costs.

Every Fig. 13 SPEC profile (scale 128) runs to completion natively on
rv64gcv and CHBP empty-patched with the Chimera runtime installed, as
perfbench's ``fig13-run`` does, :data:`REPEATS` times each.  Each run
starts from an empty ``_TRACE_CODE_MEMO``, as a fresh ``repro run``
process does.  Recorded per (profile, system):

* traces compiled, ops compiled (the length of every compiled trace,
  summed) and distinct traced pcs;
* compile seconds: the time inside ``_compile_trace`` (``trace_source``,
  ``compile``, ``exec`` and binding the pass to its ops), with the
  median, min and max over the repeats as spread.

It also times ``Kernel.run`` of cactuBSSN_s, the slowest fig13-run
operation, natively on the block tier and on the trace tier, best of
:data:`REPEATS` each, with the memo cleared before every round.

Gates, both of which arm on any CPU count:

* over all the runs, ops compiled are at most :data:`MAX_OPS_PER_PC`
  times the distinct traced pcs.  It is a count, so it is
  deterministic.  A recording that ran on through the entry of an
  existing trace compiled each traced pc ~2.5 times;
* the trace tier runs cactuBSSN_s at least :data:`MIN_TRACE_SPEEDUP`
  times faster than the block tier on the same host, paying for its
  compiles.

``BENCH_trace_compile.json`` records every number and the host's CPU
count.
"""

from __future__ import annotations

import os
import statistics
import time

import pytest

import repro.sim.cpu as cpu_module
from benchmarks.helpers import SCALE, emit_bench, print_table, scaled_arch
from repro.core.rewriter import ChimeraRewriter
from repro.core.runtime import ChimeraRuntime
from repro.elf.loader import make_process
from repro.isa.extensions import RV64GC, RV64GCV
from repro.sim.machine import Core, Kernel
from repro.telemetry import MetricsRegistry
from repro.workloads.spec_profiles import PROFILES
from repro.workloads.synthetic import SyntheticBinary
from tests.integration.test_rewrite_golden import FIG13

SYSTEMS = ("native", "chbp")
SPEEDUP_PROFILE = "cactuBSSN_s"
MAX_INSTRUCTIONS = 80_000_000
REPEATS = 3
MAX_OPS_PER_PC = 1.25
MIN_TRACE_SPEEDUP = 1.6


class _CompileCounter:
    """Counts and times every ``_compile_trace`` call of one run."""

    def __init__(self, monkeypatch):
        self.reset()
        compile_trace = cpu_module._compile_trace

        def counting_compile(ops):
            t0 = time.perf_counter()
            compiled = compile_trace(ops)
            self.seconds += time.perf_counter() - t0
            self.traces += 1
            self.ops += len(ops)
            self.pcs.update(op[0] for op in ops)
            return compiled

        monkeypatch.setattr(cpu_module, "_compile_trace", counting_compile)

    def reset(self) -> None:
        self.traces = 0
        self.ops = 0
        self.pcs: set[int] = set()
        self.seconds = 0.0


def _run(case, system: str, **kernel_kwargs):
    """One run to completion from an empty trace-code memo; returns the
    result and the seconds inside ``Kernel.run``."""
    binary, rewriter, rewritten = case
    arch = scaled_arch()
    cpu_module._TRACE_CODE_MEMO.clear()
    kernel = Kernel(arch, **kernel_kwargs)
    core = Core(0, RV64GCV, arch)
    if system == "chbp":
        ChimeraRuntime(rewritten, rewriter=rewriter,
                       original=binary).install(kernel)
        binary = rewritten
    process = make_process(binary)
    t0 = time.perf_counter()
    result = kernel.run(process, core, max_instructions=MAX_INSTRUCTIONS)
    seconds = time.perf_counter() - t0
    assert result.ok, f"{system} run died: {result.fault!r}"
    return result, seconds


def _case(name: str):
    binary = SyntheticBinary(PROFILES[name], scale=SCALE).build()
    rewriter = ChimeraRewriter(arch=scaled_arch(), mode="empty")
    return binary, rewriter, rewriter.rewrite(binary, RV64GC).binary


@pytest.fixture(scope="module")
def measurements():
    cases = {name: _case(name) for name in FIG13}
    runs = {}
    with pytest.MonkeyPatch.context() as mp:
        counter = _CompileCounter(mp)
        for name, case in cases.items():
            for system in SYSTEMS:
                shapes = set()
                seconds = []
                for _ in range(REPEATS):
                    counter.reset()
                    _run(case, system)
                    shapes.add((counter.traces, counter.ops, len(counter.pcs)))
                    seconds.append(counter.seconds)
                assert len(shapes) == 1, f"{name}/{system} compiled {shapes}"
                (shape,) = shapes
                runs[(name, system)] = (*shape, seconds)

    case = cases[SPEEDUP_PROFILE]
    timed = {"block": [], "trace": []}
    outcomes = {}
    for _ in range(REPEATS):
        for tier, kwargs in (("block", {"trace_cache": False}), ("trace", {})):
            result, seconds = _run(case, "native", **kwargs)
            timed[tier].append(seconds)
            outcomes[tier] = (result.exit_code, result.instret,
                              result.cycles, result.output)
    assert outcomes["trace"] == outcomes["block"], \
        f"{SPEEDUP_PROFILE}: trace tier diverged from the block tier"
    return {"runs": runs, "timed": timed}


def test_trace_compile(measurements):
    runs = measurements["runs"]
    timed = measurements["timed"]
    traces = sum(r[0] for r in runs.values())
    ops = sum(r[1] for r in runs.values())
    pcs = sum(r[2] for r in runs.values())
    per_run = [statistics.median(r[3]) for r in runs.values()]
    ops_per_pc = ops / pcs
    speedup = min(timed["block"]) / min(timed["trace"])

    registry = MetricsRegistry()
    for (name, system), (n, n_ops, n_pcs, seconds) in runs.items():
        labels = {"profile": name, "system": system}
        registry.gauge("bench.trace_compile_traces", n, **labels)
        registry.gauge("bench.trace_compile_ops", n_ops, **labels)
        registry.gauge("bench.trace_compile_pcs", n_pcs, **labels)
        for stat, fn in (("median", statistics.median), ("min", min), ("max", max)):
            registry.gauge("bench.trace_compile_seconds", round(fn(seconds), 6),
                           stat=stat, **labels)
    registry.gauge("bench.trace_compile_total_traces", traces)
    registry.gauge("bench.trace_compile_total_ops", ops)
    registry.gauge("bench.trace_compile_total_pcs", pcs)
    registry.gauge("bench.trace_compile_ops_per_pc", round(ops_per_pc, 4))
    registry.gauge("bench.trace_compile_total_seconds",
                   round(sum(per_run), 6), stat="sum_of_medians")
    for tier, seconds in timed.items():
        for stat, fn in (("median", statistics.median), ("min", min), ("max", max)):
            registry.gauge("bench.trace_compile_run_seconds", round(fn(seconds), 6),
                           profile=SPEEDUP_PROFILE, tier=tier, stat=stat)
    registry.gauge("bench.trace_compile_trace_speedup", round(speedup, 3),
                   profile=SPEEDUP_PROFILE)
    registry.gauge("bench.trace_compile_repeats", REPEATS)
    registry.gauge("bench.cpu_count", os.cpu_count() or 1)
    emit_bench("trace_compile", registry)

    print_table(f"Trace compiles over the Fig. 13 runs, scale {SCALE}, "
                f"fresh memo, {REPEATS} repeats",
                ["run", "traces", "ops", "pcs", "compile median"],
                [[f"{name}/{system}", n, n_ops, n_pcs,
                  f"{statistics.median(seconds) * 1e3:.1f}ms"]
                 for (name, system), (n, n_ops, n_pcs, seconds) in runs.items()])
    print(f"{traces} traces compile {ops} ops for {pcs} distinct traced pcs "
          f"({ops_per_pc:.2f} ops per pc) in {sum(per_run):.2f}s; "
          f"{SPEEDUP_PROFILE} trace tier {speedup:.2f}x over the block tier "
          f"(best of {REPEATS}: {min(timed['block']):.3f}s -> "
          f"{min(timed['trace']):.3f}s)")

    assert ops_per_pc <= MAX_OPS_PER_PC, (
        f"{ops} ops compiled for {pcs} traced pcs ({ops_per_pc:.2f} per pc)")
    assert speedup >= MIN_TRACE_SPEEDUP, (
        f"trace tier only {speedup:.2f}x over the block tier on "
        f"{SPEEDUP_PROFILE} with a fresh memo")
