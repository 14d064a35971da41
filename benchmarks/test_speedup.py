"""Execution-tier + verified-rewrite pipeline speedups.

Three headline measurements, all against this repo's own baselines:

* **superblock** — wall-clock of simulating a Fig. 13 SPEC profile with
  the block cache on (trace tier pinned off) vs the plain interpreter
  loop (hooks disabled, the fast path's home turf).  Results must be
  bit-identical; the engine must never be slower than the interpreter
  (the CI ``bench-smoke`` gate).
* **trace tier** — the same profile with hot-trace linking + compiled
  traces on top of the block cache, vs the block-cache-only engine.
  Each round starts from an empty ``_TRACE_CODE_MEMO``, so the trace
  tier pays for its compiles as a fresh ``repro run`` does.
  Bit-identical again; the ≥2x gate is armed on ≥4-CPU boxes like the
  pipeline-scale gates.
* **pipeline** — end-to-end rewrite+verify of gcc_r through
  ``rewrite_and_verify`` vs the legacy path (rewrite, then a gate that
  recomputes liveness from scratch), plus the warm rewrite-cache hit.
  Rewritten bytes and verification ledgers must be identical across
  legacy / serial / ``--jobs 4`` / cached.

Wall-clock notes: thread fan-out (``--jobs``) helps only where trials
release the GIL; on a single-core CI box its value is determinism under
parallelism, not speed, and the assertions below only encode floors
that hold there.  ``BENCH_speedup.json`` carries the measured values.
"""

import os
import time

import pytest

import repro.sim.cpu as cpu_module
from benchmarks.helpers import SCALE, emit_bench, print_table
from repro.core.pipeline import rewrite_and_verify
from repro.core.rewriter import ChimeraRewriter
from repro.elf.loader import make_process
from repro.isa.extensions import RV64GC, RV64GCV
from repro.sim.machine import Core, Kernel
from repro.telemetry import MetricsRegistry
from repro.verify.admission import AdmissionGate
from repro.workloads.spec_profiles import PROFILES
from repro.workloads.synthetic import SyntheticBinary

#: Fig. 13 profile both measurements run on.
PROFILE = "gcc_r"
SEED = 20260806


def _binary():
    return SyntheticBinary(PROFILES[PROFILE], scale=SCALE).build()


def _best_of(fn, rounds=3, setup=None):
    """Best wall-clock of *rounds* calls; ``setup`` (untimed) builds the
    per-round arguments so construction cost stays out of the window."""
    best = None
    value = None
    for _ in range(rounds):
        args = setup() if setup is not None else ()
        t0 = time.perf_counter()
        value = fn(*args)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, value


def _simulate(process, *, block_cache=True, trace_cache=False):
    kernel = Kernel(block_cache=block_cache, trace_cache=trace_cache)
    result = kernel.run(process, Core(0, RV64GCV))
    assert result.ok, f"{PROFILE} died: {result.fault!r}"
    return result


@pytest.fixture(scope="module")
def measurements(tmp_path_factory):
    cache = tmp_path_factory.mktemp("rewrite-cache")
    # Built once: the rewriter clones before patching and the simulator
    # copies sections into fresh segments, so nothing mutates this image.
    original = _binary()

    # -- superblock vs interpreter, trace tier vs superblock -------------
    def fresh():
        # Every round starts from an empty trace-code memo, as a fresh
        # ``repro run`` process does; otherwise rounds 2 and 3 of the
        # trace tier would compile nothing.
        cpu_module._TRACE_CODE_MEMO.clear()
        return (make_process(original),)

    interp_s, interp = _best_of(
        lambda p: _simulate(p, block_cache=False), setup=fresh)
    super_s, fast = _best_of(
        lambda p: _simulate(p, block_cache=True), setup=fresh)
    trace_s, traced = _best_of(
        lambda p: _simulate(p, block_cache=True, trace_cache=True),
        setup=fresh)
    baseline = (interp.exit_code, interp.instret, interp.cycles,
                interp.output)
    assert (fast.exit_code, fast.instret, fast.cycles, fast.output) == \
        baseline, "superblock run diverged from the interpreter"
    assert (traced.exit_code, traced.instret, traced.cycles,
            traced.output) == baseline, \
        "trace-tier run diverged from the interpreter"
    assert fast.counters.get("block_cache_hits", 0) > 0
    assert traced.counters.get("trace_cache_hits", 0) > 0
    assert traced.counters.get("traces_compiled", 0) > 0

    # -- pipeline vs legacy rewrite+verify -------------------------------
    def legacy():
        result = ChimeraRewriter().rewrite(original, RV64GC)
        report = AdmissionGate(original, result.binary,
                               seed=SEED, oracle_trials=1).verify()
        return result, report

    legacy_s, (legacy_result, legacy_report) = _best_of(legacy)
    serial_s, serial = _best_of(lambda: rewrite_and_verify(
        original, RV64GC, seed=SEED, oracle_trials=1, jobs=1))
    jobs4_s, jobs4 = _best_of(lambda: rewrite_and_verify(
        original, RV64GC, seed=SEED, oracle_trials=1, jobs=4))

    rewrite_and_verify(original, RV64GC, seed=SEED, oracle_trials=1,
                       cache_dir=cache)  # populate
    warm_s, warm = _best_of(lambda: rewrite_and_verify(
        original, RV64GC, seed=SEED, oracle_trials=1, cache_dir=cache))
    assert warm.cache_hit

    def sections(result):
        return {s.name: bytes(s.data) for s in result.binary.sections}

    for other in (serial.result, jobs4.result, warm.result):
        assert sections(other) == sections(legacy_result), \
            "rewritten bytes diverged between pipeline variants"
    for other in (serial.report, jobs4.report, warm.report):
        assert other.as_dict() == legacy_report.as_dict(), \
            "verification ledger diverged between pipeline variants"

    return {
        "interpreter_s": interp_s,
        "superblock_s": super_s,
        "trace_s": trace_s,
        "legacy_s": legacy_s,
        "pipeline_serial_s": serial_s,
        "pipeline_jobs4_s": jobs4_s,
        "warm_cache_s": warm_s,
    }


def test_speedup_regenerate(measurements):
    m = measurements
    superblock = m["interpreter_s"] / m["superblock_s"]
    trace = m["superblock_s"] / m["trace_s"]
    pipeline = m["legacy_s"] / min(m["pipeline_serial_s"],
                                   m["pipeline_jobs4_s"])
    warm = m["legacy_s"] / m["warm_cache_s"]
    print_table(
        f"Speedups on {PROFILE} (scale {SCALE}, best of 3)",
        ["measurement", "baseline", "new", "speedup"],
        [
            ["superblock engine", f"{m['interpreter_s']:.3f}s",
             f"{m['superblock_s']:.3f}s", f"{superblock:.2f}x"],
            ["trace tier (vs superblock)", f"{m['superblock_s']:.3f}s",
             f"{m['trace_s']:.3f}s", f"{trace:.2f}x"],
            ["rewrite+verify (serial)", f"{m['legacy_s']:.3f}s",
             f"{m['pipeline_serial_s']:.3f}s",
             f"{m['legacy_s'] / m['pipeline_serial_s']:.2f}x"],
            ["rewrite+verify (--jobs 4)", f"{m['legacy_s']:.3f}s",
             f"{m['pipeline_jobs4_s']:.3f}s",
             f"{m['legacy_s'] / m['pipeline_jobs4_s']:.2f}x"],
            ["rewrite+verify (warm cache)", f"{m['legacy_s']:.3f}s",
             f"{m['warm_cache_s']:.3f}s", f"{warm:.2f}x"],
        ],
    )
    registry = MetricsRegistry()
    registry.gauge("bench.superblock_speedup", superblock, profile=PROFILE)
    registry.gauge("bench.trace_speedup", trace, profile=PROFILE)
    registry.gauge("bench.pipeline_speedup", pipeline, profile=PROFILE)
    registry.gauge("bench.warm_cache_speedup", warm, profile=PROFILE)
    for key, value in m.items():
        registry.gauge("bench.wall_seconds", value,
                       measurement=key, profile=PROFILE)
    emit_bench("speedup", registry)

    # CI gate: the superblock engine must never lose to the interpreter,
    # and in practice clears 2x (measured 2.3-2.6x on the dev box).
    assert superblock > 1.0, \
        f"superblock slower than interpreter ({superblock:.2f}x)"
    assert superblock >= 1.8, \
        f"superblock speedup regressed to {superblock:.2f}x"
    # The trace tier must never lose to the block cache it sits on; the
    # ≥2x acceptance gate is armed on ≥4-CPU boxes (measured 2.0-3.1x
    # across the Fig. 13 profiles on a 2-CPU host, compiles included)
    # so a starved single-core CI runner can't flake it.
    assert trace > 1.0, \
        f"trace tier slower than the block cache ({trace:.2f}x)"
    if (os.cpu_count() or 1) >= 4:
        assert trace >= 2.0, \
            f"trace-tier speedup regressed to {trace:.2f}x"
    # Pipeline floors that hold even on one core (no thread parallelism):
    # shared liveness + single assembly + cheaper trial scribbles.
    assert pipeline >= 1.1, \
        f"pipeline slower than the legacy path ({pipeline:.2f}x)"
    assert warm >= 5.0, \
        f"warm rewrite-cache hit only {warm:.2f}x over legacy"
