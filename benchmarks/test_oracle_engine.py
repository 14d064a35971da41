"""The differential oracle as an engine, over the verify-cold profiles.

Each of the 13 ``verify-cold`` profiles (scale 128, seed 0, two oracle
trials, serial) goes through ``rewrite_and_verify`` :data:`REPEATS`
times.  Recorded per profile:

* seconds inside ``DifferentialOracle.check_region`` per gate, best of
  :data:`REPEATS`;
* ``make_process`` calls the oracle makes per gate, counted where the
  oracle looks the function up.

Over the whole first sweep, which starts with an empty decode memo:

* uncached decoder executions (``_decode32`` and ``_decode_c`` calls)
  and the number of distinct instruction words they saw.

Gates, both counts, so they arm on any CPU count:

* at most 2 ``make_process`` calls per gate: one per side.  Loading
  both sides on every trial makes 4 per region;
* at most 2 uncached decoder executions per distinct word.  Decoding
  every fetch, scan step and static check makes about 50 per word.

``BENCH_oracle_engine.json`` records every number and the host's CPU
count.
"""

from __future__ import annotations

import os
import time

import pytest

import repro.isa.decoding as decoding
import repro.verify.oracle as oracle_module
from benchmarks.helpers import SCALE, emit_bench, print_table
from repro.core.pipeline import rewrite_and_verify
from repro.isa.extensions import RV64GC
from repro.telemetry import MetricsRegistry
from repro.workloads.spec_profiles import PROFILES
from repro.workloads.synthetic import SyntheticBinary
from tests.integration.test_rewrite_golden import VERIFY_COLD

REPEATS = 3
SEED = 0
ORACLE_TRIALS = 2
MAX_LOADS_PER_GATE = 2
MAX_EXECUTIONS_PER_WORD = 2


class _Counters:
    """Wraps the oracle's loader, its trial entry point and the
    uncached decoders for the length of one sweep."""

    def __init__(self, monkeypatch, *, count_decodes: bool):
        self.loads = 0
        self.oracle_s = 0.0
        self.executions = 0
        self.words: set[int] = set()
        make_process = oracle_module.make_process
        check_region = oracle_module.DifferentialOracle.check_region

        def loading(*args, **kwargs):
            self.loads += 1
            return make_process(*args, **kwargs)

        def timed(oracle, rec):
            t0 = time.perf_counter()
            try:
                return check_region(oracle, rec)
            finally:
                self.oracle_s += time.perf_counter() - t0

        monkeypatch.setattr(oracle_module, "make_process", loading)
        monkeypatch.setattr(oracle_module.DifferentialOracle, "check_region", timed)
        if count_decodes:
            for name in ("_decode32", "_decode_c"):
                monkeypatch.setattr(decoding, name, self._counting(getattr(decoding, name)))

    def _counting(self, decoder):
        def counted(word):
            self.executions += 1
            self.words.add(word)
            return decoder(word)
        return counted


@pytest.fixture(scope="module")
def measurements():
    binaries = {name: SyntheticBinary(PROFILES[name], scale=SCALE).build()
                for name in VERIFY_COLD}
    rows = {name: {"oracle_s": [], "loads": []} for name in VERIFY_COLD}
    decodes = {}
    decoding._decoded_fields.cache_clear()
    for repeat in range(REPEATS):
        with pytest.MonkeyPatch.context() as mp:
            sweep = _Counters(mp, count_decodes=repeat == 0)
            for name in VERIFY_COLD:
                sweep.loads, sweep.oracle_s = 0, 0.0
                rewrite_and_verify(binaries[name], RV64GC, seed=SEED,
                                   oracle_trials=ORACLE_TRIALS, jobs=1)
                rows[name]["oracle_s"].append(sweep.oracle_s)
                rows[name]["loads"].append(sweep.loads)
            if repeat == 0:
                decodes = {"executions": sweep.executions,
                           "distinct_words": len(sweep.words)}
    return rows, decodes


def test_oracle_engine(measurements):
    rows, decodes = measurements
    registry = MetricsRegistry()
    table = []
    for name, row in rows.items():
        best = min(row["oracle_s"])
        loads = max(row["loads"])
        registry.gauge("bench.oracle_s", round(best, 6), profile=name, stat="min")
        registry.gauge("bench.oracle_s", round(max(row["oracle_s"]), 6),
                       profile=name, stat="max")
        registry.gauge("bench.oracle_make_process_calls", loads, profile=name)
        table.append([name, f"{best * 1e3:.1f}ms", loads])
    total = sum(min(row["oracle_s"]) for row in rows.values())
    registry.gauge("bench.oracle_total_s", round(total, 6), stat="sum_of_min")
    registry.gauge("bench.decoder_executions", decodes["executions"])
    registry.gauge("bench.decoder_distinct_words", decodes["distinct_words"])
    registry.gauge("bench.cpu_count", os.cpu_count() or 1)
    emit_bench("oracle_engine", registry)
    print_table(f"oracle per gate, scale {SCALE}, seed {SEED}, best of {REPEATS}",
                ["profile", "oracle", "make_process"], table)
    print(f"oracle over the sweep: {total:.3f}s; decoder executions "
          f"{decodes['executions']} over {decodes['distinct_words']} distinct words")

    for name, row in rows.items():
        assert max(row["loads"]) <= MAX_LOADS_PER_GATE, (
            f"{name}: {row['loads']} make_process calls per gate")
    assert decodes["executions"] <= MAX_EXECUTIONS_PER_WORD * decodes["distinct_words"], (
        f"{decodes['executions']} decoder executions for "
        f"{decodes['distinct_words']} distinct words")
