"""The CHBP rewriter's analysis and encoding cost, over the verify-cold profiles.

Each of the 13 ``verify-cold`` profiles (scale 128) is rewritten for
rv64gc with ``ChimeraRewriter()`` defaults, the rewrite
``rewrite_and_verify`` makes, :data:`REPEATS` times.  Recorded:

* seconds per sweep of the 13 rewrites, with the median, min and max
  over the repeats as spread;
* over the first sweep, which starts with the encoder memo empty:
  ``encode`` calls made inside ``Block.encode``, the distinct
  instructions (fields, resolved immediates included) those calls
  encode, and the instructions and fixups of every encoded block;
* seconds to answer liveness at every address of the 13 profiles'
  CFGs: ``LivenessAnalysis.run`` plus a ``dead_before`` query at each
  address, against the frozenset fixpoint it replaced
  (``ReferenceLiveness`` in ``tests/property/test_liveness_masks.py``)
  doing the same, best of :data:`REPEATS` sweeps each.  Querying every
  address makes both sides expand every block, so the lazy expansion
  the patcher pays for in its queries is inside the ratio.

Gates, both of which arm on any CPU count:

* ``Block.encode`` encodes each distinct instruction once: its
  ``encode`` calls equal the distinct instructions they encode, and are
  fewer than the items.  It is a count, so it is deterministic.
  Encoding every item afresh makes one call per item;
* liveness at every address is at least :data:`MIN_LIVENESS_SPEEDUP`
  times faster than the reference on the same host.

``BENCH_rewrite.json`` records every number and the host's CPU count.
"""

from __future__ import annotations

import os
import statistics
import time

import pytest

import repro.isa.block as block_module
from benchmarks.helpers import SCALE, emit_bench, print_table
from repro.analysis.cfg import build_cfg
from repro.analysis.liveness import LivenessAnalysis
from repro.analysis.scan import RecursiveScanner
from repro.core.rewriter import ChimeraRewriter
from repro.isa.block import Block
from repro.isa.extensions import RV64GC
from repro.isa.instructions import Instruction, encoding_fields
from repro.telemetry import MetricsRegistry
from repro.workloads.spec_profiles import PROFILES
from repro.workloads.synthetic import SyntheticBinary
from tests.integration.test_rewrite_golden import VERIFY_COLD
from tests.property.test_liveness_masks import ReferenceLiveness

REPEATS = 3
MIN_LIVENESS_SPEEDUP = 2.5


class _EncodeCounter:
    """Counts ``encode`` calls and block items inside ``Block.encode``."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self.items = 0
        self.shapes: set = set()
        encode = block_module.encode
        block_encode = Block.encode

        def counting_encode(instr):
            self.calls += 1
            self.shapes.add(encoding_fields(instr))
            return encode(instr)

        def counting_block_encode(block):
            self.items += sum(type(item) is Instruction or item[0] == "fix"
                              for item in block.items)
            return block_encode(block)

        monkeypatch.setattr(block_module, "encode", counting_encode)
        monkeypatch.setattr(Block, "encode", counting_block_encode)


def _sweep_seconds(fn, inputs) -> float:
    t0 = time.perf_counter()
    for value in inputs:
        fn(value)
    return time.perf_counter() - t0


def _mask_liveness_everywhere(cfg) -> None:
    result = LivenessAnalysis(cfg).run()
    for addr in cfg._block_of:
        result.dead_before(addr)


def _reference_liveness_everywhere(cfg) -> None:
    reference = ReferenceLiveness(cfg)
    live_before = reference.run()
    for addr in cfg._block_of:
        reference.dead_before(live_before, addr)


@pytest.fixture(scope="module")
def measurements():
    binaries = [SyntheticBinary(PROFILES[name], scale=SCALE).build()
                for name in VERIFY_COLD]
    rewrite_s = []
    counts = {}
    block_module._encoded.cache_clear()
    for repeat in range(REPEATS):
        with pytest.MonkeyPatch.context() as mp:
            counter = _EncodeCounter(mp) if repeat == 0 else None
            rewrite_s.append(_sweep_seconds(
                lambda binary: ChimeraRewriter().rewrite(binary, RV64GC), binaries))
            if counter is not None:
                counts = {"calls": counter.calls, "items": counter.items,
                          "shapes": len(counter.shapes)}
    cfgs = [build_cfg(RecursiveScanner().scan(binary)) for binary in binaries]
    liveness_s = [_sweep_seconds(_mask_liveness_everywhere, cfgs)
                  for _ in range(REPEATS)]
    reference_s = [_sweep_seconds(_reference_liveness_everywhere, cfgs)
                   for _ in range(REPEATS)]
    return {"rewrite_s": rewrite_s, "counts": counts,
            "liveness_s": liveness_s, "reference_s": reference_s,
            "instructions": sum(len(cfg._block_of) for cfg in cfgs)}


def test_rewrite(measurements):
    m = measurements
    counts = m["counts"]
    speedup = min(m["reference_s"]) / min(m["liveness_s"])
    registry = MetricsRegistry()
    for name in ("rewrite_s", "liveness_s", "reference_s"):
        for stat, fn in (("median", statistics.median), ("min", min), ("max", max)):
            registry.gauge(f"bench.rewrite_sweep_{name}", round(fn(m[name]), 6), stat=stat)
    registry.gauge("bench.rewrite_encode_calls", counts["calls"])
    registry.gauge("bench.rewrite_encoded_shapes", counts["shapes"])
    registry.gauge("bench.rewrite_encoded_items", counts["items"])
    registry.gauge("bench.rewrite_instructions", m["instructions"])
    registry.gauge("bench.rewrite_liveness_speedup", round(speedup, 3))
    registry.gauge("bench.rewrite_repeats", REPEATS)
    registry.gauge("bench.cpu_count", os.cpu_count() or 1)
    emit_bench("rewrite", registry)
    print_table(f"13 verify-cold rewrites, scale {SCALE}, {REPEATS} repeats",
                ["stage", "median", "min", "max"],
                [[name, *(f"{fn(m[name]) * 1e3:.1f}ms"
                          for fn in (statistics.median, min, max))]
                 for name in ("rewrite_s", "liveness_s", "reference_s")])
    print(f"encode calls in Block.encode: {counts['calls']} for "
          f"{counts['shapes']} distinct instructions in {counts['items']} items; "
          f"liveness at every address {speedup:.1f}x faster than the set "
          f"fixpoint over {m['instructions']} instructions")

    assert counts["calls"] == counts["shapes"] < counts["items"], (
        f"{counts['calls']} encode calls for {counts['shapes']} distinct "
        f"instructions in {counts['items']} items")
    assert speedup >= MIN_LIVENESS_SPEEDUP, (
        f"liveness only {speedup:.2f}x faster than the set fixpoint")
