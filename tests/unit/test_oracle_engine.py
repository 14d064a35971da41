"""The differential oracle as a reusable engine.

One ``DifferentialOracle`` loads each side once and restores its
writable bytes at the start of every trial.  These tests hold it to the
contract that makes that invisible: every region gets the outcomes a
per-trial fresh load gives it, in any order; every trial starts from the
bytes of a fresh image; and a trial that changes a side's code or
segments makes the next trial reload that side.
"""

import random

import pytest

import repro.verify.oracle as oracle_module
from repro.core.rewriter import ChimeraRewriter
from repro.elf.binary import Perm
from repro.elf.loader import make_process
from repro.isa.extensions import RV64GC
from repro.verify.oracle import DifferentialOracle, _Side
from repro.workloads.spec_profiles import PROFILES
from repro.workloads.synthetic import SyntheticBinary

SEED = 0


class FreshLoadOracle(DifferentialOracle):
    """Reference: loads both sides and starts an empty decode cache on
    every trial, as the oracle did before it kept its sides."""

    def _side(self, key, binary):
        return _Side(make_process(binary, name=f"{binary.name}@oracle-{key}"))


@pytest.fixture(scope="module")
def pair():
    original = SyntheticBinary(PROFILES["gcc_r"], scale=128).build()
    result = ChimeraRewriter().rewrite(original, RV64GC)
    return original, result.binary, result.liveness


@pytest.fixture(scope="module")
def reference(pair):
    original, rewritten, liveness = pair
    ref = FreshLoadOracle(original, rewritten, seed=SEED, liveness=liveness)
    return {rec.start: ref.check_region(rec) for rec in _records(rewritten)}


def _records(rewritten):
    return list(rewritten.metadata["chimera"]["patch_records"])


def _engine(pair):
    original, rewritten, liveness = pair
    return DifferentialOracle(original, rewritten, seed=SEED, liveness=liveness)


def _writable_image(process) -> dict:
    return {seg.name: bytes(seg.data) for seg in process.space.segments
            if Perm.W in seg.perm}


@pytest.fixture
def load_count(monkeypatch):
    calls = []

    def counting(binary, **kwargs):
        calls.append(binary.name)
        return make_process(binary, **kwargs)

    monkeypatch.setattr(oracle_module, "make_process", counting)
    return calls


def test_any_region_order_matches_fresh_loads(pair, reference, load_count):
    records = _records(pair[1])
    shuffled = list(records)
    random.Random(SEED).shuffle(shuffled)
    engine = _engine(pair)
    for order in (records, records[::-1], shuffled):
        outcomes = {rec.start: engine.check_region(rec) for rec in order}
        assert outcomes == reference
    # Both sides loaded once for all three sweeps.
    assert len(load_count) == 2
    assert any(o != "match" for trials in reference.values() for o in trials), \
        "the pair should exercise a rejected region too"


def test_trial_starts_from_a_fresh_image(pair, monkeypatch):
    original, rewritten, _ = pair
    fresh = {"o": _writable_image(make_process(original)),
             "r": _writable_image(make_process(rewritten))}
    assert ".chimera.vregs" in fresh["r"]
    engine = _engine(pair)
    run_side = engine._run_side
    dirtied = []

    def storing_run_side(binary, process, *args, **kwargs):
        """Run the side, then store over .data, the stack and the
        vector spill area the way a guest store would."""
        result = run_side(binary, process, *args, **kwargs)
        for seg in process.space.segments:
            if seg.name in (".data", "[stack]", ".chimera.vregs"):
                process.space.write(seg.base, b"\xa5" * 64)
                dirtied.append(seg.name)
        return result

    starts = []
    scribble = engine._scribble

    def capturing_scribble(rng, *processes):
        starts.append([_writable_image(p) for p in processes])
        scribble(rng, *processes)

    monkeypatch.setattr(engine, "_run_side", storing_run_side)
    monkeypatch.setattr(engine, "_scribble", capturing_scribble)
    for rec in _records(rewritten)[:3]:
        engine.check_region(rec)
    assert {".data", "[stack]", ".chimera.vregs"} <= set(dirtied)
    assert len(starts) == 3 * engine.trials
    for o_image, r_image in starts:
        assert o_image == fresh["o"]
        assert r_image == fresh["r"]


def test_patched_code_reloads_the_side(pair, reference, load_count):
    engine = _engine(pair)
    first, second, *_ = _records(pair[1])
    assert engine.check_region(first) == reference[first.start]
    assert len(load_count) == 2
    space = engine._sides["r"].template.space
    text = space.segment_named(".text")
    space.patch_code(text.base, bytes(text.data[:4]))
    assert engine.check_region(second) == reference[second.start]
    assert load_count[2:] == [pair[1].name]


def test_remapped_segment_reloads_the_side(pair, reference, load_count):
    engine = _engine(pair)
    first, second, *_ = _records(pair[1])
    engine.check_region(first)
    space = engine._sides["o"].template.space
    space.segments.remove(space.segment_named("[stack]"))
    assert engine.check_region(second) == reference[second.start]
    assert load_count[2:] == [pair[0].name]


def test_failed_load_fails_every_attempt(pair, monkeypatch):
    engine = _engine(pair)
    rec = _records(pair[1])[0]

    def broken(binary, **kwargs):
        raise ValueError(f"cannot map {binary.name}")

    monkeypatch.setattr(oracle_module, "make_process", broken)
    for _ in range(2):
        with pytest.raises(ValueError, match="cannot map"):
            engine.check_region(rec)
