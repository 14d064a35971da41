"""Verifier/sweeper cross-check: the admission-escape outcome.

The chaos sweeper knows which regions the static gate admitted.  An
admitted region that still produces a hard failure under the sweep
means the verifier's invariants are wrong — that is its own outcome
class and a hard failure, distinct from a plain silent-divergence in
unverified code.
"""

import pytest

from repro.chaos.harness import build_erroneous_workload, sweep_binary
from repro.chaos.outcomes import (
    ADMISSION_ESCAPE,
    HARD_FAILURES,
    SILENT_DIVERGENCE,
    AttackResult,
)
from repro.chaos.sweeper import TrampolineAttackSweeper
from repro.core.rewriter import ChimeraRewriter
from repro.isa.extensions import RV64GC
from repro.verify.records import patched_regions


def test_admission_escape_is_a_hard_failure():
    assert ADMISSION_ESCAPE in HARD_FAILURES


def test_verified_sweep_is_clean():
    """The real pipeline: gate first, then sweep — every admitted
    region survives the full byte-by-byte attack."""
    report = sweep_binary(build_erroneous_workload(), mode="smile")
    assert report.ok
    assert report.verified_regions > 0
    assert report.rejected_regions == 0
    assert not any(r.outcome == ADMISSION_ESCAPE for r in report.results)
    assert "admission gate:" in report.summary()


def test_unverified_sweep_reports_no_gate():
    report = sweep_binary(build_erroneous_workload(), mode="smile", verify=False)
    assert report.ok
    assert report.verified_regions == 0
    assert "admission gate:" not in report.summary()


def test_hard_failure_in_admitted_region_escalates(monkeypatch):
    """Force a silent-divergence verdict inside an admitted region and
    assert the sweeper re-labels it as an admission escape."""
    original = build_erroneous_workload()
    rewritten = ChimeraRewriter().rewrite(original, RV64GC).binary
    regions = patched_regions(rewritten.metadata["chimera"]["patch_records"])
    start = regions[0][0]
    sweeper = TrampolineAttackSweeper(
        original, rewritten, admitted=frozenset({start}))

    real_attack = TrampolineAttackSweeper._attack

    def lying_attack(self, addr, rstart, rend, kind, boundaries):
        if addr == start:
            return AttackResult(
                addr=addr, region_start=rstart, region_end=rend,
                region_kind=kind, offset=addr - rstart, label="head",
                boundary=True, modified=True, outcome=SILENT_DIVERGENCE,
                detail="executed past the grace window")
        return real_attack(self, addr, rstart, rend, kind, boundaries)

    monkeypatch.setattr(TrampolineAttackSweeper, "_attack", lying_attack)
    report = sweeper.sweep(mode="smile")
    assert not report.ok
    escapes = [r for r in report.results if r.outcome == ADMISSION_ESCAPE]
    assert [r.addr for r in escapes] == [start]
    assert escapes[0].detail.startswith("verifier admitted this region; ")


def test_hard_failure_in_rejected_region_does_not_escalate(monkeypatch):
    """The same forced verdict outside the admitted set stays a plain
    silent-divergence: escapes are specifically the verifier's lie."""
    original = build_erroneous_workload()
    rewritten = ChimeraRewriter().rewrite(original, RV64GC).binary
    regions = patched_regions(rewritten.metadata["chimera"]["patch_records"])
    start = regions[0][0]
    sweeper = TrampolineAttackSweeper(original, rewritten, admitted=frozenset())

    real_attack = TrampolineAttackSweeper._attack

    def lying_attack(self, addr, rstart, rend, kind, boundaries):
        if addr == start:
            return AttackResult(
                addr=addr, region_start=rstart, region_end=rend,
                region_kind=kind, offset=addr - rstart, label="head",
                boundary=True, modified=True, outcome=SILENT_DIVERGENCE,
                detail="executed past the grace window")
        return real_attack(self, addr, rstart, rend, kind, boundaries)

    monkeypatch.setattr(TrampolineAttackSweeper, "_attack", lying_attack)
    report = sweeper.sweep(mode="smile")
    assert not report.ok
    assert not any(r.outcome == ADMISSION_ESCAPE for r in report.results)
    assert report.rejected_regions == len({r[0] for r in sweeper.regions})
