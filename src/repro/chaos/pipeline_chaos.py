"""Chaos for the fault-isolated verification pipeline itself.

The runtime injectors (:mod:`repro.chaos.injector`) attack a rewritten
binary while it *runs*; :class:`PipelineFailureInjector` attacks the
pipeline while it *verifies*: kill a pool worker mid-region, hang the
oracle past the watchdog, tear a published cache entry, truncate the
run journal mid-line.  Every scenario must end the way the tentpole
demands — a completed run whose :class:`~repro.verify.report
.VerifyReport` attributes the fault to the exact region, zero raw
tracebacks, zero silent drops, zero corrupted cache entries left
behind, and byte-identical released output wherever the fault was
survivable.

``python -m repro chaos <workload> --pipeline`` drives
:func:`run_pipeline_chaos`.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.chaos.outcomes import ChaosReport, ScenarioResult
from repro.core.pipeline import rewrite_and_verify
from repro.elf.binary import Binary
from repro.elf.fileformat import save_binary
from repro.isa.extensions import RV64GC, IsaProfile
from repro.resilience.failures import (
    RESOLVED_DEGRADED,
    RESOLVED_RETRIED,
    WORKER_CRASH,
    WORKER_HANG,
)
from repro.resilience.seeds import resolve_seed
from repro.telemetry import Telemetry, use as telemetry_use


class InjectedPipelineKill(BaseException):
    """The injector killed the whole pipeline driver (simulated SIGKILL
    between journal appends).  A ``BaseException`` so no retry ladder or
    fault taxonomy can absorb it — exactly like a real kill."""


@dataclass
class PipelineFailureInjector:
    """Scripted failures for the verification pipeline.  The process
    executor's forked workers inherit it with the gate, so
    ``before_region`` fires inside the worker that would verify the
    region.

    ``kill``/``hang``/``error`` map a region *index* to the number of
    attempts to affect: ``{3: 1}`` kills attempt 1 of region 3 (the
    retry then succeeds), ``{3: 99}`` kills every attempt (the region
    quarantines).  ``abort_after_regions`` kills the *driver* (raises
    :class:`InjectedPipelineKill`) once that many region verdicts hit
    the journal.
    """

    kill: dict[int, int] = field(default_factory=dict)
    hang: dict[int, int] = field(default_factory=dict)
    error: dict[int, int] = field(default_factory=dict)
    hang_seconds: float = 30.0
    abort_after_regions: int = 0

    # -- hooks the pipeline calls -------------------------------------------

    def before_region(self, idx: int, attempt: int, record) -> None:
        if attempt <= self.kill.get(idx, 0):
            # An OOM-style kill: no cleanup, no goodbye message.
            os._exit(139)
        if attempt <= self.hang.get(idx, 0):
            time.sleep(self.hang_seconds)
        if attempt <= self.error.get(idx, 0):
            raise RuntimeError(
                f"injected verify error: region {idx} attempt {attempt}")

    def on_journal_record(self, settled: int) -> None:
        if self.abort_after_regions and settled >= self.abort_after_regions:
            raise InjectedPipelineKill(
                f"injected driver kill after {settled} journaled regions")


# -- scenario helpers --------------------------------------------------------


def _binary_digest(binary: Binary) -> str:
    path = Path(tempfile.mkstemp(suffix=".self")[1])
    try:
        save_binary(binary, path)
        return hashlib.sha256(path.read_bytes()).hexdigest()
    finally:
        path.unlink(missing_ok=True)


def _fault_summary(report) -> str:
    return "; ".join(str(f) for f in report.faults) or "no faults"


@dataclass
class _Reference:
    """Fault-free serial baseline every scenario compares against.

    ``rejected_starts`` carries the baseline's own oracle rejections
    (a workload/seed property, possible even with zero injected
    faults); scenarios assert the injection added nothing to them.
    """

    report_dict: dict
    binary_digest: str
    rejected_starts: frozenset[int]


def _run_scenarios(original: Binary, *, target: IsaProfile, jobs: int,
                   seed: int, executor: str) -> list[ScenarioResult]:
    common = dict(seed=seed, oracle_trials=1, max_oracle_regions=0)
    clean = rewrite_and_verify(original.clone(), target, executor="serial",
                               **common)
    reference = _Reference(clean.report.as_dict(),
                           _binary_digest(clean.binary),
                           frozenset(r.start for r in clean.report.rejected))
    records = clean.binary.metadata["chimera"]["patch_records"]
    if not records:
        return [ScenarioResult("pipeline-chaos", False,
                               "workload produced no patched regions")]
    victim = len(records) // 2
    scenarios = []
    for func in (_scenario_worker_crash_retried,
                 _scenario_oracle_hang,
                 _scenario_crash_quarantine_degrade,
                 _scenario_torn_cache_write,
                 _scenario_truncated_journal):
        scenarios.append(func(original, target=target, jobs=jobs,
                              executor=executor, common=common,
                              reference=reference, victim=victim,
                              records=records))
    return scenarios


def _strip_faults(report_dict: dict) -> dict:
    """Drop the fault ledger (and its counts) for output comparison:
    survivable faults may differ, the verified output must not."""
    counts = {k: v for k, v in report_dict.get("counts", {}).items()
              if k not in ("region_faults", "degraded")}
    return dict(report_dict, faults=[], counts=counts)


def _check_clean_outputs(name: str, result, reference: _Reference,
                         *, expect_faults: bool) -> Optional[ScenarioResult]:
    """Shared asserts: survivable faults must not change the release."""
    stripped = _strip_faults(result.report.as_dict())
    ref = _strip_faults(reference.report_dict)
    if stripped != ref:
        return ScenarioResult(
            name, False, "report diverged from the fault-free reference")
    if _binary_digest(result.binary) != reference.binary_digest:
        return ScenarioResult(
            name, False, "released bytes diverged from the reference")
    if expect_faults and not result.report.faults:
        return ScenarioResult(name, False, "injected fault left no ledger entry")
    if not expect_faults and result.report.faults:
        return ScenarioResult(
            name, False, f"unexpected faults: {_fault_summary(result.report)}")
    return None


def _scenario_worker_crash_retried(original, *, target, jobs, executor,
                                   common, reference, victim, records):
    name = "pipeline-worker-crash"
    injector = PipelineFailureInjector(kill={victim: 1})
    result = rewrite_and_verify(
        original.clone(), target, jobs=jobs, executor=executor,
        failure_injector=injector, **common)
    bad = _check_clean_outputs(name, result, reference, expect_faults=True)
    if bad is not None:
        return bad
    faults = result.report.faults
    rec = records[victim]
    if not any(f.fault == WORKER_CRASH and f.start == rec.start
               and f.resolution == RESOLVED_RETRIED for f in faults):
        return ScenarioResult(
            name, False,
            f"crash not attributed to region {rec.start:#x} as retried: "
            f"{_fault_summary(result.report)}")
    return ScenarioResult(
        name, True,
        f"worker kill at region {rec.start:#x} retried; outputs identical")


def _scenario_oracle_hang(original, *, target, jobs, executor, common,
                          reference, victim, records):
    name = "pipeline-oracle-hang"
    injector = PipelineFailureInjector(hang={victim: 1}, hang_seconds=30.0)
    result = rewrite_and_verify(
        original.clone(), target, jobs=jobs, executor=executor,
        region_timeout=1.0, failure_injector=injector, **common)
    bad = _check_clean_outputs(name, result, reference, expect_faults=True)
    if bad is not None:
        return bad
    rec = records[victim]
    if not any(f.fault == WORKER_HANG and f.start == rec.start
               and f.resolution == RESOLVED_RETRIED
               for f in result.report.faults):
        return ScenarioResult(
            name, False,
            f"hang not attributed to region {rec.start:#x} as retried: "
            f"{_fault_summary(result.report)}")
    return ScenarioResult(
        name, True,
        f"watchdog killed hung worker at region {rec.start:#x}; "
        "retry succeeded, outputs identical")


def _scenario_crash_quarantine_degrade(original, *, target, jobs, executor,
                                       common, reference, victim, records):
    name = "pipeline-quarantine-degrade"
    injector = PipelineFailureInjector(kill={victim: 99})
    result = rewrite_and_verify(
        original.clone(), target, jobs=jobs, executor=executor,
        failure_injector=injector, **common)
    report = result.report
    rec = records[victim]
    region_faults = [f for f in report.faults if f.start == rec.start]
    if not region_faults:
        return ScenarioResult(name, False, "no fault attributed to the region")
    final = max(region_faults, key=lambda f: f.attempt)
    if final.resolution != RESOLVED_DEGRADED or not all(
            f.resolution == RESOLVED_RETRIED
            for f in region_faults if f is not final):
        return ScenarioResult(
            name, False,
            f"expected retried... then degraded-trap at {rec.start:#x}, got: "
            f"{_fault_summary(report)}")
    if final.fault != WORKER_CRASH:
        return ScenarioResult(
            name, False, f"final fault is {final.fault}, expected worker-crash")
    # Baseline-relative releasability: the injection must not reject any
    # region the fault-free reference admitted (the reference's own
    # oracle rejections are a workload/seed property, not our doing).
    newly_rejected = ({r.start for r in report.rejected}
                      - reference.rejected_starts - report.degraded_starts)
    if newly_rejected:
        return ScenarioResult(
            name, False,
            "quarantine-and-degrade broke regions the reference admitted: "
            f"{sorted(hex(s) for s in newly_rejected)}")
    if not reference.rejected_starts and not report.releasable:
        return ScenarioResult(name, False, "degraded release not releasable")
    if report.ok:
        return ScenarioResult(
            name, False, "report.ok despite a quarantined region (ledger lies)")
    # Ledger completeness: every patched region of the *degraded* binary
    # has a verdict, and the quarantined window is accounted for.
    verdict_starts = {r.start for r in report.regions}
    record_starts = {r.start
                     for r in result.binary.metadata["chimera"]["patch_records"]}
    if not record_starts <= verdict_starts:
        return ScenarioResult(
            name, False,
            f"ledger incomplete: regions {sorted(verdict_starts - record_starts)}"
            " missing verdicts")
    if rec.start not in verdict_starts:
        return ScenarioResult(name, False, "quarantined region dropped silently")
    # The degraded release must stand on its own through a fresh gate.
    from repro.verify import verify_binary

    recheck = verify_binary(original.clone(), result.binary,
                            seed=common["seed"], oracle_trials=1,
                            executor="serial")
    recheck_new = ({r.start for r in recheck.rejected}
                   - reference.rejected_starts)
    if recheck_new:
        return ScenarioResult(
            name, False,
            "degraded binary failed fresh verification at "
            f"{sorted(hex(s) for s in recheck_new)}: {recheck.summary()}")
    return ScenarioResult(
        name, True,
        f"region {rec.start:#x} quarantined after retries, degraded to trap "
        "fallback, fresh gate admits the release")


def _scenario_torn_cache_write(original, *, target, jobs, executor, common,
                               reference, victim, records):
    name = "pipeline-torn-cache-write"
    with tempfile.TemporaryDirectory() as tmp:
        cache = Path(tmp)
        telemetry = Telemetry()
        with telemetry_use(telemetry):
            first = rewrite_and_verify(original.clone(), target, jobs=jobs,
                                       executor=executor, cache_dir=cache,
                                       **common)
            entries = sorted(cache.glob("shard-*/*.self"))
            if len(entries) != 1:
                return ScenarioResult(
                    name, False, f"expected 1 cache entry, found {len(entries)}")
            # Tear the published entry mid-file and plant a crash orphan.
            entry = entries[0]
            data = entry.read_bytes()
            entry.write_bytes(data[: len(data) // 2])
            orphan = entry.parent / ".deadbeef.self.tmp"
            orphan.write_bytes(b"half-written")
            os.utime(orphan, (time.time() - 7200, time.time() - 7200))

            second = rewrite_and_verify(original.clone(), target, jobs=jobs,
                                        executor=executor, cache_dir=cache,
                                        **common)
            if second.cache_hit:
                return ScenarioResult(
                    name, False, "torn entry served as a cache hit")
            if telemetry.metrics.total("pipeline.cache_repairs") < 1:
                return ScenarioResult(
                    name, False, "cache_repairs counter never incremented")
            if telemetry.metrics.total("pipeline.cache_orphans_gc") < 1:
                return ScenarioResult(
                    name, False, "crash orphan was not garbage-collected")
            bad = _check_clean_outputs(name, second, reference,
                                      expect_faults=False)
            if bad is not None:
                return bad
            leftovers = sorted(p.name for p in cache.glob("shard-*/.*.tmp"))
            if leftovers:
                return ScenarioResult(
                    name, False, f"temp files left behind: {leftovers}")
            third = rewrite_and_verify(original.clone(), target, jobs=jobs,
                                       executor=executor, cache_dir=cache,
                                       **common)
            if not third.cache_hit:
                return ScenarioResult(
                    name, False, "repaired entry did not serve a cache hit")
            if third.report.as_dict() != second.report.as_dict():
                return ScenarioResult(
                    name, False, "repaired cache hit diverged from the rebuild")
    return ScenarioResult(
        name, True,
        "torn entry repaired (miss-and-delete), orphan collected, "
        "rebuilt entry byte-identical and hit-able")


def _scenario_truncated_journal(original, *, target, jobs, executor, common,
                                reference, victim, records):
    name = "pipeline-truncated-journal"
    abort_after = max(2, min(4, len(records) - 1))
    with tempfile.TemporaryDirectory() as tmp:
        cache = Path(tmp)
        injector = PipelineFailureInjector(abort_after_regions=abort_after)
        try:
            rewrite_and_verify(original.clone(), target, jobs=jobs,
                               executor=executor, cache_dir=cache,
                               failure_injector=injector, **common)
            return ScenarioResult(
                name, False, "injected driver kill never fired")
        except InjectedPipelineKill:
            pass
        journals = sorted(cache.glob("shard-*/journal/*.jsonl"))
        if len(journals) != 1:
            return ScenarioResult(
                name, False, f"expected 1 journal, found {len(journals)}")
        journal = journals[0]
        lines = journal.read_bytes()
        if lines.count(b"\n") < abort_after + 1:  # header + records
            return ScenarioResult(
                name, False, "journal did not persist the settled regions")
        # Tear the tail record mid-line, as a real kill mid-write would.
        journal.write_bytes(lines[:-10])

        telemetry = Telemetry()
        with telemetry_use(telemetry):
            resumed = rewrite_and_verify(original.clone(), target, jobs=jobs,
                                         executor=executor, cache_dir=cache,
                                         **common)
        if resumed.resumed_regions != abort_after - 1:
            return ScenarioResult(
                name, False,
                f"resumed {resumed.resumed_regions} regions, expected "
                f"{abort_after - 1} (torn tail must be dropped)")
        bad = _check_clean_outputs(name, resumed, reference,
                                   expect_faults=False)
        if bad is not None:
            return bad
        if journal.exists():
            return ScenarioResult(
                name, False, "journal not deleted after the completed run")
    return ScenarioResult(
        name, True,
        f"driver killed after {abort_after} regions, torn tail dropped, "
        f"resume completed byte-identical from {abort_after - 1} journaled "
        "verdicts")


# -- aggregate ---------------------------------------------------------------


def run_pipeline_chaos(
    original: Binary,
    *,
    target: IsaProfile = RV64GC,
    jobs: int = 2,
    seed: Optional[int] = None,
    executor: str = "process",
) -> ChaosReport:
    """Run every pipeline failure scenario against *original*."""
    report = ChaosReport()
    report.scenarios = _run_scenarios(
        original, target=target, jobs=max(1, jobs),
        seed=resolve_seed(seed), executor=executor)
    return report
