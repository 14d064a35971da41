"""Fault-isolated process-pool verification.

The process executor must be invisible when nothing goes wrong —
byte-identical ledgers against the serial gate — and loudly structured
when something does: worker crashes and hangs attributed to the exact
region as :class:`~repro.resilience.failures.RegionFault` entries,
retries under the pipeline retry policy, quarantine verdicts once the
budget is exhausted, and a serial fallback when the pool itself cannot
be kept alive.
"""

import os
from types import SimpleNamespace

import pytest

from repro.chaos.pipeline_chaos import PipelineFailureInjector
from repro.core import procpool
from repro.core.rewriter import ChimeraRewriter
from repro.isa.extensions import PROFILES
from repro.resilience.failures import (
    POOL_BROKEN,
    RESOLVED_QUARANTINED,
    RESOLVED_RETRIED,
    VERIFY_ERROR,
    WORKER_CRASH,
    WORKER_HANG,
)
from repro.resilience.policy import RetryPolicy
from repro.verify.admission import AdmissionGate, verify_binary
from repro.workloads.spec_profiles import PROFILES as WORKLOADS
from repro.workloads.synthetic import SyntheticBinary

RV64GC = PROFILES["rv64gc"]

#: Retries still happen, but the backoff sleeps are ~1ms.
FAST_RETRIES = RetryPolicy(max_attempts=3, base_backoff=1, multiplier=1,
                           max_backoff=1)


@pytest.fixture(autouse=True)
def _fixed_seed(monkeypatch):
    monkeypatch.setenv("REPRO_FUZZ_SEED", "20260806")


@pytest.fixture(scope="module")
def pair():
    original = SyntheticBinary(WORKLOADS["gcc_r"], scale=256).build()
    rewritten = ChimeraRewriter().rewrite(original.clone(), RV64GC).binary
    return original, rewritten


def _verify(pair, **kwargs):
    original, rewritten = pair
    kwargs.setdefault("oracle_trials", 1)
    return verify_binary(original.clone(), rewritten.clone(), **kwargs)


class TestFaultFreeIdentity:
    def test_process_matches_serial_ledger(self, pair):
        serial = _verify(pair, executor="serial")
        pooled = _verify(pair, executor="process", jobs=2)
        assert pooled.as_dict() == serial.as_dict()
        assert not pooled.faults

    def test_unpicklable_injector_runs_in_forked_workers(self, pair):
        # Workers inherit the gate through fork, so an injector holding
        # a lambda needs no pickling and cannot raise a raw traceback.
        injector = SimpleNamespace(
            before_region=lambda idx, attempt, record: None)
        serial = _verify(pair, executor="serial", injector=injector)
        pooled = _verify(pair, executor="process", jobs=2, injector=injector)
        assert pooled.to_json() == serial.to_json()
        assert not pooled.faults

    def test_rejects_unknown_executor(self, pair):
        with pytest.raises(ValueError, match="executor"):
            _verify(pair, executor="carrier-pigeon")


class TestInjectedErrors:
    def test_transient_error_is_retried(self, pair):
        clean = _verify(pair, executor="process", jobs=2)
        injector = PipelineFailureInjector(error={0: 1})
        report = _verify(pair, executor="process", jobs=2,
                         injector=injector, retry_policy=FAST_RETRIES)
        assert [r.as_dict() for r in report.regions] == \
            [r.as_dict() for r in clean.regions]
        fault, = report.faults
        assert (fault.fault, fault.resolution) == (VERIFY_ERROR,
                                                   RESOLVED_RETRIED)
        assert fault.start == report.regions[0].start
        assert "Traceback" not in fault.detail

    def test_persistent_error_quarantines_with_verdict(self, pair):
        injector = PipelineFailureInjector(error={0: 99})
        report = _verify(pair, executor="process", jobs=2,
                         injector=injector, retry_policy=FAST_RETRIES)
        verdict = report.regions[0]
        assert not verdict.admitted
        assert any(c.name == "isolation" and not c.passed
                   for c in verdict.checks)
        region_faults = [f for f in report.faults
                         if f.start == verdict.start]
        assert len(region_faults) == FAST_RETRIES.max_attempts
        final = max(region_faults, key=lambda f: f.attempt)
        assert final.resolution == RESOLVED_QUARANTINED
        assert all(f.resolution == RESOLVED_RETRIED
                   for f in region_faults if f is not final)
        # Every other region still carries a fresh verdict.
        assert all(r.admitted for r in report.regions[1:])

    def test_serial_executor_retries_errors_too(self, pair):
        injector = PipelineFailureInjector(error={0: 1})
        report = _verify(pair, executor="serial", injector=injector,
                         retry_policy=FAST_RETRIES)
        assert report.ok
        fault, = report.faults
        assert (fault.fault, fault.resolution) == (VERIFY_ERROR,
                                                   RESOLVED_RETRIED)


class TestCrashAndHangIsolation:
    def test_worker_kill_is_attributed_and_retried(self, pair):
        clean = _verify(pair, executor="process", jobs=2)
        injector = PipelineFailureInjector(kill={0: 1})
        report = _verify(pair, executor="process", jobs=2,
                         injector=injector, retry_policy=FAST_RETRIES)
        assert [r.as_dict() for r in report.regions] == \
            [r.as_dict() for r in clean.regions]
        fault, = report.faults
        assert (fault.fault, fault.resolution) == (WORKER_CRASH,
                                                   RESOLVED_RETRIED)
        assert fault.start == report.regions[0].start

    def test_hung_worker_is_killed_by_watchdog(self, pair):
        injector = PipelineFailureInjector(hang={0: 1}, hang_seconds=30.0)
        report = _verify(pair, executor="process", jobs=2,
                         injector=injector, region_timeout=0.5,
                         retry_policy=FAST_RETRIES)
        assert report.ok
        fault, = report.faults
        assert (fault.fault, fault.resolution) == (WORKER_HANG,
                                                   RESOLVED_RETRIED)


class TestSeedHoisting:
    def test_mid_run_seed_change_cannot_drift_workers(self, pair, monkeypatch):
        original, rewritten = pair
        gate = AdmissionGate(original.clone(), rewritten.clone(),
                             oracle_trials=1, jobs=2, executor="process")
        assert gate.seed == 20260806
        # The environment flips after the gate resolved its seed; the
        # work-items carry the resolved value, so process workers must
        # not pick the new one up.
        monkeypatch.setenv("REPRO_FUZZ_SEED", "999")
        report = gate.verify()
        baseline = _verify(pair, executor="serial", seed=20260806)
        assert report.seed == 20260806
        assert report.as_dict() == baseline.as_dict()


class TestPoolBrokenFallback:
    def test_stillborn_pool_falls_back_to_serial(self, pair, monkeypatch):
        # Every spawned worker dies before its ready handshake; the pool
        # gives up and the gate finishes the regions serially, recording
        # the collapse as a single pipeline-scoped fault.
        monkeypatch.setattr(procpool, "_worker_main",
                            lambda *a, **k: os._exit(1))
        clean = _verify(pair, executor="serial")
        report = _verify(pair, executor="process", jobs=2)
        assert [r.as_dict() for r in report.regions] == \
            [r.as_dict() for r in clean.regions]
        pool_faults = [f for f in report.faults if f.fault == POOL_BROKEN]
        assert len(pool_faults) == 1
        assert pool_faults[0].region_kind == "pipeline"

    def test_host_without_fork_falls_back_to_serial(self, pair, monkeypatch):
        def no_fork(method=None):
            raise ValueError(f"cannot find context for {method!r}")

        monkeypatch.setattr(procpool.multiprocessing, "get_context", no_fork)
        clean = _verify(pair, executor="serial")
        report = _verify(pair, executor="process", jobs=2)
        assert [r.as_dict() for r in report.regions] == \
            [r.as_dict() for r in clean.regions]
        pool_fault, = report.faults
        assert (pool_fault.fault, pool_fault.region_kind) == (POOL_BROKEN,
                                                              "pipeline")
        assert "fork" in pool_fault.detail


class TestWorkItems:
    def test_retried_increments_attempt_only(self):
        item = procpool.RegionWorkItem(index=3, start=0x1000, end=0x1010,
                                       kind="smile", seed=7)
        again = item.retried()
        assert (again.index, again.start, again.seed) == (3, 0x1000, 7)
        assert (item.attempt, again.attempt) == (1, 2)
