"""Parallel verified-rewrite pipeline: serial, parallel, and cached
executions must be indistinguishable — byte-identical rewritten binaries
and identical VerifyReport ledgers under a fixed ``REPRO_FUZZ_SEED``."""

import pytest

from repro.core.pipeline import PipelineResult, cache_key, rewrite_and_verify
from repro.core.rewriter import ChimeraRewriter
from repro.isa.extensions import PROFILES
from repro.verify.report import VerifyReport
from repro.workloads.spec_profiles import PROFILES as WORKLOADS
from repro.workloads.synthetic import SyntheticBinary

RV64GC = PROFILES["rv64gc"]


def _gcc():
    return SyntheticBinary(WORKLOADS["gcc_r"], scale=256).build()


def _section_bytes(result):
    return {s.name: bytes(s.data) for s in result.binary.sections}


@pytest.fixture(autouse=True)
def _fixed_seed(monkeypatch):
    monkeypatch.setenv("REPRO_FUZZ_SEED", "20260806")


class TestDeterminism:
    def test_serial_and_parallel_are_identical(self):
        serial = rewrite_and_verify(_gcc(), RV64GC, oracle_trials=1, jobs=1)
        parallel = rewrite_and_verify(_gcc(), RV64GC, oracle_trials=1, jobs=4)
        assert _section_bytes(serial.result) == _section_bytes(parallel.result)
        assert serial.report.as_dict() == parallel.report.as_dict()
        assert serial.report.seed == 20260806

    def test_region_order_is_stable_under_parallelism(self):
        report = rewrite_and_verify(_gcc(), RV64GC, oracle_trials=1,
                                    jobs=4).report
        starts = [r.start for r in report.regions]
        assert starts == sorted(starts)


class TestRewriteCache:
    def test_warm_hit_reproduces_binary_and_ledger(self, tmp_path):
        cold = rewrite_and_verify(_gcc(), RV64GC, oracle_trials=1,
                                  cache_dir=tmp_path)
        warm = rewrite_and_verify(_gcc(), RV64GC, oracle_trials=1,
                                  cache_dir=tmp_path)
        assert not cold.cache_hit and warm.cache_hit
        assert _section_bytes(cold.result) == _section_bytes(warm.result)
        assert cold.report.as_dict() == warm.report.as_dict()

    def test_cached_binary_passes_a_fresh_gate(self, tmp_path):
        from repro.verify.admission import verify_binary

        original = _gcc()
        cold = rewrite_and_verify(original, RV64GC, oracle_trials=1,
                                  cache_dir=tmp_path)
        warm = rewrite_and_verify(_gcc(), RV64GC, oracle_trials=1,
                                  cache_dir=tmp_path)
        assert warm.cache_hit
        # The cache-loaded metadata (patch records, tables) is complete
        # enough to re-verify from scratch and get the same ledger.
        report = verify_binary(original, warm.binary, oracle_trials=1)
        assert report.as_dict() == cold.report.as_dict()

    def test_key_depends_on_input_bytes_and_config(self):
        rewriter = ChimeraRewriter()
        gate = {"seed": 1, "oracle_trials": 1,
                "oracle_max_steps": 512, "max_oracle_regions": 0}
        a = cache_key(_gcc(), RV64GC, rewriter, gate)
        assert a == cache_key(_gcc(), RV64GC, rewriter, gate)
        other = SyntheticBinary(WORKLOADS["perlbench_r"], scale=256).build()
        assert a != cache_key(other, RV64GC, rewriter, gate)
        assert a != cache_key(_gcc(), RV64GC, rewriter, dict(gate, seed=2))
        assert a != cache_key(_gcc(), RV64GC,
                              ChimeraRewriter(mode="empty"), gate)

    def test_seed_change_misses_the_cache(self, tmp_path, monkeypatch):
        rewrite_and_verify(_gcc(), RV64GC, oracle_trials=1,
                           cache_dir=tmp_path)
        monkeypatch.setenv("REPRO_FUZZ_SEED", "7")
        again = rewrite_and_verify(_gcc(), RV64GC, oracle_trials=1,
                                   cache_dir=tmp_path)
        assert not again.cache_hit

    def test_corrupt_entry_is_a_miss_not_an_error(self, tmp_path):
        cold = rewrite_and_verify(_gcc(), RV64GC, oracle_trials=1,
                                  cache_dir=tmp_path)
        assert isinstance(cold, PipelineResult)
        for path in tmp_path.glob("shard-*/*.self"):
            path.write_bytes(b"garbage")
        redo = rewrite_and_verify(_gcc(), RV64GC, oracle_trials=1,
                                  cache_dir=tmp_path)
        assert not redo.cache_hit
        assert _section_bytes(redo.result) == _section_bytes(cold.result)


class TestExecutors:
    def test_serial_and_process_are_byte_identical(self):
        serial = rewrite_and_verify(_gcc(), RV64GC, oracle_trials=1,
                                    executor="serial")
        pooled = rewrite_and_verify(_gcc(), RV64GC, oracle_trials=1,
                                    jobs=2, executor="process")
        assert _section_bytes(serial.result) == _section_bytes(pooled.result)
        assert serial.report.as_dict() == pooled.report.as_dict()


class TestExecutorChoice:
    """Unset, the executor is chosen after the rewrite: the pool runs
    only when at least two regions can verify at once."""

    @pytest.fixture
    def pool_runs(self, monkeypatch):
        from repro.core import procpool

        runs = []
        real_run = procpool.FaultIsolatedPool.run

        def counting_run(pool, items, on_complete=None):
            runs.append(len(items))
            return real_run(pool, items, on_complete=on_complete)

        monkeypatch.setattr(procpool.FaultIsolatedPool, "run", counting_run)
        return runs

    def test_one_region_kernel_verifies_in_line(self, pool_runs):
        from repro.workloads.programs import ALL_WORKLOADS

        def matmul():
            return ALL_WORKLOADS["matmul"].build("ext")

        events = []
        auto = rewrite_and_verify(
            matmul(), RV64GC, oracle_trials=1, jobs=2,
            on_progress=lambda stage, **info: events.append((stage, info)))
        serial = rewrite_and_verify(matmul(), RV64GC, oracle_trials=1,
                                    executor="serial")
        assert len(auto.report.regions) == 1
        assert pool_runs == []
        verify_info, = [info for stage, info in events if stage == "verify"]
        assert verify_info["executor"] == "serial"
        assert auto.report.to_json() == serial.report.to_json()

    def test_multi_region_binary_keeps_the_pool(self, pool_runs):
        auto = rewrite_and_verify(_gcc(), RV64GC, oracle_trials=1, jobs=2)
        serial = rewrite_and_verify(_gcc(), RV64GC, oracle_trials=1,
                                    executor="serial")
        assert pool_runs == [len(auto.report.regions)]
        assert len(auto.report.regions) > 1
        assert auto.report.to_json() == serial.report.to_json()

    def test_resume_with_one_region_left_verifies_in_line(self, tmp_path,
                                                          pool_runs):
        from repro.chaos import InjectedPipelineKill, PipelineFailureInjector

        serial = rewrite_and_verify(_gcc(), RV64GC, oracle_trials=1,
                                    executor="serial")
        regions = len(serial.report.regions)
        injector = PipelineFailureInjector(abort_after_regions=regions - 1)
        with pytest.raises(InjectedPipelineKill):
            rewrite_and_verify(_gcc(), RV64GC, oracle_trials=1,
                               executor="serial", cache_dir=tmp_path,
                               failure_injector=injector)
        resumed = rewrite_and_verify(_gcc(), RV64GC, oracle_trials=1, jobs=2,
                                     cache_dir=tmp_path)
        assert resumed.resumed_regions == regions - 1
        assert pool_runs == []
        assert resumed.report.to_json() == serial.report.to_json()


class TestCacheCrashSafety:
    def test_torn_entry_is_repaired_and_counted(self, tmp_path):
        from repro.telemetry import Telemetry, use

        cold = rewrite_and_verify(_gcc(), RV64GC, oracle_trials=1,
                                  cache_dir=tmp_path)
        entry, = tmp_path.glob("shard-*/*.self")
        data = entry.read_bytes()
        entry.write_bytes(data[: len(data) // 2])
        telemetry = Telemetry()
        with use(telemetry):
            redo = rewrite_and_verify(_gcc(), RV64GC, oracle_trials=1,
                                      cache_dir=tmp_path)
        assert not redo.cache_hit
        assert telemetry.metrics.total("pipeline.cache_repairs") >= 1
        assert _section_bytes(redo.result) == _section_bytes(cold.result)
        # The repaired entry was republished and is hit-able again.
        assert rewrite_and_verify(_gcc(), RV64GC, oracle_trials=1,
                                  cache_dir=tmp_path).cache_hit

    def test_stale_orphan_temps_are_collected(self, tmp_path, monkeypatch):
        import os
        import time

        from repro.core import pipeline as pipeline_mod
        from repro.telemetry import Telemetry, use

        # One shard, so the orphans sit where the run's key lands.
        layout = pipeline_mod.CacheLayout.open(tmp_path, shards=1)
        shard = tmp_path / "shard-00"
        shard.mkdir()
        orphan = shard / ".deadbeef.self.tmp"
        orphan.write_bytes(b"half-written")
        os.utime(orphan, (time.time() - 7200, time.time() - 7200))
        fresh = shard / ".cafe.self.tmp"
        fresh.write_bytes(b"in-flight")
        telemetry = Telemetry()
        with use(telemetry):
            rewrite_and_verify(_gcc(), RV64GC, oracle_trials=1,
                               cache_dir=layout)
        assert not orphan.exists()
        assert fresh.exists()  # younger than the TTL: left alone
        assert telemetry.metrics.total("pipeline.cache_orphans_gc") == 1


class TestJournalResume:
    def test_interrupted_run_resumes_byte_identical(self, tmp_path):
        from repro.chaos import InjectedPipelineKill, PipelineFailureInjector

        baseline = rewrite_and_verify(_gcc(), RV64GC, oracle_trials=1)
        injector = PipelineFailureInjector(abort_after_regions=3)
        with pytest.raises(InjectedPipelineKill):
            rewrite_and_verify(_gcc(), RV64GC, oracle_trials=1,
                               cache_dir=tmp_path, failure_injector=injector)
        journals = list(tmp_path.glob("shard-*/journal/*.jsonl"))
        assert len(journals) == 1
        resumed = rewrite_and_verify(_gcc(), RV64GC, oracle_trials=1,
                                     cache_dir=tmp_path)
        assert resumed.resumed_regions == 3
        assert _section_bytes(resumed.result) == _section_bytes(baseline.result)
        assert resumed.report.as_dict() == baseline.report.as_dict()
        assert not journals[0].exists()  # completed runs delete the journal

    def test_no_resume_reverifies_from_scratch(self, tmp_path):
        from repro.chaos import InjectedPipelineKill, PipelineFailureInjector

        injector = PipelineFailureInjector(abort_after_regions=3)
        with pytest.raises(InjectedPipelineKill):
            rewrite_and_verify(_gcc(), RV64GC, oracle_trials=1,
                               cache_dir=tmp_path, failure_injector=injector)
        fresh = rewrite_and_verify(_gcc(), RV64GC, oracle_trials=1,
                                   cache_dir=tmp_path, resume=False)
        assert fresh.resumed_regions == 0
        baseline = rewrite_and_verify(_gcc(), RV64GC, oracle_trials=1)
        assert fresh.report.as_dict() == baseline.report.as_dict()


class TestReportRoundTrip:
    def test_verify_report_json_round_trip(self, tmp_path):
        report = rewrite_and_verify(_gcc(), RV64GC, oracle_trials=1).report
        path = tmp_path / "report.json"
        report.write_json(path)
        loaded = VerifyReport.load(path)
        assert loaded.as_dict() == report.as_dict()
        assert loaded.ok == report.ok
