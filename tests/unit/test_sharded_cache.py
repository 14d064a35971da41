"""Sharded rewrite cache: routing is a pure function of the release
key, shards are independent failure domains (a torn entry or LRU sweep
in one shard can never invalidate another), journals ride inside their
key's shard, and the size budget evicts oldest-last-used at publish."""

import os

import pytest

from repro.core.pipeline import (
    CacheLayout,
    CacheLayoutError,
    DEFAULT_CACHE_SHARDS,
    cache_gc,
    cache_stats,
    rewrite_and_verify,
)
from repro.isa.extensions import PROFILES
from repro.workloads.spec_profiles import PROFILES as WORKLOADS
from repro.workloads.synthetic import SyntheticBinary

RV64GC = PROFILES["rv64gc"]


def _gcc(scale=256):
    return SyntheticBinary(WORKLOADS["gcc_r"], scale=scale).build()


@pytest.fixture(autouse=True)
def _fixed_seed(monkeypatch):
    monkeypatch.setenv("REPRO_FUZZ_SEED", "20260806")


class TestCacheLayout:
    def test_routing_is_deterministic_and_in_range(self):
        layout = CacheLayout("/cache", shards=8)
        key = "f52a66d1" + "0" * 56
        assert layout.shard_index(key) == int("f52a66d1", 16) % 8
        assert CacheLayout("/other", shards=8).shard_index(key) == \
            layout.shard_index(key)
        for i in range(64):
            idx = layout.shard_index(f"{i:08x}" + "0" * 56)
            assert 0 <= idx < 8

    def test_every_shard_is_reachable(self):
        layout = CacheLayout("/cache", shards=4)
        seen = {layout.shard_index(f"{i:08x}" + "f" * 56) for i in range(256)}
        assert seen == {0, 1, 2, 3}

    def test_flat_layout_is_refused(self, tmp_path):
        with pytest.raises(ValueError):
            CacheLayout(tmp_path, shards=0)

    def test_sharded_dirs_and_names(self, tmp_path):
        layout = CacheLayout(tmp_path, shards=4)
        key = "00000005" + "0" * 56
        assert layout.shard_name(key) == "shard-01"
        assert layout.dir_for(key) == tmp_path / "shard-01"
        assert len(layout.dirs()) == 4

    def test_resolve_passthrough_and_none(self, tmp_path):
        layout = CacheLayout(tmp_path, shards=2)
        assert CacheLayout.resolve(None) is None
        assert CacheLayout.resolve(layout) is layout
        fresh = CacheLayout.resolve(str(tmp_path), 3, 10.0)
        assert fresh.shards == 3 and fresh.max_mb == 10.0

    def test_budget_splits_across_shards(self):
        assert CacheLayout("/c", shards=4,
                           max_mb=4.0).shard_budget_bytes == 1024 * 1024
        assert CacheLayout("/c", shards=1,
                           max_mb=1.0).shard_budget_bytes == 1024 * 1024
        assert CacheLayout("/c", shards=4).shard_budget_bytes is None

    def test_default_shard_count(self, tmp_path):
        assert DEFAULT_CACHE_SHARDS >= 2
        assert CacheLayout.open(tmp_path).shards == DEFAULT_CACHE_SHARDS


class TestLayoutRecord:
    def test_shard_count_is_recorded_at_creation(self, tmp_path):
        assert CacheLayout.open(tmp_path, 4).shards == 4
        # Later openers read the record; no flag needed.
        assert CacheLayout.open(tmp_path).shards == 4
        assert CacheLayout.open(tmp_path, create=False).shards == 4
        assert CacheLayout.resolve(str(tmp_path), None, 2.0) == \
            CacheLayout(tmp_path, 4, 2.0)

    def test_conflicting_shard_count_is_an_error(self, tmp_path):
        CacheLayout.open(tmp_path, 4)
        with pytest.raises(CacheLayoutError, match="created with 4 shards"):
            CacheLayout.open(tmp_path, 16)
        assert CacheLayout.open(tmp_path, 4).shards == 4

    def test_admin_open_never_creates(self, tmp_path):
        with pytest.raises(CacheLayoutError, match="not a rewrite cache"):
            CacheLayout.open(tmp_path / "missing", create=False)
        assert not (tmp_path / "missing").exists()

    def test_unreadable_record_is_an_error(self, tmp_path):
        (tmp_path / "layout.json").write_text("{torn")
        with pytest.raises(CacheLayoutError, match="unreadable"):
            CacheLayout.open(tmp_path)


class TestCacheCli:
    def _stats(self, capsys, root):
        import json

        from repro.cli import main

        capsys.readouterr()
        assert main(["cache", "stats", "--cache", str(root)]) == 0
        return json.loads(capsys.readouterr().out)

    def test_stats_reads_the_recorded_shard_count(self, tmp_path, capsys):
        from repro.cli import main

        root = tmp_path / "cache"
        assert main(["verify", "dot", "--oracle-trials", "1",
                     "--rewrite-cache", str(root), "--cache-shards", "4"]) == 0
        stats = self._stats(capsys, root)
        assert stats["shards"] == 4 and stats["entries"] == 1
        # A second verify without the flag is a warm hit in the same shard.
        assert main(["verify", "dot", "--oracle-trials", "1",
                     "--rewrite-cache", str(root)]) == 0
        assert "rewrite-cache hit" in capsys.readouterr().err
        assert self._stats(capsys, root)["entries"] == 1

    def test_conflicting_cache_shards_exits_cleanly(self, tmp_path):
        from repro.cli import main

        root = tmp_path / "cache"
        CacheLayout.open(root, 4)
        with pytest.raises(SystemExit, match="created with 4 shards"):
            main(["verify", "dot", "--oracle-trials", "1",
                  "--rewrite-cache", str(root), "--cache-shards", "16"])

    def test_cache_command_takes_no_shard_flag(self, tmp_path, capsys):
        from repro.cli import main

        CacheLayout.open(tmp_path, 2)
        with pytest.raises(SystemExit):
            main(["cache", "stats", "--cache", str(tmp_path),
                  "--cache-shards", "2"])
        with pytest.raises(SystemExit, match="not a rewrite cache"):
            main(["cache", "gc", "--cache", str(tmp_path / "missing")])


class TestShardedCacheRuns:
    def test_entry_lands_in_its_shard_and_warm_hits(self, tmp_path):
        layout = CacheLayout(tmp_path, shards=4)
        cold = rewrite_and_verify(_gcc(), RV64GC, oracle_trials=1,
                                  cache_dir=layout)
        assert not cold.cache_hit
        # Exactly one shard holds exactly one committed entry.
        per_shard = [s["entries"] for s in cache_stats(layout)["per_shard"]]
        assert sum(per_shard) == 1 and max(per_shard) == 1
        warm = rewrite_and_verify(_gcc(), RV64GC, oracle_trials=1,
                                  cache_dir=layout)
        assert warm.cache_hit
        assert cold.report.as_dict() == warm.report.as_dict()

    def test_same_key_same_shard_across_processesque_instances(self, tmp_path):
        # Two independently constructed layouts over the same root agree.
        a = CacheLayout(tmp_path, shards=8)
        b = CacheLayout(str(tmp_path), shards=8)
        rewrite_and_verify(_gcc(), RV64GC, oracle_trials=1, cache_dir=a)
        assert rewrite_and_verify(_gcc(), RV64GC, oracle_trials=1,
                                  cache_dir=b).cache_hit

    def test_torn_entry_in_one_shard_spares_the_others(self, tmp_path):
        layout = CacheLayout(tmp_path, shards=4)
        rewrite_and_verify(_gcc(), RV64GC, oracle_trials=1, cache_dir=layout)
        metas = list(tmp_path.glob("shard-*/*.meta.json"))
        assert len(metas) == 1
        victim_shard = metas[0].parent
        # Tear an unrelated shard: plant a corrupt partial entry there.
        other = next(d for d in layout.dirs() if d != victim_shard)
        other.mkdir(exist_ok=True)
        (other / ("ab" * 32 + ".meta.json")).write_text("{corrupt")
        # The real key's shard is untouched: still a warm hit.
        assert rewrite_and_verify(_gcc(), RV64GC, oracle_trials=1,
                                  cache_dir=layout).cache_hit

    def test_torn_own_entry_is_a_miss_not_an_error(self, tmp_path):
        layout = CacheLayout(tmp_path, shards=4)
        rewrite_and_verify(_gcc(), RV64GC, oracle_trials=1, cache_dir=layout)
        meta = next(tmp_path.glob("shard-*/*.meta.json"))
        meta.write_text("{torn")
        redo = rewrite_and_verify(_gcc(), RV64GC, oracle_trials=1,
                                  cache_dir=layout)
        assert not redo.cache_hit
        assert rewrite_and_verify(_gcc(), RV64GC, oracle_trials=1,
                                  cache_dir=layout).cache_hit


class TestLruEviction:
    def test_publish_evicts_oldest_beyond_budget(self, tmp_path):
        from repro.telemetry import Telemetry, use

        # One shard so both keys share a budget; a tiny budget means
        # publishing the second entry must evict the first.
        layout = CacheLayout(tmp_path, shards=1, max_mb=0.001)
        telemetry = Telemetry()
        with use(telemetry):
            rewrite_and_verify(_gcc(scale=256), RV64GC, oracle_trials=1,
                               cache_dir=layout)
            second = rewrite_and_verify(_gcc(scale=512), RV64GC,
                                        oracle_trials=1, cache_dir=layout)
        assert not second.cache_hit
        stats = cache_stats(layout)
        assert stats["entries"] == 1  # the first entry was evicted
        assert telemetry.metrics.total("pipeline.cache_evictions") >= 1
        # The survivor is the just-published (protected) entry.
        assert rewrite_and_verify(_gcc(scale=512), RV64GC, oracle_trials=1,
                                  cache_dir=layout).cache_hit

    def test_generous_budget_evicts_nothing(self, tmp_path):
        layout = CacheLayout(tmp_path, shards=1, max_mb=100.0)
        rewrite_and_verify(_gcc(scale=256), RV64GC, oracle_trials=1,
                           cache_dir=layout)
        rewrite_and_verify(_gcc(scale=512), RV64GC, oracle_trials=1,
                           cache_dir=layout)
        assert cache_stats(layout)["entries"] == 2
        assert rewrite_and_verify(_gcc(scale=256), RV64GC, oracle_trials=1,
                                  cache_dir=layout).cache_hit

    def test_gc_command_enforces_budget_offline(self, tmp_path):
        fat = CacheLayout(tmp_path, shards=1)
        rewrite_and_verify(_gcc(scale=256), RV64GC, oracle_trials=1,
                           cache_dir=fat)
        rewrite_and_verify(_gcc(scale=512), RV64GC, oracle_trials=1,
                           cache_dir=fat)
        capped = CacheLayout(tmp_path, shards=1, max_mb=0.001)
        swept = cache_gc(capped)
        assert swept["evicted"] >= 1
        assert cache_stats(capped)["entries"] <= 1


class TestJournalOrphanGC:
    def test_stale_journal_is_swept_with_telemetry(self, tmp_path):
        from repro.telemetry import Telemetry, use

        layout = CacheLayout(tmp_path, shards=1)
        journal_dir = tmp_path / "shard-00" / "journal"
        journal_dir.mkdir(parents=True)
        stale = journal_dir / ("de" * 32 + ".jsonl")
        stale.write_text('{"kind": "abandoned"}\n')
        os.utime(stale, (1.0, 1.0))  # ancient: well past the TTL
        fresh = journal_dir / ("ad" * 32 + ".jsonl")
        fresh.write_text('{"kind": "live"}\n')
        telemetry = Telemetry()
        with use(telemetry):
            swept = cache_gc(layout)
        assert swept["journals"] == 1
        assert not stale.exists() and fresh.exists()
        assert telemetry.metrics.total("pipeline.journal_orphans_gc") == 1

    def test_pipeline_run_sweeps_its_own_shard(self, tmp_path):
        layout = CacheLayout(tmp_path, shards=1)
        journal_dir = tmp_path / "shard-00" / "journal"
        journal_dir.mkdir(parents=True)
        stale = journal_dir / ("de" * 32 + ".jsonl")
        stale.write_text("junk\n")
        os.utime(stale, (1.0, 1.0))
        rewrite_and_verify(_gcc(), RV64GC, oracle_trials=1, cache_dir=layout)
        assert not stale.exists()

    def test_stats_counts_journals_and_temps(self, tmp_path):
        layout = CacheLayout(tmp_path, shards=2)
        shard = tmp_path / "shard-01"
        (shard / "journal").mkdir(parents=True)
        (shard / "journal" / ("aa" * 32 + ".jsonl")).write_text("x\n")
        (shard / (".hidden.self.tmp")).write_text("partial")
        stats = cache_stats(layout)
        assert stats["journals"] == 1 and stats["temps"] == 1
        by_dir = {s["dir"]: s for s in stats["per_shard"]}
        assert by_dir[str(shard)]["journals"] == 1
