"""Fault-isolated verified-rewrite pipeline with a crash-safe cache.

``rewrite_and_verify`` is the one-stop producer of a *released* binary:
it translates (``ChimeraRewriter``), then admits every patched region
through the static gate and seeded differential oracle
(:mod:`repro.verify.admission`).  When at least two regions can run at
once (``min(jobs, regions left to verify) > 1``) the per-region work
fans out across a **fault-isolated process pool** by default
(:mod:`repro.core.procpool`); otherwise it verifies in-line, because a
pool of one worker has no parallelism to pay for its fork.  In the
pool, a worker that crashes or hangs is killed, attributed to its
exact region as a structured
:class:`~repro.resilience.failures.RegionFault`, and the region is
re-dispatched under :data:`~repro.resilience.policy.PIPELINE_RETRY_POLICY`.
A region that exhausts its retries is quarantined and **degraded** —
re-admitted on the verified trap-fallback encoding
(:mod:`repro.verify.degrade`), or excluded when that fails — so a
release always completes with a machine-readable account of what was
verified, degraded, or refused.  ``--executor serial`` verifies in-line.
Results are deterministic for any executor and job count: each oracle
trial's RNG is derived from ``(seed, region, trial)`` alone and verdicts
are merged in record order, so the rewritten bytes and the
:class:`~repro.verify.report.VerifyReport` ledger are byte-identical
whether the pipeline ran serial, process-parallel, resumed, or from
cache — on fault-free inputs.

The cache is content-addressed: the key hashes the *input* binary's
sections, the rewriter configuration, and the gate configuration
(including the resolved seed).  Entries are crash-safe against
concurrent multi-process writers: each is published as ``<key>.self`` +
``<key>.report.json`` + a final ``<key>.meta.json`` carrying both
checksums (temp-file writes, atomic renames, the meta rename is the
commit point).  A torn, truncated, or checksum-mismatching entry is a
**miss-and-repair**: every on-disk piece is deleted (counter
``pipeline.cache_repairs``) and the release is rebuilt.  Temp files
orphaned by a crashed writer are garbage-collected after
:data:`_ORPHAN_TTL` seconds.

A resumable run journal (``<cache>/journal/<key>.jsonl``) records each
settled region verdict as it lands; a killed ``python -m repro verify``
rerun with the same inputs resumes from the completed regions instead
of restarting (torn tail lines are detected by checksum and dropped).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.core.rewriter import ChimeraRewriter, RewriteResult
from repro.elf.binary import Binary
from repro.elf.fileformat import FileFormatError, load_binary_file, save_binary
from repro.isa.extensions import IsaProfile
from repro.resilience.failures import (
    RESOLVED_DEGRADED,
    RESOLVED_EXCLUDED,
    RESOLVED_QUARANTINED,
    DeadlineExceededError,
)
from repro.resilience.policy import RetryPolicy
from repro.resilience.seeds import resolve_seed
from repro.telemetry import current as telemetry_current
from repro.verify.report import RegionVerdict, VerifyReport

#: Bump whenever the rewrite or verification output format changes in a
#: way the key ingredients do not capture.  v2: three-file entries with
#: a checksummed meta commit record.
_CACHE_SCHEMA = "chimera-rewrite-cache/v2"

#: Temp files older than this (seconds) are crash orphans: their writer
#: died between write and rename.  Collected opportunistically.  The
#: same TTL covers journals orphaned by a crashed driver: within the
#: TTL they are resume candidates, past it they are garbage.
_ORPHAN_TTL = 3600.0

#: Default wall-clock watchdog per region for the process executor.
DEFAULT_REGION_TIMEOUT = 60.0

#: Shard fan-out of a new rewrite cache (``--cache-shards`` overrides it
#: when the cache is created; an existing cache keeps its recorded count).
DEFAULT_CACHE_SHARDS = 16

#: File in the cache root recording the shard count the cache was
#: created with.
_LAYOUT_RECORD = "layout.json"
_LAYOUT_SCHEMA = "repro.cache/layout/v1"


class CacheLayoutError(ValueError):
    """A cache root whose recorded layout cannot serve this opener: no
    record where one is required, an unreadable record, or a shard count
    that conflicts with the one the cache was created with."""


@dataclass(frozen=True)
class CacheLayout:
    """Where one release key lives inside the sharded rewrite cache.

    The cache splits into ``root/shard-XX`` directories keyed by the
    release-key prefix, so concurrent service workers publishing
    different releases never contend on one directory's rename stream
    — and a torn entry, a crashed writer, or an LRU sweep in one shard
    can never touch another.  Each shard carries its own ``journal/``
    subdirectory and is orphan-GC'd independently.  :meth:`open` records
    the shard count in the root, so every opener routes keys alike.

    ``max_mb`` arms LRU eviction at publish time: the budget is split
    evenly across shards and the oldest-atime entries are evicted
    until the shard fits.
    """

    root: Path
    shards: int = DEFAULT_CACHE_SHARDS
    max_mb: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "root", Path(self.root))
        if self.shards < 1:
            raise ValueError("shards must be >= 1")

    @classmethod
    def open(cls, root, shards: Optional[int] = None,
             max_mb: Optional[float] = None, *,
             create: bool = True) -> "CacheLayout":
        """The cache at *root*, routed by its recorded shard count.

        A root without a record is created with *shards* (default
        :data:`DEFAULT_CACHE_SHARDS`) when *create* is set.  An explicit
        *shards* that differs from the record raises
        :class:`CacheLayoutError` rather than re-routing keys.
        """
        if shards is not None and shards < 1:
            raise CacheLayoutError(f"a cache needs >= 1 shard, not {shards}")
        root = Path(root)
        record = root / _LAYOUT_RECORD
        if not record.exists():
            if not create:
                raise CacheLayoutError(
                    f"{root} is not a rewrite cache (no {_LAYOUT_RECORD})")
            root.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=root)
            with os.fdopen(fd, "w") as fh:
                json.dump({"schema": _LAYOUT_SCHEMA,
                           "shards": shards or DEFAULT_CACHE_SHARDS}, fh)
            try:
                os.link(tmp, record)  # exclusive: the first creator wins
            except FileExistsError:
                pass
            finally:
                os.unlink(tmp)
        try:
            data = json.loads(record.read_text())
            recorded = int(data["shards"])
            if data["schema"] != _LAYOUT_SCHEMA or recorded < 1:
                raise ValueError(data)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise CacheLayoutError(
                f"unreadable cache layout record {record}: {exc}") from None
        if shards is not None and shards != recorded:
            raise CacheLayoutError(
                f"{root} was created with {recorded} shards; opening it "
                f"with {shards} would re-route its keys")
        return cls(root, recorded, max_mb)

    @classmethod
    def resolve(cls, cache_dir, shards: Optional[int] = None,
                max_mb: Optional[float] = None) -> Optional["CacheLayout"]:
        if cache_dir is None or isinstance(cache_dir, CacheLayout):
            return cache_dir
        return cls.open(cache_dir, shards, max_mb)

    def shard_index(self, key: str) -> int:
        """Shard for *key* — a pure function of the release-key prefix,
        so every worker, client, and admin command agrees forever."""
        return int(key[:8], 16) % self.shards

    def shard_name(self, key: str) -> str:
        return f"shard-{self.shard_index(key):02d}"

    def dir_for(self, key: str) -> Path:
        return self.root / self.shard_name(key)

    def dirs(self) -> list[Path]:
        return [self.root / f"shard-{i:02d}" for i in range(self.shards)]

    @property
    def shard_budget_bytes(self) -> Optional[int]:
        if self.max_mb is None:
            return None
        return int(self.max_mb * 1024 * 1024) // self.shards


@dataclass
class PipelineResult:
    """Everything ``rewrite_and_verify`` produced for one binary."""

    result: RewriteResult
    report: VerifyReport
    cache_hit: bool = False
    #: Wall-clock seconds; zero for the skipped halves of a cache hit.
    rewrite_seconds: float = 0.0
    verify_seconds: float = 0.0
    #: Regions preloaded from the run journal of an interrupted run.
    resumed_regions: int = 0

    @property
    def binary(self) -> Binary:
        return self.result.binary

    @property
    def ok(self) -> bool:
        return self.report.ok

    @property
    def releasable(self) -> bool:
        return getattr(self.report, "releasable", self.report.ok)


def _rewriter_config(rewriter: ChimeraRewriter) -> dict:
    arch = rewriter.arch
    return {
        "mode": rewriter.mode,
        "batch_blocks": rewriter.batch_blocks,
        "shift_exits": rewriter.shift_exits,
        "enable_upgrades": rewriter.enable_upgrades,
        "scan_address_taken": rewriter.scan_address_taken,
        "smile_register": rewriter.smile_register,
        "use_smile": rewriter.use_smile,
        "arch": {k: v for k, v in vars(arch).items()},
    }


def cache_key(
    binary: Binary,
    target_profile: IsaProfile,
    rewriter: ChimeraRewriter,
    gate_config: dict,
) -> str:
    """Content hash of everything that determines the pipeline output."""
    h = hashlib.sha256()
    h.update(_CACHE_SCHEMA.encode())
    h.update(json.dumps({
        "entry": binary.entry,
        "gp": binary.global_pointer,
        "target": target_profile.name,
        "rewriter": _rewriter_config(rewriter),
        "gate": gate_config,
    }, sort_keys=True).encode())
    for section in sorted(binary.sections, key=lambda s: (s.name, s.addr)):
        h.update(f"\x00{section.name}\x00{section.addr}"
                 f"\x00{section.perm.value}\x00".encode())
        h.update(bytes(section.data))
    return h.hexdigest()


# -- crash-safe cache entries ------------------------------------------------


def _entry_paths(cache_dir: Path, key: str) -> tuple[Path, Path, Path]:
    return (cache_dir / f"{key}.self",
            cache_dir / f"{key}.report.json",
            cache_dir / f"{key}.meta.json")


def _repair_entry(cache_dir: Path, key: str, *, reason: str) -> None:
    """Delete every on-disk piece of a torn entry so it can never be
    re-read and re-rejected on a later run (miss-and-repair)."""
    removed = False
    for path in _entry_paths(cache_dir, key):
        try:
            path.unlink()
            removed = True
        except FileNotFoundError:
            pass
        except OSError:
            pass
    if removed:
        telemetry = telemetry_current()
        if telemetry.enabled:
            telemetry.metrics.inc("pipeline.cache_repairs", reason=reason)


def _load_cached(
    cache_dir: Path, key: str, target_profile: IsaProfile
) -> Optional[tuple[RewriteResult, VerifyReport]]:
    binary_path, report_path, meta_path = _entry_paths(cache_dir, key)
    present = [p for p in (binary_path, report_path, meta_path) if p.is_file()]
    if not present:
        return None  # clean miss
    if len(present) < 3:
        # Partial entry: the writer crashed between renames.
        _repair_entry(cache_dir, key, reason="partial")
        return None
    try:
        entry_meta = json.loads(meta_path.read_text())
        valid = (
            entry_meta.get("schema") == _CACHE_SCHEMA
            and hashlib.sha256(binary_path.read_bytes()).hexdigest()
            == entry_meta.get("self_sha256")
            and hashlib.sha256(report_path.read_bytes()).hexdigest()
            == entry_meta.get("report_sha256")
        )
    except (OSError, ValueError):
        valid = False
    if not valid:
        _repair_entry(cache_dir, key, reason="checksum")
        return None
    try:
        binary = load_binary_file(binary_path)
        report = VerifyReport.load(report_path)
    except (FileFormatError, OSError, KeyError, ValueError):
        _repair_entry(cache_dir, key, reason="decode")
        return None
    meta = binary.metadata.get("chimera")
    if meta is None or meta.get("patch_records") is None:
        _repair_entry(cache_dir, key, reason="pre-record")
        return None  # pre-record cache entry: not enough to re-release
    result = RewriteResult(binary, target_profile, meta.get("stats"))
    return result, report


def _store_cached(cache_dir: Path, key: str, result: RewriteResult,
                  report: VerifyReport) -> None:
    cache_dir.mkdir(parents=True, exist_ok=True)
    # Write via pid-unique temp names then rename: concurrent writers
    # never clobber each other's temps and a reader never sees a
    # half-written entry (rename is atomic within the directory).  The
    # meta record — carrying both checksums — is renamed last, making it
    # the commit point: without it the entry is partial and repaired.
    pid = os.getpid()
    binary_tmp = cache_dir / f".{key}.self.{pid}.tmp"
    report_tmp = cache_dir / f".{key}.report.json.{pid}.tmp"
    meta_tmp = cache_dir / f".{key}.meta.json.{pid}.tmp"
    binary_path, report_path, meta_path = _entry_paths(cache_dir, key)
    save_binary(result.binary, binary_tmp)
    report.write_json(report_tmp)
    meta_tmp.write_text(json.dumps({
        "schema": _CACHE_SCHEMA,
        "key": key,
        "self_sha256": hashlib.sha256(binary_tmp.read_bytes()).hexdigest(),
        "report_sha256": hashlib.sha256(report_tmp.read_bytes()).hexdigest(),
    }, sort_keys=True) + "\n")
    os.replace(binary_tmp, binary_path)
    os.replace(report_tmp, report_path)
    os.replace(meta_tmp, meta_path)


def _gc_orphans(cache_dir: Path, *, ttl: float = _ORPHAN_TTL,
                now: Optional[float] = None) -> dict[str, int]:
    """Collect crash debris in one cache (shard) directory.

    Two kinds of orphan, one TTL: temp files whose writer died between
    write and rename, and run journals whose *driver* died and never
    came back to resume (a completed run deletes its journal; a live
    resumable one keeps a fresh mtime because every settled region
    appends a line).  Returns ``{"temps": n, "journals": m}``.
    """
    swept = {"temps": 0, "journals": 0}
    if not cache_dir.is_dir():
        return swept
    telemetry = telemetry_current()
    now = time.time() if now is None else now
    for tmp in cache_dir.glob(".*.tmp"):
        try:
            if now - tmp.stat().st_mtime <= ttl:
                continue
            tmp.unlink()
        except OSError:
            continue
        swept["temps"] += 1
        if telemetry.enabled:
            telemetry.metrics.inc("pipeline.cache_orphans_gc")
    journal_dir = cache_dir / "journal"
    if journal_dir.is_dir():
        for journal in journal_dir.glob("*.jsonl"):
            try:
                if now - journal.stat().st_mtime <= ttl:
                    continue
                journal.unlink()
            except OSError:
                continue
            swept["journals"] += 1
            if telemetry.enabled:
                telemetry.metrics.inc("pipeline.journal_orphans_gc")
    return swept


def _cache_entries(cache_dir: Path) -> list[tuple[str, int, float]]:
    """Committed entries in one shard: (key, bytes, last-use stamp).

    The stamp is the newest atime/mtime across the entry's three files
    — on ``noatime`` mounts mtime still ranks entries by publish order.
    """
    entries = []
    for meta_path in cache_dir.glob("*.meta.json"):
        key = meta_path.name[: -len(".meta.json")]
        size = 0
        stamp = 0.0
        for path in _entry_paths(cache_dir, key):
            try:
                st = path.stat()
            except OSError:
                continue
            size += st.st_size
            stamp = max(stamp, st.st_atime, st.st_mtime)
        entries.append((key, size, stamp))
    return entries


def _evict_lru(cache_dir: Path, budget_bytes: int,
               protect_key: Optional[str] = None) -> int:
    """Evict oldest-last-used entries until the shard fits the budget.

    Runs at publish time (and from ``repro cache gc``), never evicts
    the entry just published, and removes whole entries atomically-ish
    (meta first, so a concurrent reader sees a partial entry and treats
    it as a miss — exactly the torn-entry path it already survives).
    """
    entries = _cache_entries(cache_dir)
    total = sum(size for _, size, _ in entries)
    if total <= budget_bytes:
        return 0
    telemetry = telemetry_current()
    evicted = 0
    for key, size, _ in sorted(entries, key=lambda e: e[2]):
        if total <= budget_bytes:
            break
        if key == protect_key:
            continue
        binary_path, report_path, meta_path = _entry_paths(cache_dir, key)
        for path in (meta_path, binary_path, report_path):
            try:
                path.unlink()
            except OSError:
                pass
        total -= size
        evicted += 1
        if telemetry.enabled:
            telemetry.metrics.inc("pipeline.cache_evictions")
    return evicted


# -- cache administration (``repro cache stats|gc``) -------------------------


def cache_stats(layout: CacheLayout) -> dict:
    """Machine-readable census of a (sharded) rewrite cache."""
    shards = []
    for shard_dir in layout.dirs():
        entries = _cache_entries(shard_dir) if shard_dir.is_dir() else []
        journal_dir = shard_dir / "journal"
        journals = (len(list(journal_dir.glob("*.jsonl")))
                    if journal_dir.is_dir() else 0)
        temps = (len(list(shard_dir.glob(".*.tmp")))
                 if shard_dir.is_dir() else 0)
        shards.append({
            "dir": str(shard_dir),
            "entries": len(entries),
            "bytes": sum(size for _, size, _ in entries),
            "journals": journals,
            "temps": temps,
        })
    return {
        "schema": "repro.cache/stats/v1",
        "root": str(layout.root),
        "shards": layout.shards,
        "max_mb": layout.max_mb,
        "entries": sum(s["entries"] for s in shards),
        "bytes": sum(s["bytes"] for s in shards),
        "journals": sum(s["journals"] for s in shards),
        "temps": sum(s["temps"] for s in shards),
        "per_shard": shards,
    }


def cache_gc(layout: CacheLayout, *, ttl: float = _ORPHAN_TTL,
             now: Optional[float] = None) -> dict:
    """Sweep every shard: orphaned temps, orphaned journals, and (when
    the layout carries a budget) LRU eviction down to it."""
    swept = {"temps": 0, "journals": 0, "evicted": 0}
    budget = layout.shard_budget_bytes
    for shard_dir in layout.dirs():
        if not shard_dir.is_dir():
            continue
        shard_swept = _gc_orphans(shard_dir, ttl=ttl, now=now)
        swept["temps"] += shard_swept["temps"]
        swept["journals"] += shard_swept["journals"]
        if budget is not None:
            swept["evicted"] += _evict_lru(shard_dir, budget)
    return swept


# -- resumable run journal ---------------------------------------------------


class RunJournal:
    """Append-only ledger of settled region verdicts for one release key.

    One JSON line per record, each carrying a CRC of its own payload:
    a process killed mid-write leaves a torn tail line that fails the
    CRC (or does not parse) and is simply dropped — every line before it
    resumes.  The journal is deleted when the run completes.
    """

    def __init__(self, cache_dir: Path, key: str, *, regions: int, seed: int):
        self.path = cache_dir / "journal" / f"{key}.jsonl"
        self.key = key
        self.regions = regions
        self.seed = seed
        self.records_written = 0
        self._fh = None

    def load(self) -> dict[int, tuple[dict, bool]]:
        """Validated (index -> (verdict dict, oracle_ran)) entries from a
        previous interrupted run; empty when absent or unusable."""
        try:
            lines = self.path.read_text().splitlines()
        except OSError:
            return {}
        if not lines:
            return {}
        try:
            header = json.loads(lines[0])
        except ValueError:
            return {}
        if (header.get("t") != "h" or header.get("schema") != _CACHE_SCHEMA
                or header.get("key") != self.key
                or header.get("regions") != self.regions
                or header.get("seed") != self.seed):
            return {}
        entries: dict[int, tuple[dict, bool]] = {}
        for line in lines[1:]:
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                break  # torn tail: the writer died mid-line
            if record.get("t") != "r":
                break
            payload = {"i": record.get("i"), "o": record.get("o"),
                       "v": record.get("v")}
            crc = zlib.crc32(json.dumps(payload, sort_keys=True).encode())
            if record.get("c") != crc:
                break  # torn tail: payload does not match its checksum
            entries[payload["i"]] = (payload["v"], payload["o"])
        return entries

    def start(self, resumed: int) -> None:
        """Open for appending.  A fresh run (or an unusable journal)
        truncates and rewrites the header; a resumed run appends."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        mode = "a" if resumed else "w"
        self._fh = open(self.path, mode)
        if not resumed:
            header = {"t": "h", "schema": _CACHE_SCHEMA, "key": self.key,
                      "regions": self.regions, "seed": self.seed}
            self._fh.write(json.dumps(header, sort_keys=True) + "\n")
            self._fh.flush()
            os.fsync(self._fh.fileno())
        self.records_written = resumed

    def record(self, idx: int, verdict: dict, oracle_ran: bool) -> None:
        if self._fh is None:
            return
        payload = {"i": idx, "o": oracle_ran, "v": verdict}
        crc = zlib.crc32(json.dumps(payload, sort_keys=True).encode())
        line = json.dumps({"t": "r", "c": crc, **payload}, sort_keys=True)
        self._fh.write(line + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self.records_written += 1

    def complete(self) -> None:
        """The run finished: the journal has nothing left to resume."""
        self.close()
        try:
            self.path.unlink()
        except OSError:
            pass

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


# -- quarantine-and-degrade --------------------------------------------------


def _degrade_quarantined(
    original: Binary,
    result: RewriteResult,
    report: VerifyReport,
    gate_config: dict,
    liveness,
    telemetry,
) -> None:
    """Re-admit quarantined regions on the trap fallback (or exclude).

    Each quarantined smile/smile-dp region is statically rolled back to
    original bytes + trap-trampoline sources, then its replacement
    records go through a fresh, injector-free serial admission gate.
    Success flips the region's faults to ``degraded-trap`` and appends
    the new verdicts to the ledger; anything else is ``excluded``.
    """
    from repro.verify.degrade import DegradeError, degrade_region_to_trap

    faults = getattr(report, "faults", None) or []
    quarantined = [f for f in faults if f.resolution == RESOLVED_QUARANTINED]
    if not quarantined:
        return
    starts = sorted({f.start for f in quarantined})
    with telemetry.span("pipeline.degrade", binary=result.binary.name,
                        regions=len(starts)):
        for start in starts:
            region_faults = [f for f in quarantined if f.start == start]
            meta = result.binary.metadata.get("chimera") or {}
            rec = next((r for r in meta.get("patch_records", ())
                        if r.start == start), None)
            if rec is None or rec.kind == "trap":
                for fault in region_faults:
                    fault.resolution = RESOLVED_EXCLUDED
                continue
            try:
                new_records = degrade_region_to_trap(result.binary, rec)
            except DegradeError:
                for fault in region_faults:
                    fault.resolution = RESOLVED_EXCLUDED
                continue
            verdicts, admitted = _verify_degraded(
                original, result, new_records, gate_config, liveness)
            report.regions.extend(verdicts)
            resolution = RESOLVED_DEGRADED if admitted else RESOLVED_EXCLUDED
            for fault in region_faults:
                fault.resolution = resolution
            if telemetry.enabled:
                telemetry.metrics.inc(
                    "pipeline.regions_degraded",
                    outcome="degraded-trap" if admitted else "excluded")


def _verify_degraded(original, result, new_records, gate_config, liveness):
    """Gate the replacement trap records; (verdicts, all_admitted)."""
    from repro.verify.admission import AdmissionGate

    if not new_records:
        return [], True  # restore-only degrade: nothing left to verify
    gate = AdmissionGate(
        original, result.binary,
        seed=gate_config["seed"],
        oracle_trials=gate_config["oracle_trials"],
        oracle_max_steps=gate_config["oracle_max_steps"],
        max_oracle_regions=0,
        jobs=1, executor="serial", liveness=liveness)
    wanted = {rec.start for rec in new_records}
    verdicts = []
    for idx, rec in enumerate(gate.records):
        if rec.start in wanted:
            verdict, _ = gate.verify_region_once(idx)
            verdicts.append(verdict)
    return verdicts, all(v.admitted for v in verdicts)


# -- the pipeline ------------------------------------------------------------


def rewrite_and_verify(
    binary: Binary,
    target_profile: IsaProfile,
    *,
    rewriter: Optional[ChimeraRewriter] = None,
    seed: Optional[int] = None,
    oracle_trials: int = 2,
    oracle_max_steps: int = 512,
    max_oracle_regions: int = 0,
    jobs: int = 1,
    cache_dir: Optional[Union[str, Path, CacheLayout]] = None,
    cache_shards: Optional[int] = None,
    cache_max_mb: Optional[float] = None,
    executor: Optional[str] = None,
    region_timeout: Optional[float] = DEFAULT_REGION_TIMEOUT,
    resume: bool = True,
    retry_policy: Optional[RetryPolicy] = None,
    failure_injector=None,
    slots=None,
    job_id=None,
    on_progress=None,
    deadline: Optional[float] = None,
) -> PipelineResult:
    """Translate *binary* for *target_profile* and admission-verify it.

    ``executor`` is "serial" or "process"; None decides after the
    rewrite: "process" (fault isolation plus real parallelism for the
    pure-Python oracle) when ``min(jobs, regions left to verify) > 1``,
    and "serial" otherwise — a pool of one worker has no parallelism to
    pay for its fork.  An explicit ``executor`` is always honoured.  A
    region that exhausts its retry budget is re-admitted on the verified
    trap-fallback encoding, or excluded (the fault recorded in the
    ledger) when that fails.

    ``cache_dir`` may be a cache root (opened with
    :meth:`CacheLayout.open`: ``cache_shards`` picks the shard count of a
    new cache, ``cache_max_mb`` caps its size) or a ready-made
    :class:`CacheLayout`.  ``slots`` is an optional
    :class:`~repro.core.procpool.WorkerSlotArbiter` the batch service
    shares across concurrent jobs; ``on_progress(stage, **info)`` (when
    given) fires at each pipeline stage boundary and per settled region
    — the service streams these to its clients.

    ``deadline`` is an absolute ``time.monotonic()`` instant: once it
    passes, the run dies with a structured
    :class:`~repro.resilience.failures.DeadlineExceededError` from
    whatever layer notices first (here before the rewrite, the
    admission gate between regions, the process pool between
    dispatches).  The run journal written so far is kept, so a later
    retry of the same key resumes instead of restarting.
    """
    if deadline is not None and time.monotonic() > deadline:
        raise DeadlineExceededError(
            f"job deadline expired before rewrite of {binary.name}")
    rewriter = rewriter or ChimeraRewriter()
    seed = resolve_seed(seed)
    telemetry = telemetry_current()
    gate_config = {
        "seed": seed,
        "oracle_trials": oracle_trials,
        "oracle_max_steps": oracle_max_steps,
        "max_oracle_regions": max_oracle_regions,
    }

    layout = CacheLayout.resolve(cache_dir, cache_shards, cache_max_mb)
    cache_path = None
    key = None
    if layout is not None:
        key = cache_key(binary, target_profile, rewriter, gate_config)
        cache_path = layout.dir_for(key)
        _gc_orphans(cache_path)
        cached = _load_cached(cache_path, key, target_profile)
        if cached is not None:
            if telemetry.enabled:
                telemetry.metrics.inc("pipeline.rewrite_cache_hits",
                                      binary=binary.name,
                                      target=target_profile.name)
            result, report = cached
            if on_progress is not None:
                on_progress("cache-hit", key=key)
            return PipelineResult(result, report, cache_hit=True)
        if telemetry.enabled:
            telemetry.metrics.inc("pipeline.rewrite_cache_misses",
                                  binary=binary.name,
                                  target=target_profile.name)

    # Attribute access at call time so tests monkeypatching
    # ``repro.verify.verify_binary`` intercept the pipeline too.
    from repro import verify as verify_mod

    with telemetry.span("pipeline.rewrite_verify", binary=binary.name,
                        target=target_profile.name, jobs=jobs):
        if on_progress is not None:
            on_progress("rewrite", binary=binary.name)
        t0 = time.perf_counter()
        result = rewriter.rewrite(binary, target_profile)
        t1 = time.perf_counter()

        total_regions = len((result.binary.metadata.get("chimera") or {})
                            .get("patch_records") or ())
        journal = None
        precomputed = None
        resumed = 0
        if cache_path is not None and key is not None:
            journal = RunJournal(cache_path, key, regions=total_regions,
                                 seed=seed)
            if resume:
                loaded = journal.load()
                if loaded:
                    precomputed = {
                        idx: (RegionVerdict.from_dict(verdict), oracle_ran)
                        for idx, (verdict, oracle_ran) in loaded.items()}
                    resumed = len(precomputed)
                    if telemetry.enabled:
                        telemetry.metrics.inc("pipeline.journal_resumes",
                                              binary=binary.name)
                        telemetry.metrics.inc("pipeline.regions_resumed",
                                              resumed, binary=binary.name)
            journal.start(resumed)

        settled = resumed
        if executor is None:
            executor = ("process" if min(jobs, total_regions - resumed) > 1
                        else "serial")

        def on_region(idx: int, verdict: RegionVerdict,
                      oracle_ran: bool) -> None:
            nonlocal settled
            if journal is not None:
                journal.record(idx, verdict.as_dict(), oracle_ran)
            settled += 1
            if failure_injector is not None:
                failure_injector.on_journal_record(settled)
            if on_progress is not None:
                on_progress("region", settled=settled, regions=total_regions)

        if on_progress is not None:
            on_progress("verify", regions=total_regions, executor=executor)
        extra_verify = {}
        if slots is not None:
            extra_verify["slots"] = slots
            extra_verify["job_id"] = job_id if job_id is not None else key
        try:
            report = verify_mod.verify_binary(
                binary, result.binary, seed=seed,
                oracle_trials=oracle_trials,
                oracle_max_steps=oracle_max_steps,
                max_oracle_regions=max_oracle_regions, jobs=jobs,
                liveness=result.liveness,
                executor=executor, region_timeout=region_timeout,
                retry_policy=retry_policy, injector=failure_injector,
                on_region=on_region, precomputed=precomputed,
                deadline=deadline,
                **extra_verify,
            )
        except BaseException:
            # Killed mid-run (or injected kill): the journal keeps every
            # settled region for the resuming rerun.
            if journal is not None:
                journal.close()
            raise
        t2 = time.perf_counter()

    if getattr(report, "faults", None):
        _degrade_quarantined(binary, result, report, gate_config,
                             result.liveness, telemetry)

    if journal is not None:
        journal.complete()
    if cache_path is not None and not getattr(report, "quarantined_starts",
                                              frozenset()):
        # Degraded or excluded releases are never cached: the cache key
        # promises the deterministic fault-free output for these inputs.
        _store_cached(cache_path, key, result, report)
        budget = layout.shard_budget_bytes
        if budget is not None:
            # Publish-time LRU sweep: the shard never outgrows its slice
            # of --cache-max-mb, and the entry just published survives.
            _evict_lru(cache_path, budget, protect_key=key)
    if on_progress is not None:
        on_progress("published", key=key, ok=report.ok)
    return PipelineResult(result, report, cache_hit=False,
                          rewrite_seconds=t1 - t0, verify_seconds=t2 - t1,
                          resumed_regions=resumed)


# -- job-shaped entry point (the serving surface) ----------------------------


@dataclass(frozen=True)
class RewriteJob:
    """One service-shaped unit of work: translate + verify one binary.

    This is the currency of ``python -m repro serve``: the server
    resolves each submit message into a :class:`RewriteJob`, computes
    its :func:`release_key` for dedup/sharding, and drives it through
    :func:`run_job` on a worker thread.  Everything that determines the
    released bytes lives in the job, so two jobs with equal keys are
    interchangeable by construction.
    """

    binary: Binary
    target: str = "rv64gc"
    seed: Optional[int] = None
    oracle_trials: int = 2
    oracle_max_steps: int = 512
    max_oracle_regions: int = 0
    jobs: int = 1
    executor: Optional[str] = None
    region_timeout: Optional[float] = DEFAULT_REGION_TIMEOUT
    #: Absolute ``time.monotonic()`` deadline for the whole run, or
    #: None.  Deliberately *not* part of the release key: a job's time
    #: budget never changes the bytes it would release.
    deadline: Optional[float] = None

    def profile(self) -> IsaProfile:
        from repro.isa.extensions import PROFILES

        try:
            return PROFILES[self.target]
        except KeyError:
            raise ValueError(
                f"unknown ISA profile {self.target!r}; "
                f"choose from {sorted(PROFILES)}") from None


def release_key(job: RewriteJob,
                rewriter: Optional[ChimeraRewriter] = None) -> str:
    """The content-addressed release key a job will publish under —
    exactly the :func:`cache_key` ``run_job`` resolves, computed ahead
    of time so the server can dedup and route before any work runs."""
    rewriter = rewriter or ChimeraRewriter()
    gate_config = {
        "seed": resolve_seed(job.seed),
        "oracle_trials": job.oracle_trials,
        "oracle_max_steps": job.oracle_max_steps,
        "max_oracle_regions": job.max_oracle_regions,
    }
    return cache_key(job.binary, job.profile(), rewriter, gate_config)


def run_job(
    job: RewriteJob,
    *,
    cache: Optional[Union[str, Path, CacheLayout]] = None,
    slots=None,
    job_id=None,
    on_progress=None,
    retry_policy: Optional[RetryPolicy] = None,
) -> PipelineResult:
    """Drive one :class:`RewriteJob` through the verified pipeline."""
    return rewrite_and_verify(
        job.binary, job.profile(),
        seed=job.seed,
        oracle_trials=job.oracle_trials,
        oracle_max_steps=job.oracle_max_steps,
        max_oracle_regions=job.max_oracle_regions,
        jobs=job.jobs,
        cache_dir=cache,
        executor=job.executor,
        region_timeout=job.region_timeout,
        retry_policy=retry_policy,
        slots=slots,
        job_id=job_id,
        on_progress=on_progress,
        deadline=job.deadline,
    )
