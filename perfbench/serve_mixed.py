"""``serve-mixed``: a ``python -m repro serve`` subprocess driven
closed-loop by up to two client connections from this process.

The server gets ``--jobs`` = CPU count and an empty cache in the work
directory.  Each client sends its next job only after the previous one
returned, as ``repro submit`` callers do.  One pass submits every
workload's release key four times in a row, the workloads in a seeded
order.  So one submission in four is a new key (a cold rewrite + verify
+ cache publish); one repeats it while it is in flight (coalesced) and
two once it is published (warm shard reads).  Each pass uses a fresh
oracle seed, so its keys are new.

One operation is one job, timed from send to its ``result`` event.  A
job fails on an ``error`` event or a broken connection.  It is a
*wrong* output when a warm or coalesced ledger differs from the cold
ledger of its key, or when a key was rewritten twice.  After every pass
the ``stats`` RPC must report exactly one rewrite per distinct key.
"""

from __future__ import annotations

import asyncio
import json
import os
import queue
import random
import shutil
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

from measure import Op, latency_metrics, median, percentile, \
    process_peak_rss_mb

HERE = Path(__file__).resolve().parent

#: The seven kernel workloads plus four small SPEC profiles.
WORKLOADS = ("fibonacci", "matmul", "gemv", "vecadd", "dot", "memcpy",
             "dispatch", "omnetpp_r", "perlbench_r", "imagick_r",
             "xalancbmk_s")
#: Submissions per release key in one pass: one cold, three repeats.
SUBMISSIONS_PER_KEY = 4
#: Closed-loop client connections (at most the CPU count).
CLIENTS = min(2, os.cpu_count() or 1)
#: ``repro submit`` defaults.
SPEC_DEFAULTS = {"op": "submit", "target": "rv64gc", "variant": "ext",
                 "scale": 128, "oracle_trials": 2}
START_TIMEOUT = 60.0
STOP_TIMEOUT = 60.0


def plan(seed: int, workloads=WORKLOADS) -> list[str]:
    """The submission order of one pass (workload names): the workloads
    in a seeded order, each submitted SUBMISSIONS_PER_KEY times in a row.

    With two clients the first two submissions of a key run together: a
    cold run and a follower coalesced onto it.  The next two are warm
    hits on the entry just published.  Two different cold runs never
    overlap, so a job's latency does not depend on which key the seed
    put next to it.
    """
    order = list(workloads)
    random.Random(seed).shuffle(order)
    return [w for w in order for _ in range(SUBMISSIONS_PER_KEY)]


class ServeMixed:
    name = "serve-mixed"
    #: The work runs in the server's processes: the span recorder must be
    #: installed there (``traced``), and times stay host seconds, since a
    #: speed-probe burst here would contend with that work, not track it.
    IN_PROCESS = False
    #: Per-layer metrics beyond the span-derived ones -> unit.
    LAYER_EXTRAS = {
        "service.accept_ms": "ms", "service.queue_ms": "ms",
        "service.rewrite_ms": "ms", "service.verify_ms": "ms",
        "service.reply_ms": "ms", "service.hit_ms": "ms",
        "service.rewrites": "count", "service.cache_hits": "count",
        "service.coalesced": "count",
    }

    def __init__(self, seed: int, workdir: Path, *, workloads=WORKLOADS,
                 traced: bool = False):
        self.seed = seed
        self.workdir = Path(workdir)
        self.workloads = tuple(workloads)
        self.traced = traced
        self.plan = plan(seed, self.workloads)
        self.server = None
        self.address = None
        self.server_rss_mb = 0.0
        self.server_spans = None
        self._starts = 0
        #: Every finished job record, all passes.
        self.jobs: list[dict] = []
        self.pass_seconds: list[float] = []
        self.distinct_keys: set[str] = set()
        self.stats: dict = {}

    # -- server lifecycle -------------------------------------------------------

    def setup(self) -> None:
        """Start a server on an empty cache."""
        self._starts += 1
        cache = self.workdir / f"cache-{self._starts}"
        cache.mkdir(parents=True)
        args = ["serve", "--cache", str(cache), "--port", "0",
                "--jobs", str(os.cpu_count() or 1)]
        if self.traced:
            self._spans_path = self.workdir / f"server-spans-{self._starts}.json"
            cmd = [sys.executable, str(HERE / "serve_boot.py"),
                   str(self._spans_path), *args]
        else:
            cmd = [sys.executable, "-m", "repro", *args]
        src = str(HERE.parent / "src")
        env = dict(os.environ, TMPDIR=str(self.workdir),
                   PYTHONPATH=os.pathsep.join(
                       p for p in (src, os.environ.get("PYTHONPATH")) if p))
        self.server = subprocess.Popen(
            cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, env=env, cwd=str(HERE.parent))
        self._stderr = queue.Queue()
        threading.Thread(target=_drain, args=(self.server.stderr, self._stderr),
                         daemon=True).start()
        self.address = self._await_address()

    def _await_address(self) -> str:
        deadline = time.monotonic() + START_TIMEOUT
        lines = []
        while time.monotonic() < deadline:
            try:
                line = self._stderr.get(timeout=0.1)
            except queue.Empty:
                if self.server.poll() is not None:
                    break
                continue
            if line is None:
                break
            lines.append(line)
            if line.startswith("serve: listening on "):
                return line.split()[3]
        raise RuntimeError("server did not start: " + " | ".join(lines[-5:]))

    def close(self) -> None:
        """Stop the server, keep its peak RSS (and spans when traced)."""
        if self.server is None:
            return
        from repro.service import client

        server, self.server = self.server, None
        try:
            if server.poll() is None:
                self.server_rss_mb = max(self.server_rss_mb,
                                         process_peak_rss_mb(server.pid))
                client.shutdown_server(self.address)
            server.wait(timeout=STOP_TIMEOUT)
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
        if self.traced:
            self.server_spans = json.loads(self._spans_path.read_text())
        shutil.rmtree(self.workdir / f"cache-{self._starts}",
                      ignore_errors=True)

    # -- passes -------------------------------------------------------------------

    def run_pass(self, index: int, probe) -> list[Op]:
        from repro.service import client

        job_seed = self.seed * 1000 + index
        specs = [dict(SPEC_DEFAULTS, id=f"p{index}-{i}", workload=w,
                      seed=job_seed)
                 for i, w in enumerate(self.plan)]
        records, seconds, _ = probe.measure(
            lambda: asyncio.run(self._drive(specs)))
        self.pass_seconds.append(seconds)
        self.jobs.extend(records)
        self.distinct_keys.update((r["workload"], job_seed) for r in records)
        self.stats = client.server_stats(self.address)
        ops = self.check(records)
        rewrites = self.stats["stats"]["rewrites"]
        if rewrites != len(self.distinct_keys):
            ops.append(Op("stats", None, f"stats.rewrites={rewrites} but "
                          f"{len(self.distinct_keys)} distinct keys",
                          wrong=True))
        else:
            ops.append(Op("stats", None))
        return ops

    async def _drive(self, specs: list[dict]) -> list[dict]:
        from repro.service.client import open_connection

        pending = list(reversed(specs))
        records: list[dict] = []

        async def connection() -> None:
            reader, writer = await open_connection(self.address)
            try:
                while pending:
                    records.append(await _submit(reader, writer, pending.pop()))
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass

        await asyncio.gather(*(connection() for _ in range(CLIENTS)))
        return records

    @staticmethod
    def check(records: list[dict]) -> list[Op]:
        """Compare every repeat's ledger with the cold ledger of its key."""
        cold: dict[str, list[str]] = defaultdict(list)
        for r in records:
            if r.get("cache") == "cold":
                cold[r["key"]].append(r["report_json"])
        ops = []
        for r in records:
            # A coalesced job's latency is its leader's, less the time it
            # arrived later: it is not a latency of its own.
            seconds = (None if r.get("cache") == "coalesced"
                       else r["t_end"] - r["t"]["send"])
            name = f"{r['workload']}/{r.get('cache')}"
            if r.get("failure"):
                ops.append(Op(name, seconds, r["failure"]))
            elif len(cold[r["key"]]) != 1:
                ops.append(Op(name, seconds, f"key {r['key'][:12]} rewritten "
                              f"{len(cold[r['key']])} times", wrong=True))
            elif r["report_json"] != cold[r["key"]][0]:
                ops.append(Op(name, seconds, "ledger differs from the cold "
                              "ledger of its key", wrong=True))
            else:
                ops.append(Op(name, seconds))
        return ops

    # -- results ---------------------------------------------------------------------

    def summary(self, ops: list[Op]) -> tuple[dict, dict]:
        pass_s = median(self.pass_seconds)
        metrics = {"pass_s": pass_s, **latency_metrics(ops)}

        def job_ms(jobs, q):
            return 1000.0 * percentile(
                [j["t_end"] - j["t"]["send"] for j in jobs], q)

        by_cache = defaultdict(list)
        for job in self.jobs:
            by_cache[job.get("cache")].append(job)
        named = {
            "serve_jobs_per_s": (len(self.plan) / pass_s, "1/s"),
            "serve_p50_ms": (job_ms(self.jobs, 0.50), "ms"),
            "serve_p95_ms": (job_ms(self.jobs, 0.95), "ms"),
            "serve_cold_p50_ms": (job_ms(by_cache["cold"], 0.50), "ms"),
            "serve_warm_p50_ms": (job_ms(by_cache["warm"], 0.50), "ms"),
        }
        record = {
            "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
            "jobs_by_cache": {str(k): len(v) for k, v in sorted(
                by_cache.items(), key=lambda kv: str(kv[0]))},
            "jobs_not_admitted": sum(1 for j in self.jobs
                                     if j.get("verify_ok") is False),
            "clients": CLIENTS,
        }
        return metrics, record

    def peak_rss_mb(self) -> float:
        return self.server_rss_mb

    def layer_extras(self) -> dict:
        """Event-stream stage latencies (median ms) and service counters."""
        def stage_ms(jobs, first, last):
            return 1000.0 * median(j["t"][last] - j["t"][first] for j in jobs
                                   if first in j["t"] and last in j["t"])

        cold = [j for j in self.jobs if j.get("cache") == "cold"]
        warm = [j for j in self.jobs if j.get("cache") == "warm"]
        stats = self.stats.get("stats", {})
        return {
            "service.accept_ms": stage_ms(self.jobs, "send", "accepted"),
            "service.queue_ms": stage_ms(cold, "accepted", "progress"),
            "service.rewrite_ms": stage_ms(cold, "rewrite", "verify"),
            "service.verify_ms": stage_ms(cold, "verify", "published"),
            "service.reply_ms": stage_ms(cold, "published", "result"),
            "service.hit_ms": stage_ms(warm, "accepted", "result"),
            "service.rewrites": stats.get("rewrites", 0),
            "service.cache_hits": stats.get("jobs_deduped_cache", 0),
            "service.coalesced": stats.get("jobs_deduped_inflight", 0),
        }

    def layer_snapshot(self, local: dict) -> dict:
        """The server's spans: every traced layer runs there."""
        return self.server_spans


async def _submit(reader, writer, spec: dict) -> dict:
    """One job to its terminal event, with the arrival time of every
    event (``t``: send, accepted, progress, each stage, result)."""
    from repro.service.protocol import ProtocolError, read_message, \
        write_message

    record = {"id": spec["id"], "workload": spec["workload"], "t": {}}
    t = record["t"]
    t["send"] = time.perf_counter()
    try:
        await write_message(writer, spec)
        while True:
            event = await read_message(reader)
            now = time.perf_counter()
            if event is None:
                raise ProtocolError("server closed mid-job")
            if event.get("id") != spec["id"]:
                continue  # a late progress frame of the previous job
            kind = event.get("event")
            if kind == "accepted":
                t["accepted"] = now
                record["key"] = event.get("key")
            elif kind == "progress":
                t.setdefault("progress", now)
                t.setdefault(event.get("stage"), now)
            elif kind in ("result", "error"):
                t["result"] = now
                break
    except (ConnectionError, OSError, ProtocolError) as exc:
        record["failure"] = f"transport: {exc}"
        event = {}
    record["t_end"] = time.perf_counter()
    if event.get("event") == "result":
        record.update(cache=event.get("cache"), key=event.get("key"),
                      verify_ok=event.get("ok"),
                      report_json=event.get("report_json"))
    elif event.get("event") == "error":
        fault = event.get("fault") or {}
        record["failure"] = f"{fault.get('fault')}: {fault.get('detail')}"
    record.setdefault("key", None)
    return record


def _drain(stream, lines: queue.Queue) -> None:
    """Forward the server's stderr lines (None at EOF)."""
    for line in stream:
        lines.put(line.rstrip("\n"))
    lines.put(None)

