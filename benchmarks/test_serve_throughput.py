"""Batch-service throughput: the sharded AOT cache must buy jobs/sec.

The service exists to amortize translation across a fleet, so the
headline numbers are jobs/sec cold (every job a full rewrite+verify)
versus warm (every job a shard hit), and warm throughput with one
client versus several concurrent clients hammering the same socket.
Correctness (every job ok, dedup exact) is asserted unconditionally,
and so is the warm-beats-cold gate: both phases run on the same host,
so their ratio holds on a 1-CPU runner too.
``BENCH_serve_throughput.json`` carries the measurements.
"""

import asyncio
import os
import time

import pytest

from benchmarks.helpers import emit_bench, print_table
from repro.core.pipeline import CacheLayout
from repro.resilience.policy import RetryPolicy
from repro.service.client import submit_jobs
from repro.service.server import RewriteService
from repro.telemetry import MetricsRegistry

SEED = 20260806
WORKLOADS = ("dot", "gemv", "vecadd", "matmul", "memcpy", "fibonacci")
NO_RETRY = RetryPolicy(max_attempts=1)


def _specs(tag: str):
    return [{"op": "submit", "id": f"{tag}-{name}", "workload": name,
             "seed": SEED, "oracle_trials": 1} for name in WORKLOADS]


async def _timed_batch(address: str, specs, *, clients: int):
    t0 = time.perf_counter()
    records = await submit_jobs(address, specs, concurrency=clients,
                                retry_policy=NO_RETRY)
    wall = time.perf_counter() - t0
    assert all(r["status"] == "ok" and r["verify_ok"] for r in records), \
        [r for r in records if r.get("status") != "ok"]
    return wall, records


def test_serve_throughput(benchmark, monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_FUZZ_SEED", str(SEED))
    cpus = os.cpu_count() or 1

    async def scenario():
        layout = CacheLayout(tmp_path / "cache", shards=4)
        service = RewriteService(layout, jobs=min(4, cpus))
        address = await service.start(
            socket_path=str(tmp_path / "serve.sock"))
        server_task = asyncio.ensure_future(service.serve_until_shutdown())
        try:
            walls = {}
            cold_wall, cold_records = await _timed_batch(
                address, _specs("cold"), clients=1)
            walls[("cold", 1)] = cold_wall
            assert sum(1 for r in cold_records
                       if r["cache"] == "cold") == len(WORKLOADS)
            for clients in (1, 4):
                wall, records = await _timed_batch(
                    address, _specs(f"warm{clients}"), clients=clients)
                walls[("warm", clients)] = wall
                assert all(r["cache"] == "warm" for r in records)
            assert service.stats.rewrites == len(WORKLOADS)
            return walls
        finally:
            service.shutdown()
            await server_task

    def run():
        return asyncio.run(scenario())

    walls = benchmark.pedantic(run, rounds=1, iterations=1)

    n = len(WORKLOADS)
    rates = {key: n / wall for key, wall in walls.items()}
    warm_speedup = rates[("warm", 1)] / rates[("cold", 1)]
    fanout_speedup = rates[("warm", 4)] / rates[("warm", 1)]
    rows = [[phase, clients, f"{walls[(phase, clients)]:.3f}s",
             f"{rates[(phase, clients)]:.1f}/s"]
            for phase, clients in walls]
    print_table("Service throughput: cold vs warm, 1 vs 4 clients",
                ["phase", "clients", "wall", "jobs/sec"], rows)

    registry = MetricsRegistry()
    for (phase, clients), rate in rates.items():
        registry.gauge("bench.serve_jobs_per_sec", round(rate, 3),
                       phase=phase, clients=str(clients))
    registry.gauge("bench.serve_warm_speedup", round(warm_speedup, 3))
    registry.gauge("bench.serve_client_fanout_speedup",
                   round(fanout_speedup, 3))
    registry.gauge("bench.cpu_count", cpus)
    emit_bench("serve_throughput", registry)

    # A shard hit skips translation and verification entirely; if warm
    # jobs are not clearly faster the cache is not working.
    assert warm_speedup > 1.5, (
        f"warm batch not faster than cold on {cpus} CPUs: "
        f"{rates[('warm', 1)]:.1f}/s vs {rates[('cold', 1)]:.1f}/s")
