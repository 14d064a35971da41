"""Chaos for the batch translation service itself.

:mod:`repro.chaos.pipeline_chaos` attacks the verification pipeline
inside one process; this module attacks the *service* wrapped around it
— the layer a fleet actually talks to.  Five scenarios, each ending the
only way the tentpole allows: every client record resolves (success or
a structured :class:`~repro.resilience.failures.JobFault`), zero hangs,
zero silent drops, and the byte-identity contract intact:

* **service-kill-restart** — SIGKILL the server subprocess mid-batch,
  restart it on the same socket and cache, and prove the campaign
  resumes to completion with exactly-once rewrites (one cache entry per
  release key, no stale journals, a duplicate-submission counterprobe
  that is 100% warm with the rewrite counter unmoved) and ledgers
  byte-identical to serial verification;
* **service-overload-shed** — flood a 1-slot server and prove bounded
  admission: every shed job carries ``job-overloaded`` with a
  ``retry_after_ms`` hint, admitted jobs still complete, the server
  answers ``stats`` mid-flood, and nothing disappears;
* **service-slow-loris** — a connection stalling mid-frame and one
  squatting idle are evicted by the read deadline while a healthy
  client on another connection is untouched;
* **service-deadline-storm** — a follower with a tiny ``deadline_ms``
  detaches from a shared run without cancelling the leader, and a storm
  of expired jobs all die as ``job-deadline-exceeded`` (never poison),
  after which the same key still verifies cleanly;
* **service-reset-mid-stream** — a client that vanishes after
  ``accepted`` leaves an *observed* ``orphaned_results`` tally, and a
  resubmission re-attaches through the cache instead of rewriting
  twice.

``python -m repro chaos <workload> --service`` drives
:func:`run_service_chaos`.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Optional

from repro.chaos.outcomes import ChaosReport, ScenarioResult
from repro.core.pipeline import CacheLayout, rewrite_and_verify
from repro.elf.binary import Binary
from repro.elf.fileformat import save_binary
from repro.isa.extensions import RV64GC, IsaProfile
from repro.resilience.failures import JOB_DEADLINE, JOB_OVERLOADED
from repro.resilience.policy import RetryPolicy
from repro.resilience.seeds import resolve_seed
from repro.service import client as client_mod
from repro.service.protocol import read_message, write_message
from repro.service.server import RewriteService

#: Per-scenario wall-clock ceiling: a scenario that cannot finish under
#: this is a hang, which is itself a failure.
_JOIN_SECONDS = 120.0

#: Retry budget for the kill-restart campaign: generous enough to ride
#: out a server restart (~seconds), bounded enough to fail a scenario
#: instead of hanging it.
_RESUME_POLICY = RetryPolicy(
    max_attempts=10, base_backoff=300, multiplier=2, max_backoff=2_000)

#: Surface faults immediately — the storm/flood scenarios assert on the
#: structured faults themselves, so retrying them away would hide the
#: behavior under test.
_NO_RETRY = RetryPolicy(max_attempts=1, base_backoff=10, multiplier=1,
                        max_backoff=10)


def _spec(job_id: str, path: str, *, target: str, seed: int,
          oracle_trials: int = 1, **extra) -> dict:
    spec = {"op": "submit", "id": job_id, "path": path, "target": target,
            "seed": seed, "oracle_trials": oracle_trials}
    spec.update(extra)
    return spec


def _serial_ledger(self_path: Path, target: IsaProfile, *, seed: int,
                   oracle_trials: int = 1) -> bytes:
    """The byte-identity reference: what ``repro verify`` would write."""
    from repro.elf.fileformat import load_binary_file

    pipe = rewrite_and_verify(load_binary_file(str(self_path)), target,
                              seed=seed, oracle_trials=oracle_trials,
                              executor="serial")
    return pipe.report.to_json().encode("utf-8")


# -- in-process service harness ----------------------------------------------


def _with_service(tmp: Path, coro_fn, *, shards: int = 4, jobs: int = 2,
                  **service_kw):
    """Run one async scenario body against a live in-process service."""

    async def main():
        layout = CacheLayout.open(tmp / "cache", shards)
        service = RewriteService(layout, jobs=jobs, **service_kw)
        address = await service.start(socket_path=str(tmp / "serve.sock"))
        server_task = asyncio.ensure_future(service.serve_until_shutdown())
        try:
            return await coro_fn(service, address)
        finally:
            service.shutdown()
            await server_task

    return asyncio.run(main())


async def _dial(address: str):
    return await client_mod.open_connection(address)


async def _close(writer) -> None:
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass


# -- scenario 1: SIGKILL mid-batch, restart, resume --------------------------


def _start_server(sock: str, cache: str, *, env: dict) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", sock,
         "--cache", cache, "--jobs", "2"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def _scenario_kill_restart(self_path: Path, *, target: IsaProfile,
                           seed: int, tmp: Path) -> ScenarioResult:
    name = "service-kill-restart"
    sock = str(tmp / "kill.sock")
    cache = tmp / "kill-cache"
    out_dir = tmp / "kill-out"
    address = f"unix:{sock}"
    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parent.parent.parent)
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")

    seeds = [seed + i for i in range(3)]
    specs = [_spec(f"job-{i}", str(self_path), target=target.name, seed=s)
             for i, s in enumerate(seeds)]

    proc = _start_server(sock, str(cache), env=env)
    proc2: Optional[subprocess.Popen] = None
    try:
        if not client_mod.wait_for_server(address, timeout=30.0):
            return ScenarioResult(name, False, "first server never came up")

        first_accept = threading.Event()
        box: dict = {}

        def on_event(event: dict) -> None:
            if event.get("event") in ("accepted", "progress"):
                first_accept.set()

        def campaign() -> None:
            box["records"] = asyncio.run(client_mod.submit_jobs(
                address, specs, concurrency=3, out_dir=out_dir,
                retry_policy=_RESUME_POLICY, on_event=on_event))

        thread = threading.Thread(target=campaign, daemon=True)
        thread.start()
        if not first_accept.wait(timeout=30.0):
            return ScenarioResult(name, False,
                                  "no job was ever accepted before the kill")
        # The batch is mid-flight: kill -9, no drain, no goodbye.
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10.0)
        proc2 = _start_server(sock, str(cache), env=env)
        if not client_mod.wait_for_server(address, timeout=30.0):
            return ScenarioResult(name, False, "restarted server never came up")
        thread.join(timeout=_JOIN_SECONDS)
        if thread.is_alive():
            return ScenarioResult(
                name, False,
                f"campaign hung past {_JOIN_SECONDS:g}s across the restart")

        records = box.get("records") or []
        if len(records) != len(specs) or any(r is None for r in records):
            return ScenarioResult(name, False,
                                  "campaign lost records (silent drop)")
        failed = [r for r in records if r.get("status") != "ok"]
        if failed:
            return ScenarioResult(
                name, False,
                f"{len(failed)} record(s) never resolved ok across the "
                f"restart: {[(r['id'], (r.get('fault') or {}).get('fault')) for r in failed]}")
        resumed = sum(1 for r in records if r.get("resumed"))
        if resumed < 1:
            return ScenarioResult(
                name, False,
                "no record resumed — the kill landed after the batch "
                "finished, which the accepted-event trigger should prevent")

        # Byte-identity: every ledger equals the serial reference.
        for i, s in enumerate(seeds):
            ledger = (out_dir / f"job-{i}.report.json").read_bytes()
            if ledger != _serial_ledger(self_path, target, seed=s):
                return ScenarioResult(
                    name, False,
                    f"ledger for seed {s} diverged from serial verify")

        # Exactly-once: one published entry per release key, no stale
        # journals, and a duplicate counterprobe that is 100% warm with
        # the rewrite counter unmoved.
        entries = sorted(cache.glob("**/*.self"))
        if len(entries) != len(seeds):
            return ScenarioResult(
                name, False,
                f"expected {len(seeds)} cache entries, found {len(entries)}")
        journals = sorted(cache.glob("**/journal/*.jsonl"))
        if journals:
            return ScenarioResult(
                name, False, f"stale journals left behind: "
                f"{[j.name for j in journals]}")
        before = client_mod.server_stats(address)["stats"]["rewrites"]
        probe_specs = [_spec(f"probe-{i}", str(self_path),
                             target=target.name, seed=s)
                       for i, s in enumerate(seeds)]
        probe = asyncio.run(client_mod.submit_jobs(
            address, probe_specs, concurrency=3,
            retry_policy=_NO_RETRY))
        not_warm = [r for r in probe if r.get("cache") != "warm"]
        if not_warm:
            return ScenarioResult(
                name, False,
                f"counterprobe was not all-warm: "
                f"{[(r['id'], r.get('cache')) for r in not_warm]}")
        after = client_mod.server_stats(address)["stats"]["rewrites"]
        if after != before:
            return ScenarioResult(
                name, False,
                f"counterprobe re-rewrote: rewrites {before} -> {after}")
        client_mod.shutdown_server(address)
        proc2.wait(timeout=30.0)
        proc2 = None
        return ScenarioResult(
            name, True,
            f"SIGKILL mid-batch survived: {len(records)} records ok "
            f"({resumed} resumed), ledgers byte-identical to serial, "
            f"{len(entries)} keys rewritten exactly once, counterprobe "
            "all-warm")
    finally:
        for p in (proc, proc2):
            if p is not None and p.poll() is None:
                p.kill()
                p.wait(timeout=10.0)


# -- scenario 2: overload flood with shedding --------------------------------


def _scenario_overload_shed(self_path: Path, *, target: IsaProfile,
                            seed: int, tmp: Path) -> ScenarioResult:
    name = "service-overload-shed"
    flood = 10

    async def body(service: RewriteService, address: str):
        specs = [_spec(f"flood-{i}", str(self_path), target=target.name,
                       seed=seed + 100 + i) for i in range(flood)]

        async def mid_flood_stats():
            # The event loop must stay responsive while every slot is
            # busy — stats answered from a separate connection mid-flood.
            await asyncio.sleep(0.01)
            reader, writer = await _dial(address)
            try:
                await write_message(writer, {"op": "stats"})
                reply = await asyncio.wait_for(read_message(reader), 10.0)
                return reply is not None and reply.get("event") == "stats"
            finally:
                await _close(writer)

        records, answered = await asyncio.gather(
            client_mod.submit_jobs(address, specs, concurrency=flood,
                                   retry_policy=_NO_RETRY),
            mid_flood_stats())
        return records, answered, service.stats

    with tempfile.TemporaryDirectory(dir=tmp) as sub:
        records, answered, stats = _with_service(
            Path(sub), body, jobs=2, max_inflight=1, max_queue=1)

    if any(r is None for r in records) or len(records) != flood:
        return ScenarioResult(name, False, "flood lost records (silent drop)")
    if not answered:
        return ScenarioResult(
            name, False, "server failed to answer stats mid-flood")
    ok = [r for r in records if r.get("status") == "ok"]
    shed = [r for r in records
            if (r.get("fault") or {}).get("fault") == JOB_OVERLOADED]
    other = [r for r in records if r not in ok and r not in shed]
    if other:
        return ScenarioResult(
            name, False,
            f"records ended outside ok/overloaded: "
            f"{[(r['id'], (r.get('fault') or {}).get('fault')) for r in other]}")
    if not ok:
        return ScenarioResult(name, False,
                              "shedding starved every job (zero goodput)")
    if not shed:
        return ScenarioResult(
            name, False,
            "a 10x flood of a 1-slot server shed nothing — admission "
            "bound is not engaging")
    bad_hint = [r for r in shed
                if not isinstance((r.get("fault") or {}).get("retry_after_ms"),
                                  int)
                or (r.get("fault") or {}).get("retry_after_ms") < 1]
    if bad_hint:
        return ScenarioResult(
            name, False,
            f"{len(bad_hint)} shed fault(s) missing a retry_after_ms hint")
    if stats.jobs_shed != len(shed):
        return ScenarioResult(
            name, False,
            f"stats.jobs_shed={stats.jobs_shed} but clients saw {len(shed)}")
    if stats.queue_depth != 0:
        return ScenarioResult(
            name, False, f"queue_depth={stats.queue_depth} never drained")
    return ScenarioResult(
        name, True,
        f"{len(ok)} admitted jobs completed, {len(shed)} shed with "
        "retry_after_ms, stats answered mid-flood, zero silent drops")


# -- scenario 3: slow-loris eviction -----------------------------------------


def _scenario_slow_loris(self_path: Path, *, target: IsaProfile,
                         seed: int, tmp: Path) -> ScenarioResult:
    name = "service-slow-loris"
    idle = 0.3

    async def body(service: RewriteService, address: str):
        # Connection A: half a frame, then silence — a classic loris.
        loris_r, loris_w = await _dial(address)
        loris_w.write(b'{"op": "submit", "id": "lor')
        await loris_w.drain()
        # Connection B: completes a ping, then squats idle.
        idle_r, idle_w = await _dial(address)
        await write_message(idle_w, {"op": "ping"})
        pong = await read_message(idle_r)

        async def final_event(reader):
            last = None
            try:
                while True:
                    event = await asyncio.wait_for(read_message(reader), 10.0)
                    if event is None:
                        return last
                    last = event
            except (asyncio.TimeoutError, ConnectionError, OSError):
                return last

        loris_seen, idle_seen = await asyncio.gather(
            final_event(loris_r), final_event(idle_r))
        await _close(loris_w)
        await _close(idle_w)

        # Connection C: a healthy client right after the evictions.
        healthy = await client_mod.submit_jobs(
            address,
            [_spec("healthy", str(self_path), target=target.name, seed=seed)],
            retry_policy=_NO_RETRY)
        return pong, loris_seen, idle_seen, healthy, service.stats

    with tempfile.TemporaryDirectory(dir=tmp) as sub:
        pong, loris_seen, idle_seen, healthy, stats = _with_service(
            Path(sub), body, idle_timeout=idle)

    if not pong or pong.get("event") != "pong":
        return ScenarioResult(name, False, "ping before idling failed")
    for label, seen in (("loris", loris_seen), ("idle", idle_seen)):
        detail = ((seen or {}).get("fault") or {}).get("detail", "")
        if "evicted" not in detail:
            return ScenarioResult(
                name, False,
                f"{label} connection was not told it was evicted: {seen!r}")
    if stats.slow_client_evictions != 2:
        return ScenarioResult(
            name, False,
            f"expected 2 evictions, stats says {stats.slow_client_evictions}")
    if len(healthy) != 1 or healthy[0].get("status") != "ok":
        return ScenarioResult(
            name, False,
            f"healthy client was collateral damage: {healthy!r}")
    return ScenarioResult(
        name, True,
        f"mid-frame and idle connections evicted after {idle:g}s, healthy "
        "client unaffected")


# -- scenario 4: deadline storm ----------------------------------------------


def _scenario_deadline_storm(self_path: Path, *, target: IsaProfile,
                             seed: int, tmp: Path) -> ScenarioResult:
    name = "service-deadline-storm"
    storm = 6

    async def body(service: RewriteService, address: str):
        # Leader (no deadline) and a coalescing follower whose 1ms
        # deadline expires while the shared run is still going: the
        # follower must detach without cancelling the leader.
        reader, writer = await _dial(address)
        leader_spec = _spec("leader", str(self_path), target=target.name,
                            seed=seed, oracle_trials=2)
        await write_message(writer, leader_spec)
        accepted = await asyncio.wait_for(read_message(reader), 30.0)
        follower_task = asyncio.ensure_future(client_mod.submit_jobs(
            address, [dict(leader_spec, id="follower", deadline_ms=1)],
            retry_policy=_NO_RETRY))
        leader_events = []
        while True:
            event = await asyncio.wait_for(read_message(reader), 30.0)
            if event.get("id") != "leader":
                continue
            if event.get("event") in ("result", "error"):
                leader_events.append(event)
                break
        await _close(writer)
        follower = (await follower_task)[0]

        storm_specs = [_spec(f"storm-{i}", str(self_path),
                             target=target.name, seed=seed + 200 + i,
                             deadline_ms=1) for i in range(storm)]
        stormed = await client_mod.submit_jobs(
            address, storm_specs, concurrency=storm,
            retry_policy=_NO_RETRY)
        # Storm replies race their runs: each client hears JOB_DEADLINE
        # the moment its wait expires, while the doomed run may still be
        # settling server-side.  Drain the in-flight table so the
        # control below starts a fresh run instead of coalescing onto a
        # dying one (a real client's retry backoff absorbs this race).
        deadline = time.monotonic() + _JOIN_SECONDS
        while service._inflight and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        # Control: one stormed key, resubmitted with no deadline, must
        # verify cleanly — deadline faults never poison a key.
        control = await client_mod.submit_jobs(
            address,
            [_spec("control", str(self_path), target=target.name,
                   seed=seed + 200)],
            retry_policy=_NO_RETRY)
        return accepted, leader_events[0], follower, stormed, control[0], \
            service.stats

    with tempfile.TemporaryDirectory(dir=tmp) as sub:
        accepted, leader, follower, stormed, control, stats = _with_service(
            Path(sub), body, jobs=2, max_inflight=1, max_queue=32)

    if not accepted or accepted.get("event") != "accepted":
        return ScenarioResult(name, False,
                              f"leader was not accepted: {accepted!r}")
    if leader.get("event") != "result" or not leader.get("ok"):
        return ScenarioResult(
            name, False,
            f"leader run was cancelled or failed under the follower's "
            f"deadline: {leader!r}")
    follower_fault = (follower.get("fault") or {}).get("fault")
    if follower_fault != JOB_DEADLINE:
        return ScenarioResult(
            name, False,
            f"follower with deadline_ms=1 ended as {follower_fault!r}, "
            f"expected {JOB_DEADLINE} (cache={follower.get('cache')!r})")
    not_deadline = [r for r in stormed
                    if (r.get("fault") or {}).get("fault") != JOB_DEADLINE]
    if not_deadline:
        return ScenarioResult(
            name, False,
            f"{len(not_deadline)} storm job(s) did not die on deadline: "
            f"{[(r['id'], (r.get('fault') or {}).get('fault'), r.get('status')) for r in not_deadline]}")
    if stats.deadline_exceeded < storm + 1:
        return ScenarioResult(
            name, False,
            f"stats.deadline_exceeded={stats.deadline_exceeded}, expected "
            f">= {storm + 1}")
    if stats.jobs_quarantined or control.get("status") != "ok":
        return ScenarioResult(
            name, False,
            "deadline faults poisoned a key: control resubmit got "
            f"{(control.get('fault') or {}).get('fault') or control.get('status')}")
    if stats.queue_depth != 0:
        return ScenarioResult(
            name, False, f"queue_depth={stats.queue_depth} never drained")
    return ScenarioResult(
        name, True,
        f"follower detached on its deadline (leader ok), {storm} stormed "
        "jobs all died structurally, key stayed healthy")


# -- scenario 5: connection reset mid-result-stream --------------------------


def _scenario_reset_mid_stream(self_path: Path, *, target: IsaProfile,
                               seed: int, tmp: Path) -> ScenarioResult:
    name = "service-reset-mid-stream"

    async def body(service: RewriteService, address: str):
        reader, writer = await _dial(address)
        spec = _spec("reset", str(self_path), target=target.name,
                     seed=seed + 300)
        await write_message(writer, spec)
        accepted = await asyncio.wait_for(read_message(reader), 30.0)
        # Vanish without a goodbye, mid result stream.
        writer.transport.abort()
        # The run must still complete (and be observed as orphaned).
        for _ in range(600):
            if service.stats.queue_depth == 0 and not service._inflight:
                break
            await asyncio.sleep(0.05)
        orphaned = service.stats.orphaned_results
        rewrites_before = service.stats.rewrites
        redo = await client_mod.submit_jobs(
            address, [dict(spec, id="reset-redo")], retry_policy=_NO_RETRY)
        return accepted, orphaned, rewrites_before, redo[0], service.stats

    with tempfile.TemporaryDirectory(dir=tmp) as sub:
        accepted, orphaned, rewrites_before, redo, stats = _with_service(
            Path(sub), body)

    if not accepted or accepted.get("event") != "accepted":
        return ScenarioResult(name, False, f"job not accepted: {accepted!r}")
    if orphaned < 1:
        return ScenarioResult(
            name, False,
            "terminal event to a vanished client was not counted as an "
            "orphaned result")
    if rewrites_before != 1:
        return ScenarioResult(
            name, False,
            f"expected exactly 1 rewrite before the redo, saw "
            f"{rewrites_before}")
    if redo.get("status") != "ok" or redo.get("cache") not in ("warm",
                                                               "coalesced"):
        return ScenarioResult(
            name, False,
            f"redo did not re-attach idempotently: status="
            f"{redo.get('status')!r} cache={redo.get('cache')!r}")
    if stats.rewrites != 1:
        return ScenarioResult(
            name, False,
            f"redo re-rewrote: rewrites={stats.rewrites} (exactly-once "
            "broken)")
    return ScenarioResult(
        name, True,
        "vanished client's result counted orphaned; redo re-attached "
        f"({redo.get('cache')}) with zero extra rewrites")


# -- aggregate ---------------------------------------------------------------


def run_service_chaos(
    original: Binary,
    *,
    target: IsaProfile = RV64GC,
    jobs: int = 2,
    seed: Optional[int] = None,
) -> ChaosReport:
    """Run every service chaos scenario against *original*."""
    seed = resolve_seed(seed)
    report = ChaosReport()
    with tempfile.TemporaryDirectory(prefix="repro-service-chaos-") as tmp:
        root = Path(tmp)
        self_path = root / f"{original.name}.self"
        save_binary(original.clone(), self_path)
        for func in (_scenario_kill_restart,
                     _scenario_overload_shed,
                     _scenario_slow_loris,
                     _scenario_deadline_storm,
                     _scenario_reset_mid_stream):
            report.scenarios.append(
                func(self_path, target=target, seed=seed, tmp=root))
    return report
