"""``python -m repro serve`` — the asyncio batch translation server.

One process, three moving parts:

* the **event loop** accepts local connections (unix socket or
  TCP-on-localhost) and speaks :mod:`repro.service.protocol`; it never
  runs pipeline work, so the server stays responsive while every core
  is busy verifying;
* a small **job-thread pool** drives
  :func:`repro.core.pipeline.run_job` for each admitted job; each job's
  per-region fan-out goes through the PR 6 fault-isolated *process*
  pool, sized by one shared
  :class:`~repro.core.procpool.WorkerSlotArbiter` so concurrent jobs
  split the machine fairly instead of oversubscribing it;
* the **sharded cache** (:class:`~repro.core.pipeline.CacheLayout`)
  deduplicates: a submit whose release key is already on disk is a
  *warm* hit, one whose key is currently being built is *coalesced*
  onto the in-flight run — a batch of duplicate binaries performs
  exactly one rewrite+verify no matter how many clients race.

Failure domains are per job: a pipeline crash becomes a structured
:class:`~repro.resilience.failures.JobFault` streamed to every waiter
(the server stays up), and a key that crashes
:data:`POISON_THRESHOLD` times is refused on admission until the
server restarts — one poisoned binary can never take the service down
or monopolize its workers.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

from repro.core.pipeline import (
    CacheLayout,
    PipelineResult,
    RewriteJob,
    release_key,
    run_job,
)
from repro.core.procpool import WorkerSlotArbiter
from repro.resilience.failures import (
    JOB_CRASH,
    JOB_DEADLINE,
    JOB_OVERLOADED,
    JOB_POISONED,
    JOB_REJECTED,
    DeadlineExceededError,
    JobFault,
)
from repro.service.protocol import (
    MAX_MESSAGE_BYTES,
    PROTOCOL,
    FrameTooLargeError,
    ProtocolError,
    read_message,
    validate_submit,
    write_message,
)
from repro.telemetry import current as telemetry_current

#: Crashing runs per release key before the key is refused on admission.
POISON_THRESHOLD = 2


class JobServiceError(RuntimeError):
    """Carries a :class:`JobFault` across the job future boundary."""

    def __init__(self, fault: JobFault):
        super().__init__(str(fault))
        self.fault = fault


@dataclass
class ServiceStats:
    """The service's observable ledger (mirrored into telemetry).

    Counters only move on the event-loop thread, so readers (the
    ``stats`` op, the tests) never see a torn snapshot.
    """

    jobs_accepted: int = 0
    jobs_rejected: int = 0
    jobs_quarantined: int = 0
    #: Followers attached to an in-flight run of the same release key.
    jobs_deduped_inflight: int = 0
    #: Runs satisfied by a published cache entry (warm hits).
    jobs_deduped_cache: int = 0
    #: Cold runs that actually rewrote + verified.
    rewrites: int = 0
    jobs_failed: int = 0
    jobs_completed: int = 0
    shard_hits: int = 0
    shard_misses: int = 0
    #: Leaders refused at admission because both the in-flight budget
    #: and the wait queue were full (each carried ``retry_after_ms``).
    jobs_shed: int = 0
    #: Jobs that died on their end-to-end ``deadline_ms`` (queued,
    #: coalesced, or mid-pipeline).
    deadline_exceeded: int = 0
    #: Connections evicted by the per-connection idle/read deadline.
    slow_client_evictions: int = 0
    #: Terminal result/error events whose client was already gone —
    #: observed, never silently dropped.
    orphaned_results: int = 0
    started_at: float = field(default_factory=time.time)

    @property
    def queue_depth(self) -> int:
        return self.jobs_accepted - self.jobs_completed

    def as_dict(self) -> dict:
        data = {k: v for k, v in vars(self).items() if k != "started_at"}
        data["queue_depth"] = self.queue_depth
        data["uptime_seconds"] = round(time.time() - self.started_at, 3)
        return data


@dataclass
class _JobRecord:
    """What one settled run hands every waiter."""

    key: str
    cache_hit: bool
    ok: bool
    releasable: bool
    counts: dict
    seconds: float
    report_json: str


class RewriteService:
    """The batch server.  See the module docstring for the shape."""

    def __init__(
        self,
        layout: CacheLayout,
        *,
        jobs: Optional[int] = None,
        executor: Optional[str] = None,
        oracle_trials: Optional[int] = None,
        region_timeout: Optional[float] = None,
        job_threads: Optional[int] = None,
        poison_threshold: int = POISON_THRESHOLD,
        max_inflight: Optional[int] = None,
        max_queue: int = 0,
        idle_timeout: Optional[float] = None,
    ):
        self.layout = layout
        #: Machine-wide verification-worker budget, shared fairly.
        total = jobs if jobs is not None else (os.cpu_count() or 1)
        self.worker_budget = max(1, total)
        self.slots = WorkerSlotArbiter(self.worker_budget)
        #: Per-job executor override (None = pipeline auto-select:
        #: process only when at least two of the job's regions can be
        #: verified at once; a one-region job verifies in-line).
        self.executor = executor
        #: Server-side override pinning every job's oracle trials (the
        #: cache key depends on it; a fleet wants one policy).
        self.oracle_trials = oracle_trials
        self.region_timeout = region_timeout
        self.poison_threshold = poison_threshold
        #: Bounded admission: at most ``max_inflight`` leader runs
        #: execute concurrently and at most ``max_queue`` more may wait;
        #: past both, new leaders are *shed* with a structured
        #: ``job-overloaded`` fault carrying a load-derived
        #: ``retry_after_ms`` hint.  None = unbounded (PR 8 behavior).
        #: Followers coalescing onto an in-flight key are never shed —
        #: they add no pipeline work.
        self.max_inflight = max_inflight if (max_inflight or 0) > 0 else None
        self.max_queue = max(0, max_queue)
        #: Per-connection idle/read deadline (seconds): a connection
        #: with no outstanding jobs that stays silent — or stalls
        #: mid-frame — past this long is evicted (slow-loris defense).
        #: Connections waiting on accepted jobs are never evicted.
        self.idle_timeout = idle_timeout
        self._admit = (asyncio.Semaphore(self.max_inflight)
                       if self.max_inflight is not None else None)
        #: Leader runs currently executing / waiting for a slot.
        self._running = 0
        self._run_queued = 0
        #: EWMA of completed-run seconds, feeding the retry_after hint.
        self._ewma_seconds = 0.0
        self.stats = ServiceStats()
        self._threads = ThreadPoolExecutor(
            max_workers=job_threads or min(8, self.worker_budget + 1),
            thread_name_prefix="repro-serve-job")
        self._inflight: dict[str, asyncio.Future] = {}
        #: Crash tally and quarantine memo, keyed by release key.
        self._failures: dict[str, int] = {}
        self._poisoned: dict[str, JobFault] = {}
        #: key -> [(connection, client job id), ...] progress watchers.
        self._watchers: dict[str, list] = {}
        self._stop = asyncio.Event()
        self._server: Optional[asyncio.AbstractServer] = None
        self._socket_path: Optional[str] = None
        self.address: Optional[str] = None

    # -- lifecycle ----------------------------------------------------------

    async def start(self, *, socket_path: Optional[str] = None,
                    host: str = "127.0.0.1",
                    port: Optional[int] = None) -> str:
        """Bind and listen; returns the printable address."""
        if socket_path is not None:
            # A stale socket file from a dead server blocks the bind;
            # unlink it (a live server would still hold the listener).
            try:
                os.unlink(socket_path)
            except FileNotFoundError:
                pass
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=socket_path,
                limit=MAX_MESSAGE_BYTES)
            self._socket_path = socket_path
            self.address = f"unix:{socket_path}"
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, host=host, port=port or 0,
                limit=MAX_MESSAGE_BYTES)
            bound = self._server.sockets[0].getsockname()
            self.address = f"tcp:{bound[0]}:{bound[1]}"
        return self.address

    async def serve_until_shutdown(self) -> None:
        """Serve until a ``shutdown`` op (or :meth:`shutdown`) lands,
        then drain every in-flight job before returning."""
        if self._server is None:
            raise RuntimeError("call start() first")
        try:
            async with self._server:
                await self._stop.wait()
                self._server.close()
                await self._server.wait_closed()
            pending = [f for f in self._inflight.values() if not f.done()]
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
            self._threads.shutdown(wait=True)
        finally:
            # Python < 3.13 leaves the unix socket file behind.
            if self._socket_path is not None:
                try:
                    os.unlink(self._socket_path)
                except OSError:
                    pass

    def shutdown(self) -> None:
        self._stop.set()

    # -- connection handling ------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        conn = _Connection(writer)
        tasks: set[asyncio.Task] = set()
        try:
            await conn.send({"event": "hello", "protocol": PROTOCOL,
                             "shards": self.layout.shards,
                             "workers": self.worker_budget})
            while True:
                try:
                    # The idle deadline only arms while the connection
                    # has no outstanding jobs: a client quietly waiting
                    # for a long verification is never evicted, a
                    # slow-loris trickling half a frame (or just
                    # squatting) is.
                    timeout = self.idle_timeout if not tasks else None
                    if timeout is not None:
                        message = await asyncio.wait_for(
                            read_message(reader), timeout)
                    else:
                        message = await read_message(reader)
                except asyncio.TimeoutError:
                    self.stats.slow_client_evictions += 1
                    telemetry = telemetry_current()
                    if telemetry.enabled:
                        telemetry.metrics.inc(
                            "service.slow_client_evictions")
                    await conn.send({"event": "error", "id": None,
                                     "fault": JobFault(
                                         binary="<connection>",
                                         fault=JOB_REJECTED,
                                         detail=f"idle past "
                                         f"{timeout:g}s; evicted"
                                     ).as_dict()})
                    break
                except FrameTooLargeError as exc:
                    # Past the frame ceiling there is no trustworthy
                    # resync point: answer and tear down.
                    await conn.send({"event": "error", "id": None,
                                     "fault": JobFault(
                                         binary="<frame>",
                                         fault=JOB_REJECTED,
                                         detail=str(exc)).as_dict()})
                    break
                except ProtocolError as exc:
                    # Parse-level garbage on one line: readuntil already
                    # consumed through the newline, so the stream is
                    # still frame-synchronized — answer and keep
                    # serving this connection.  (A mid-frame EOF lands
                    # here too; the next read sees clean EOF and exits.)
                    await conn.send({"event": "error", "id": None,
                                     "fault": JobFault(
                                         binary="<frame>",
                                         fault=JOB_REJECTED,
                                         detail=str(exc)).as_dict()})
                    continue
                except (ConnectionError, OSError):
                    # The peer reset mid-read (e.g. aborted its
                    # transport).  Same shape as EOF: any in-flight
                    # submits keep running and their terminal sends are
                    # tallied as orphaned results.
                    break
                if message is None:
                    break
                op = message.get("op")
                if op == "submit":
                    task = asyncio.ensure_future(
                        self._handle_submit(conn, message))
                    tasks.add(task)
                    task.add_done_callback(tasks.discard)
                elif op == "stats":
                    await conn.send({"event": "stats",
                                     "stats": self.stats.as_dict(),
                                     "inflight": len(self._inflight),
                                     "running": self._running,
                                     "queued": self._run_queued,
                                     "poisoned": len(self._poisoned)})
                elif op == "ping":
                    await conn.send({"event": "pong"})
                elif op == "shutdown":
                    await conn.send({"event": "bye"})
                    self.shutdown()
                    break
                else:
                    await conn.send({"event": "error", "id": message.get("id"),
                                     "fault": JobFault(
                                         binary="<op>",
                                         fault=JOB_REJECTED,
                                         detail=f"unknown op {op!r}").as_dict()})
        finally:
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            conn.closed = True
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # -- the submit path ----------------------------------------------------

    async def _handle_submit(self, conn: "_Connection", message: dict) -> None:
        telemetry = telemetry_current()
        loop = asyncio.get_running_loop()
        job_id = message.get("id")
        try:
            spec = validate_submit(message)
        except ProtocolError as exc:
            self.stats.jobs_rejected += 1
            if telemetry.enabled:
                telemetry.metrics.inc("service.jobs_rejected")
            await self._send_terminal(conn, {
                "event": "error", "id": job_id,
                "fault": JobFault(
                    binary=str(message.get("workload")
                               or message.get("path")),
                    fault=JOB_REJECTED,
                    detail=str(exc)).as_dict()})
            return
        # The end-to-end clock starts at validation: queue time,
        # coalesce time, and pipeline time all spend the same budget.
        deadline = (time.monotonic() + spec["deadline_ms"] / 1000.0
                    if spec["deadline_ms"] is not None else None)
        name = spec["workload"] or spec["path"]
        try:
            job, key = await loop.run_in_executor(
                self._threads, self._resolve, spec)
        except Exception as exc:  # noqa: BLE001 - structured, never raw
            self.stats.jobs_rejected += 1
            if telemetry.enabled:
                telemetry.metrics.inc("service.jobs_rejected")
            await self._send_terminal(conn, {
                "event": "error", "id": spec["id"],
                "fault": JobFault(
                    binary=name, fault=JOB_REJECTED,
                    detail=f"{type(exc).__name__}: {exc}").as_dict()})
            return

        poisoned = self._poisoned.get(key)
        if poisoned is not None:
            self.stats.jobs_quarantined += 1
            if telemetry.enabled:
                telemetry.metrics.inc("service.jobs_quarantined")
            await self._send_terminal(conn, {
                "event": "error", "id": spec["id"],
                "fault": poisoned.as_dict()})
            return

        follower = key in self._inflight
        if (not follower and self.max_inflight is not None
                and self._running >= self.max_inflight
                and self._run_queued >= self.max_queue):
            # Bounded admission: a new leader past both budgets is shed
            # *before* it is accepted, with a load-derived retry hint.
            # Followers never reach here — coalescing adds no work, so
            # a duplicate flood can never be shed into thrashing.
            self.stats.jobs_shed += 1
            if telemetry.enabled:
                telemetry.metrics.inc("service.jobs_shed")
            retry_after = self._retry_after_ms()
            await self._send_terminal(conn, {
                "event": "error", "id": spec["id"],
                "fault": JobFault(
                    binary=name, fault=JOB_OVERLOADED,
                    detail=(f"{self._running} running + "
                            f"{self._run_queued} queued >= "
                            f"{self.max_inflight}+{self.max_queue}; "
                            f"retry in {retry_after}ms"),
                    key=key, retry_after_ms=retry_after).as_dict()})
            return

        self.stats.jobs_accepted += 1
        if telemetry.enabled:
            telemetry.metrics.inc("service.jobs_accepted")
            telemetry.metrics.gauge("service.queue_depth",
                                    self.stats.queue_depth)
        shard = self.layout.shard_name(key)
        await conn.send({"event": "accepted", "id": spec["id"], "key": key,
                         "shard": shard})

        if follower:
            self.stats.jobs_deduped_inflight += 1
            if telemetry.enabled:
                telemetry.metrics.inc("service.jobs_deduped", how="inflight")
            future = self._inflight[key]
        else:
            future = loop.create_future()
            # Abandoned waiters (deadline-detached followers) must not
            # leave an "exception never retrieved" warning behind.
            future.add_done_callback(
                lambda f: f.exception() if not f.cancelled() else None)
            self._inflight[key] = future
            asyncio.ensure_future(self._drive(key, job, name, future,
                                              deadline))
        self._watchers.setdefault(key, []).append((conn, spec["id"]))
        try:
            if deadline is not None:
                # shield(): a follower timing out detaches *itself*;
                # the underlying run — and every other waiter — is
                # untouched.  The leader's own deadline rides inside
                # _drive, so cancelling the wait never cancels the run.
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise asyncio.TimeoutError
                record: _JobRecord = await asyncio.wait_for(
                    asyncio.shield(future), remaining)
            else:
                record = await future
        except asyncio.TimeoutError:
            self.stats.deadline_exceeded += 1
            if telemetry.enabled:
                telemetry.metrics.inc("service.deadline_exceeded")
            await self._send_terminal(conn, {
                "event": "error", "id": spec["id"],
                "fault": JobFault(
                    binary=name, fault=JOB_DEADLINE,
                    detail=(f"deadline_ms={spec['deadline_ms']} expired "
                            "waiting for the coalesced run"),
                    key=key).as_dict()})
            return
        except JobServiceError as exc:
            if exc.fault.fault == JOB_DEADLINE:
                self.stats.deadline_exceeded += 1
                if telemetry.enabled:
                    telemetry.metrics.inc("service.deadline_exceeded")
            await self._send_terminal(conn, {
                "event": "error", "id": spec["id"],
                "fault": exc.fault.as_dict()})
            return
        finally:
            # Every admitted job completes exactly once (runner and
            # followers alike), success or fault — queue_depth drains.
            self.stats.jobs_completed += 1
            if telemetry.enabled:
                telemetry.metrics.gauge("service.queue_depth",
                                        self.stats.queue_depth)
            watchers = self._watchers.get(key)
            if watchers is not None:
                try:
                    watchers.remove((conn, spec["id"]))
                except ValueError:
                    pass
                if not watchers:
                    self._watchers.pop(key, None)
        cache = ("coalesced" if follower
                 else "warm" if record.cache_hit else "cold")
        await self._send_terminal(conn, {
            "event": "result", "id": spec["id"], "key": key,
            "shard": shard, "cache": cache, "ok": record.ok,
            "releasable": record.releasable, "counts": record.counts,
            "seconds": round(record.seconds, 6),
            "report_json": record.report_json,
        })

    async def _drive(self, key: str, job: RewriteJob, name: str,
                     future: asyncio.Future,
                     deadline: Optional[float] = None) -> None:
        """Own one run: wait for an admission slot, thread off the
        pipeline, settle every waiter, keep the books.  Runs on the
        loop; the pipeline does not."""
        telemetry = telemetry_current()
        loop = asyncio.get_running_loop()

        def on_progress(stage: str, **info) -> None:
            # Fires on the job thread; marshal to the loop.
            loop.call_soon_threadsafe(self._fanout_progress, key, stage, info)

        def settle_fault(fault: JobFault) -> None:
            self.stats.jobs_failed += 1
            if telemetry.enabled:
                telemetry.metrics.inc("service.jobs_failed")
            self._inflight.pop(key, None)
            future.set_exception(JobServiceError(fault))

        if self._admit is not None:
            self._run_queued += 1
            try:
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise asyncio.TimeoutError
                    await asyncio.wait_for(self._admit.acquire(), remaining)
                else:
                    await self._admit.acquire()
            except asyncio.TimeoutError:
                # Expired while queued: the slot was never consumed, so
                # jobs behind this one are unaffected.  Not a crash —
                # no poison tally.
                settle_fault(JobFault(
                    binary=name, fault=JOB_DEADLINE,
                    detail="deadline expired waiting for an admission "
                           "slot", key=key))
                return
            finally:
                self._run_queued -= 1
        self._running += 1
        if deadline is not None:
            job = dataclasses.replace(job, deadline=deadline)
        t0 = time.perf_counter()
        try:
            pipe: PipelineResult = await loop.run_in_executor(
                self._threads, self._run_sync, job, key, on_progress)
        except DeadlineExceededError as exc:
            # The pipeline noticed the expiry between regions; the run
            # journal keeps everything settled so far, so a retry of
            # this key resumes.  The key's health is unaffected.
            settle_fault(JobFault(
                binary=name, fault=JOB_DEADLINE,
                detail=str(exc), key=key))
            return
        except Exception as exc:  # noqa: BLE001 - the job failure domain
            failures = self._failures.get(key, 0) + 1
            self._failures[key] = failures
            quarantined = failures >= self.poison_threshold
            fault = JobFault(
                binary=name, fault=JOB_CRASH,
                detail=f"{type(exc).__name__}: {exc}", key=key,
                failures=failures, quarantined=quarantined)
            if quarantined:
                self._poisoned[key] = JobFault(
                    binary=name, fault=JOB_POISONED,
                    detail=(f"release key crashed {failures} run(s); "
                            "refused until restart"),
                    key=key, failures=failures, quarantined=True)
            settle_fault(fault)
            return
        finally:
            self._running -= 1
            if self._admit is not None:
                self._admit.release()
        seconds = time.perf_counter() - t0
        # EWMA of run latency feeds the retry_after_ms shed hint.
        alpha = 0.3
        self._ewma_seconds = (seconds if self._ewma_seconds == 0.0
                              else alpha * seconds
                              + (1 - alpha) * self._ewma_seconds)
        shard = self.layout.shard_name(key)
        if pipe.cache_hit:
            self.stats.shard_hits += 1
            self.stats.jobs_deduped_cache += 1
            if telemetry.enabled:
                telemetry.metrics.inc("service.shard_hits", shard=shard)
                telemetry.metrics.inc("service.jobs_deduped", how="cache")
        else:
            self.stats.shard_misses += 1
            self.stats.rewrites += 1
            if telemetry.enabled:
                telemetry.metrics.inc("service.shard_misses", shard=shard)
                telemetry.metrics.inc("service.rewrites")
        self._failures.pop(key, None)
        self._inflight.pop(key, None)
        future.set_result(_JobRecord(
            key=key, cache_hit=pipe.cache_hit, ok=pipe.ok,
            releasable=pipe.releasable,
            counts=pipe.report.counts(), seconds=seconds,
            report_json=pipe.report.to_json()))

    # -- admission helpers --------------------------------------------------

    def _retry_after_ms(self) -> int:
        """Load-derived retry hint for a shed job: roughly how long
        until the current backlog has drained one wave, bounded to
        [50ms, 30s] so a cold server never tells a client "now" and a
        thrashing one never tells it "tomorrow"."""
        ewma = self._ewma_seconds or 0.25
        backlog = self._running + self._run_queued + 1
        waves = backlog / max(1, self.max_inflight or 1)
        return max(50, min(30_000, int(1000.0 * ewma * waves)))

    async def _send_terminal(self, conn: "_Connection",
                             message: dict) -> None:
        """Send a terminal result/error event; if the client is already
        gone the completed work is counted as an orphaned result —
        observed in the ledger, never silently dropped."""
        delivered = await conn.send(message)
        if not delivered:
            self.stats.orphaned_results += 1
            telemetry = telemetry_current()
            if telemetry.enabled:
                telemetry.metrics.inc("service.orphaned_results")

    # -- job-thread halves --------------------------------------------------

    def _resolve(self, spec: dict) -> tuple[RewriteJob, str]:
        """Build the job's binary and release key (job thread)."""
        from repro.elf.fileformat import load_binary_file
        from repro.telemetry.pipeline import resolve_workload

        if spec["workload"] is not None:
            binary = resolve_workload(spec["workload"],
                                      variant=spec["variant"],
                                      scale=spec["scale"])
        else:
            binary = load_binary_file(spec["path"])
        trials = (self.oracle_trials if self.oracle_trials is not None
                  else spec["oracle_trials"])
        job = RewriteJob(
            binary=binary,
            target=spec["target"],
            seed=spec["seed"],
            oracle_trials=trials,
            jobs=self.worker_budget,
            executor=self.executor,
            region_timeout=self.region_timeout,
        )
        return job, release_key(job)

    def _run_sync(self, job: RewriteJob, key: str, on_progress):
        """The pipeline proper (job thread)."""
        return run_job(job, cache=self.layout, slots=self.slots,
                       job_id=key, on_progress=on_progress)

    # -- progress fan-out ---------------------------------------------------

    def _fanout_progress(self, key: str, stage: str, info: dict) -> None:
        for conn, job_id in list(self._watchers.get(key, ())):
            message = {"event": "progress", "id": job_id, "key": key,
                       "stage": stage, **info}
            asyncio.ensure_future(conn.send_quiet(message))


class _Connection:
    """One client stream; writes serialized so concurrent jobs on the
    same connection never interleave frames."""

    def __init__(self, writer):
        self.writer = writer
        self.lock = asyncio.Lock()
        self.closed = False

    async def send(self, message: dict) -> bool:
        """Send one frame; False when the client is (or just went)
        away.  Callers of terminal events use the return value to
        count orphaned results instead of dropping them silently."""
        if self.closed:
            return False
        async with self.lock:
            try:
                await write_message(self.writer, message)
            except (ConnectionError, OSError):
                self.closed = True
                return False
        return True

    async def send_quiet(self, message: dict) -> None:
        """Best-effort send (progress events to maybe-gone clients)."""
        try:
            await self.send(message)
        except Exception:  # noqa: BLE001 - progress is best-effort
            self.closed = True


async def serve(
    layout: CacheLayout,
    *,
    socket_path: Optional[str] = None,
    host: str = "127.0.0.1",
    port: Optional[int] = None,
    ready=None,
    **service_options,
) -> ServiceStats:
    """Run a :class:`RewriteService` until shutdown; returns its stats.

    *service_options* are :class:`RewriteService`'s keyword arguments.
    ``ready`` (optional callable) fires with the bound address once the
    server is listening — the CLI prints it, tests latch onto it.
    """
    service = RewriteService(layout, **service_options)
    address = await service.start(socket_path=socket_path, host=host,
                                  port=port)
    if ready is not None:
        ready(address)
    await service.serve_until_shutdown()
    return service.stats
