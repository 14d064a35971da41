"""Fault-isolated process pool for per-region verification.

The per-region admission checks (and above all the differential oracle)
are pure-Python, CPU-bound work, so a thread pool never scales past one
core.  :class:`FaultIsolatedPool` dispatches picklable
:class:`RegionWorkItem` tasks to worker *processes* and treats every
worker failure as a structured, attributable event:

* a worker that **dies** mid-region (segfault-equivalent raise deep in
  the oracle, OOM-style kill) is attributed to the exact region it was
  verifying and respawned — ``worker-crash``;
* a worker that **hangs** past the wall-clock ``region_timeout`` is
  killed by the watchdog and respawned — ``worker-hang``;
* an exception the worker catches itself comes back as a structured
  ``verify-error`` message, never a raw traceback.

Failed regions are re-dispatched under a
:class:`~repro.resilience.policy.RetryPolicy` (exponential backoff,
attempt budget); a region that exhausts its budget is *quarantined* and
reported to the caller, which degrades it (trap fallback or exclusion)
instead of aborting the release.

Determinism: workers are forked, so each one inherits the parent's
already-built :class:`~repro.verify.admission.AdmissionGate` — nothing
is pickled or rebuilt, and a worker is ready the moment it starts.  The
gate resolved its seed once before fan-out, and every work item carries
that seed too, so a mid-run ``REPRO_FUZZ_SEED`` change can never make
process workers drift from a serial run.  Verdicts depend only on
``(gate, region index)``, so the results are byte-identical no matter
which worker or attempt produced them.  A host without the ``fork``
start method raises :class:`PoolBrokenError`, which the gate turns into
its serial fallback.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from multiprocessing import connection as mp_connection
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from repro.resilience.failures import (
    RESOLVED_QUARANTINED,
    WORKER_CRASH,
    WORKER_HANG,
    VERIFY_ERROR,
    DeadlineExceededError,
    RegionFault,
)
from repro.resilience.policy import PIPELINE_RETRY_POLICY, RetryPolicy

#: Parent-loop poll tick (seconds): outbox waits and watchdog checks.
_TICK = 0.05
#: Grace after terminate() before escalating to kill().
_KILL_GRACE = 1.0
#: Consecutive pre-ready worker deaths (with no work dispatched) before
#: the pool declares itself broken and the caller falls back in-process.
_MAX_STILLBIRTHS = 3


class PoolBrokenError(RuntimeError):
    """The pool could not be brought up (workers die before ready)."""


class WorkerSlotArbiter:
    """Fair division of one machine-wide worker budget across live jobs.

    The batch service (`python -m repro serve`) runs many
    ``rewrite_and_verify`` jobs concurrently, each of which would
    otherwise fork its own ``jobs``-sized pool and oversubscribe the
    box.  Every job registers here instead, and each job's
    :class:`FaultIsolatedPool` asks for its **allowance** before
    (re)spawning workers: with ``J`` live jobs on a ``total``-slot
    budget a job may run up to ``max(1, total // J)`` workers.  Pools
    re-consult the arbiter every scheduling tick, so when a job
    finishes, the survivors grow into the freed slots, and when new
    jobs arrive, idle workers are retired down to the fair share —
    the whole machine stays saturated without ever stacking ``J *
    jobs`` processes.

    Thread-safe: jobs register/ask from concurrent driver threads.
    """

    def __init__(self, total: int):
        self.total = max(1, int(total))
        self._lock = threading.Lock()
        self._active: set = set()

    def register(self, job_id) -> None:
        with self._lock:
            self._active.add(job_id)

    def unregister(self, job_id) -> None:
        with self._lock:
            self._active.discard(job_id)

    @property
    def active_jobs(self) -> int:
        with self._lock:
            return len(self._active)

    def allowance(self, want: Optional[int] = None) -> int:
        """Worker slots one job may hold right now (>= 1 always, so a
        wave of tiny jobs can never starve anyone to zero)."""
        with self._lock:
            share = max(1, self.total // max(1, len(self._active)))
        return share if want is None else max(1, min(want, share))


@dataclass(frozen=True)
class RegionWorkItem:
    """One picklable unit of verification work.

    The resolved trial seed is hoisted into the item so a worker can
    cross-check it against its gate — process workers must never
    re-derive the seed from the environment mid-run.
    """

    index: int
    start: int
    end: int
    kind: str
    seed: int
    attempt: int = 1

    def retried(self) -> "RegionWorkItem":
        return replace(self, attempt=self.attempt + 1)


@dataclass
class RegionOutcome:
    """What the pool concluded about one region."""

    index: int
    #: ``RegionVerdict.as_dict()`` payload; None when quarantined.
    verdict: Optional[dict] = None
    oracle_ran: bool = False
    faults: list[RegionFault] = field(default_factory=list)

    @property
    def quarantined(self) -> bool:
        return self.verdict is None


def _worker_main(worker_id: int, inbox, outbox, gate) -> None:
    """Worker entry: verify region by region on the inherited gate.

    ``outbox`` is this worker's *private* pipe end — results never cross
    a lock shared with other workers, so an OOM-style kill mid-message
    can corrupt only this worker's own channel (see ``_drain``).
    """
    outbox.send(("ready", worker_id, None, None))
    while True:
        item = inbox.get()
        if item is None:
            return
        try:
            if item.seed != gate.seed:
                raise RuntimeError(
                    f"seed drift: work item carries {item.seed}, worker gate "
                    f"resolved {gate.seed}")
            verdict, oracle_ran = gate.verify_region_once(
                item.index, attempt=item.attempt)
            outbox.send(("verdict", worker_id, item.index,
                         (verdict.as_dict(), oracle_ran)))
        except Exception as exc:  # noqa: BLE001 - structured, not raw
            outbox.send(("error", worker_id, item.index,
                         f"{type(exc).__name__}: {exc}"))


class _Worker:
    """Parent-side handle for one worker process.

    Each worker reports back over its **own** one-way pipe rather than a
    queue shared by the whole pool: a shared ``multiprocessing.Queue``
    has one writer lock, and a worker SIGKILLed while its feeder thread
    holds it leaves the semaphore acquired forever — every later worker
    (including freshly spawned replacements) then blocks trying to send
    ``ready`` and the pool spins without ever dispatching again.  With
    private pipes a dying worker can only ever corrupt its own channel.
    """

    def __init__(self, ctx, worker_id: int, gate):
        self.id = worker_id
        self.inbox = ctx.Queue()
        self.conn, child_conn = ctx.Pipe(duplex=False)
        self.process = ctx.Process(
            target=_worker_main,
            args=(worker_id, self.inbox, child_conn, gate),
            daemon=True,
        )
        self.process.start()
        # Drop the parent's copy of the send end immediately: EOF on
        # `conn` then tracks the worker's lifetime, and workers forked
        # later cannot inherit this worker's send end.
        child_conn.close()
        self.item: Optional[RegionWorkItem] = None
        self.deadline: Optional[float] = None
        self.ready = False
        self.dispatched = 0

    def dispatch(self, item: RegionWorkItem, timeout: Optional[float]) -> None:
        self.item = item
        self.deadline = (time.monotonic() + timeout) if timeout else None
        self.dispatched += 1
        self.inbox.put(item)

    def settle(self) -> None:
        self.item = None
        self.deadline = None

    def stop(self) -> None:
        """Best-effort shutdown: sentinel, short join, then kill."""
        try:
            self.inbox.put(None)
        except (ValueError, OSError):  # queue already closed
            pass
        self.process.join(timeout=_KILL_GRACE)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=_KILL_GRACE)
            if self.process.is_alive():
                self.process.kill()
                self.process.join()
        self.inbox.close()
        self.inbox.cancel_join_thread()
        self.close_conn()

    def kill(self) -> None:
        """Hard-kill (watchdog path): no sentinel, no grace."""
        self.process.terminate()
        self.process.join(timeout=_KILL_GRACE)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()
        self.inbox.close()
        self.inbox.cancel_join_thread()
        self.close_conn()

    def close_conn(self) -> None:
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass


class FaultIsolatedPool:
    """Crash-/hang-tolerant process pool over region work items.

    *gate* is the parent's built admission gate; forked workers verify
    on their inherited copy of it.
    """

    def __init__(
        self,
        gate,
        jobs: int,
        *,
        region_timeout: Optional[float] = None,
        retry_policy: Optional[RetryPolicy] = None,
        telemetry=None,
        labels: Optional[dict] = None,
        slots: Optional[WorkerSlotArbiter] = None,
        job_id=None,
        deadline: Optional[float] = None,
    ):
        self.gate = gate
        self.jobs = max(1, jobs)
        self.region_timeout = region_timeout
        #: Absolute ``time.monotonic()`` instant the run must not
        #: outlive; checked each scheduling tick.  Expiry raises
        #: :class:`~repro.resilience.failures.DeadlineExceededError`
        #: *after* already-settled regions reached ``on_complete`` (and
        #: through it the run journal), so an expired job resumes.
        self.deadline = deadline
        self.policy = retry_policy or PIPELINE_RETRY_POLICY
        self.telemetry = telemetry
        self.labels = labels or {}
        #: Optional machine-wide slot arbiter (the serve path): the pool
        #: grows and shrinks to its fair share instead of holding
        #: ``jobs`` workers unconditionally.
        self.slots = slots
        self.job_id = job_id if job_id is not None else id(self)
        try:
            self.ctx = multiprocessing.get_context("fork")
        except ValueError as exc:
            raise PoolBrokenError(f"no fork start method: {exc}") from None

    def _inc(self, name: str, **extra) -> None:
        if self.telemetry is not None and self.telemetry.enabled:
            self.telemetry.metrics.inc(name, **self.labels, **extra)

    def run(
        self,
        items: list[RegionWorkItem],
        on_complete: Optional[Callable[[RegionOutcome], None]] = None,
    ) -> list[RegionOutcome]:
        """Verify every item; returns outcomes in submission order.

        ``on_complete`` fires (on the caller's thread) the moment each
        region settles — verdicts reach the run journal before a crash
        of the *driver* can lose them.
        """
        outcomes: dict[int, RegionOutcome] = {}
        faults: dict[int, list[RegionFault]] = {item.index: [] for item in items}
        pending: deque[RegionWorkItem] = deque(items)
        delayed: list[tuple[float, RegionWorkItem]] = []
        workers: dict[int, _Worker] = {}
        next_id = 0
        #: Consecutive pre-ready deaths; any ready handshake resets it.
        state = {"stillbirths": 0}
        total = len(items)

        def spawn() -> _Worker:
            nonlocal next_id
            worker = _Worker(self.ctx, next_id, self.gate)
            workers[worker.id] = worker
            next_id += 1
            return worker

        def settle(idx: int, verdict: Optional[dict], oracle_ran: bool) -> None:
            outcome = RegionOutcome(idx, verdict, oracle_ran, faults[idx])
            outcomes[idx] = outcome
            if on_complete is not None:
                on_complete(outcome)

        def fail(worker: Optional[_Worker], item: RegionWorkItem,
                 kind: str, detail: str) -> None:
            fault = RegionFault(
                start=item.start, end=item.end, region_kind=item.kind,
                fault=kind, attempt=item.attempt, detail=detail,
                worker=worker.id if worker is not None else None)
            faults[item.index].append(fault)
            if self.policy.exhausted(item.attempt + 1):
                fault.resolution = RESOLVED_QUARANTINED
                self._inc("pipeline.regions_quarantined")
                settle(item.index, None, False)
            else:
                self._inc("pipeline.region_retries")
                ready_at = (time.monotonic()
                            + self.policy.backoff_seconds(item.attempt))
                delayed.append((ready_at, item.retried()))

        if self.slots is not None:
            self.slots.register(self.job_id)
        for _ in range(min(self._allowance(), total)):
            spawn()
        try:
            while len(outcomes) < total:
                now = time.monotonic()
                if self.deadline is not None and now > self.deadline:
                    raise DeadlineExceededError(
                        f"job deadline expired with "
                        f"{total - len(outcomes)} region(s) unsettled")
                for ready_at, item in list(delayed):
                    if ready_at <= now:
                        delayed.remove((ready_at, item))
                        pending.append(item)
                self._rebalance(workers, spawn, pending)
                for worker in workers.values():
                    # Dispatch only after the ready handshake: a worker
                    # holding an item is then *by construction* ready, so
                    # a death with an item is always a real region crash
                    # and a pre-ready death is always a stillbirth.
                    if worker.ready and worker.item is None and pending:
                        worker.dispatch(pending.popleft(), self.region_timeout)
                self._drain(workers, outcomes, settle, fail, state)
                self._reap(workers, spawn, fail, state, pending, delayed,
                           outcomes, settle)
                if state["stillbirths"] >= _MAX_STILLBIRTHS:
                    raise PoolBrokenError(
                        f"{state['stillbirths']} workers died before becoming "
                        "ready; pool setup is broken")
        finally:
            if self.slots is not None:
                self.slots.unregister(self.job_id)
            for worker in list(workers.values()):
                worker.stop()
        return [outcomes[item.index] for item in items]

    # -- parent loop helpers ------------------------------------------------

    def _allowance(self) -> int:
        """How many workers this pool may hold right now."""
        if self.slots is None:
            return self.jobs
        return self.slots.allowance(self.jobs)

    def _rebalance(self, workers, spawn, pending) -> None:
        """Grow into freed arbiter slots; retire idle workers past the
        fair share.  A worker holding an item is never retired — shrink
        is lazy, so fairness converges at region granularity."""
        if self.slots is None:
            return
        target = self._allowance()
        while len(workers) < target and pending:
            spawn()
        if len(workers) > target:
            for worker in list(workers.values()):
                if len(workers) <= target:
                    break
                if worker.ready and worker.item is None:
                    del workers[worker.id]
                    worker.stop()
                    self._inc("pipeline.workers_retired")

    def _drain(self, workers, outcomes, settle, fail, state) -> None:
        """Pull every delivered message, waiting up to one tick for the
        first.  Each worker is read over its private pipe; a channel
        torn mid-message (worker killed mid-``send``) is simply dropped
        here — ``_reap`` attributes the death itself."""
        conns = {w.conn: w for w in workers.values()}
        if not conns:
            time.sleep(_TICK)
            return
        for conn in mp_connection.wait(list(conns), timeout=_TICK):
            self._drain_conn(conns[conn], workers, outcomes, settle, fail,
                             state)

    def _drain_conn(self, worker, workers, outcomes, settle, fail,
                    state) -> None:
        """Deliver every complete message currently in one worker's pipe."""
        conn = worker.conn
        while True:
            try:
                if not conn.poll():
                    return
                message = conn.recv()
            except (EOFError, OSError):
                return  # torn channel; the death is _reap's to attribute
            kind, worker_id, idx, body = message
            sender = workers.get(worker_id)
            if kind == "ready":
                state["stillbirths"] = 0
                if sender is not None:
                    sender.ready = True
                continue
            if idx is None or idx in outcomes:
                continue  # stale message from a worker the watchdog retired
            item = worker.item if (worker.item is not None
                                   and worker.item.index == idx) else None
            if item is not None:
                worker.settle()
            if kind == "verdict":
                verdict, oracle_ran = body
                settle(idx, verdict, oracle_ran)
            elif kind == "error" and item is not None:
                self._inc("pipeline.verify_errors")
                fail(worker, item, VERIFY_ERROR, body)

    def _reap(self, workers, spawn, fail, state, pending, delayed,
              outcomes, settle) -> None:
        """Crash and hang detection; respawns replacements."""
        now = time.monotonic()
        for worker in list(workers.values()):
            if not worker.process.is_alive():
                # Deliver any last words first: a worker that sent its
                # verdict and then died settled the region, so its death
                # is an idle death, not a region crash.
                self._drain_conn(worker, workers, outcomes, settle, fail,
                                 state)
                del workers[worker.id]
                victim = worker.item
                exitcode = worker.process.exitcode
                worker.inbox.close()
                worker.inbox.cancel_join_thread()
                worker.close_conn()
                if victim is not None:
                    self._inc("pipeline.worker_crashes")
                    fail(worker, victim, WORKER_CRASH,
                         f"worker process died (exit code {exitcode})")
                elif not worker.ready:
                    state["stillbirths"] += 1
                if pending or delayed or any(w.item for w in workers.values()) \
                        or victim is not None:
                    spawn()
            elif (worker.deadline is not None and now > worker.deadline
                    and worker.item is not None):
                # A verdict racing the watchdog wins: drain before
                # condemning, and spare the worker if the region settled.
                self._drain_conn(worker, workers, outcomes, settle, fail,
                                 state)
                if worker.item is None:
                    continue
                victim = worker.item
                del workers[worker.id]
                worker.kill()
                self._inc("pipeline.worker_hangs")
                fail(worker, victim, WORKER_HANG,
                     f"watchdog killed worker after {self.region_timeout:.1f}s")
                spawn()
