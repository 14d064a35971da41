"""The one work-stealing core behind both heterogeneous schedulers.

Two worker pools (base cores / extension cores), one deque each.  A
worker takes the first ready task of its own pool and steals an
unpinned one from the other pool only when its own has nothing ready.
The fault tolerance lives here too: backoff retries under a
:class:`~repro.resilience.policy.RetryPolicy`, quarantine (at once for a
dead core, after ``quarantine_after`` flakes), degradation to the
surviving pool, and the drain that ends stranded tasks as structured
:class:`~repro.sim.faults.UnrecoverableFault` entries.  Every counter
goes to one run-local :class:`~repro.telemetry.MetricsRegistry`.

What a task *costs* is the engine's business.  Each engine passes
:meth:`StealingCore.run` one dispatch callback, which prices the task a
worker just took and reports the outcome back through
:meth:`~StealingCore.complete`, :meth:`~StealingCore.core_failed` or
the lower primitives: :class:`~repro.core.scheduler.WorkStealingScheduler`
from a ``SystemModel`` and a ``DesFailurePlan``,
:class:`~repro.core.machine_runner.MeasuredScheduler` by running the
task's binary and handing checkpoints back as :attr:`Pending.resume`.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.resilience.policy import (
    DEFAULT_RETRY_POLICY,
    ResilienceStats,
    RetryPolicy,
)
from repro.sim.faults import UnrecoverableFault
from repro.telemetry import MetricsRegistry, current as telemetry_current


@dataclass
class Pending:
    """A queued task plus its placement and retry state."""

    task: Any
    #: The pool the task belongs to (True = extension pool).
    home: bool
    #: May not be stolen across pools (e.g. a FAM-migrated task).
    pinned: bool = False
    #: May restart on the other pool when its own has no live core.
    fallback: bool = True
    #: Engine state that resumes the task on pool ``resume.pool_ext``
    #: only (a checkpoint); pins the task while set.
    resume: Any = None
    attempt: int = 1
    not_before: int = 0    # earliest dispatch time (backoff)
    first_start: Optional[int] = None

    @property
    def stealable(self) -> bool:
        return not self.pinned and self.resume is None


@dataclass
class StealingResult:
    """What every work-stealing run reports (times in cycles)."""

    system: str
    makespan: int          # end-to-end latency
    cpu_time: int          # accumulated busy cycles across all cores
    migrations: int
    steals: int
    #: Extension tasks in the input, and how many of them completed
    #: vector-accelerated (Fig. 12).
    ext_tasks: int
    accelerated_ext_tasks: int
    #: Tasks that ended in a structured UnrecoverableFault.
    unrecoverable: int
    #: task_id -> the UnrecoverableFault that ended it.
    task_faults: dict[int, UnrecoverableFault]
    quarantined_cores: tuple[int, ...]
    resilience: ResilienceStats

    @property
    def accelerated_share(self) -> float:
        """Fraction of extension tasks that ran accelerated (0 when the
        degradation ladder pushed them all to base cores)."""
        if self.ext_tasks == 0:
            return 0.0
        return self.accelerated_ext_tasks / self.ext_tasks


class StealingCore:
    """State and policy of one work-stealing run over two pools."""

    def __init__(self, n_base: int, n_ext: int, steal_cost: int,
                 policy: Optional[RetryPolicy], quarantine_after: int):
        n = n_base + n_ext
        self.is_ext = [i >= n_base for i in range(n)]
        self.steal_cost = steal_cost
        self.policy = policy or DEFAULT_RETRY_POLICY
        self.quarantine_after = quarantine_after
        self.queues: dict[bool, deque[Pending]] = {False: deque(), True: deque()}
        #: Time each worker is next free (its clock).
        self.clock = [0] * n
        self.busy = [0] * n
        self.heap: list[tuple[int, int]] = [(0, i) for i in range(n)]
        heapq.heapify(self.heap)
        self.idle: set[int] = set()
        self.outstanding = 0
        self.makespan = 0
        #: Single source of truth for every event counter of this run;
        #: the result ledger and ResilienceStats are *derived* from it.
        self.metrics = MetricsRegistry()
        self.quarantined: set[int] = set()
        self.flake_counts = [0] * n
        self.task_faults: dict[int, UnrecoverableFault] = {}

    # -- the loop ------------------------------------------------------------

    def run(self, pendings: list[Pending], dispatch: Callable) -> None:
        """Drive *pendings* to completion or structured failure, calling
        ``dispatch(worker, pending, stolen, now, start)`` per attempt."""
        for pending in pendings:
            self.queues[pending.home].append(pending)
        self.outstanding = len(pendings)
        while self.heap:
            now, w = heapq.heappop(self.heap)
            if w in self.quarantined:
                continue
            my_pool = self.is_ext[w]
            self.metrics.observe("sched.queue_depth", len(self.queues[my_pool]),
                                 pool="ext" if my_pool else "base")
            taken = self._take(my_pool, now)
            if taken is None:
                later = self._next_ready(my_pool, now)
                if later is not None:
                    # Work exists but is backing off; come back for it.
                    heapq.heappush(self.heap, (later, w))
                elif self.outstanding > 0:
                    self.park(w, now)
                continue
            pending, stolen = taken
            start = now + (self.steal_cost if stolen else 0)
            if pending.first_start is None:
                pending.first_start = start
            dispatch(w, pending, stolen, now, start)

        # Drain: anything still queued has no live worker to run it.
        for pool in (False, True):
            while self.queues[pool]:
                pending = self.queues[pool].popleft()
                self.give_up(pending, f"task {pending.task.task_id}: stranded — "
                                      "no live core can run it")

    def _take(self, my_pool: bool, now: int) -> Optional[tuple[Pending, bool]]:
        """Own pool first; steal from the other only when it is dry."""
        own = self.queues[my_pool]
        for idx, pending in enumerate(own):
            if pending.not_before <= now:
                del own[idx]
                return pending, False
        other = self.queues[not my_pool]
        for idx, pending in enumerate(other):
            if pending.stealable and pending.not_before <= now:
                del other[idx]
                return pending, True
        return None

    def _next_ready(self, my_pool: bool, now: int) -> Optional[int]:
        """Earliest not_before of work this worker could run later."""
        times = [p.not_before for p in self.queues[my_pool] if p.not_before > now]
        times += [p.not_before for p in self.queues[not my_pool]
                  if p.stealable and p.not_before > now]
        return min(times, default=None)

    def _wake(self, pool: bool, when: int) -> None:
        """Wake an idle live worker, preferring *pool*'s flavor (a worker
        of the other flavor can steal the work)."""
        for prefer in (True, False):
            ready = sorted(
                (w for w in self.idle
                 if w not in self.quarantined and (self.is_ext[w] == pool) == prefer),
                key=lambda w: self.clock[w],
            )
            if ready:
                w = ready[0]
                self.idle.discard(w)
                heapq.heappush(self.heap, (max(when, self.clock[w]), w))
                return

    # -- outcomes the dispatch callback reports ------------------------------

    def pool_live(self, pool: bool) -> bool:
        return any(ext == pool and w not in self.quarantined
                   for w, ext in enumerate(self.is_ext))

    def park(self, w: int, now: int) -> None:
        """Worker *w* goes idle until a wake."""
        self.idle.add(w)
        self.clock[w] = now

    def resume_at(self, w: int, when: int) -> None:
        """Worker *w* is free again at *when*."""
        self.clock[w] = when
        heapq.heappush(self.heap, (when, w))

    def occupy(self, w: int, end: int, burned: int) -> None:
        """Worker *w* burned *burned* cycles and is free again at *end*."""
        self.busy[w] += burned
        self.makespan = max(self.makespan, end)
        self.resume_at(w, end)

    def complete(self, w: int, now: int, end: int) -> None:
        """The task taken at *now* finished on *w* at *end*."""
        self.outstanding -= 1
        self.occupy(w, end, end - now)

    def enqueue(self, pending: Pending, pool: bool, when: int) -> None:
        self.queues[pool].append(pending)
        self._wake(pool, when)

    def give_up(self, pending: Pending, reason: str) -> None:
        """End *pending* in a structured UnrecoverableFault entry."""
        self.metrics.inc("resilience.unrecoverable_tasks")
        self.task_faults[pending.task.task_id] = UnrecoverableFault(
            reason, attempts=pending.attempt)
        self.outstanding -= 1

    def core_failed(self, w: int, pending: Pending, now: int, end: int,
                    how: str, *, dead: bool,
                    resume: Any = None) -> Optional[Pending]:
        """Worker *w* went *how* at *end* while running *pending*:
        quarantine it (at once when *dead*, else past the flake
        threshold) and schedule the retry."""
        self.metrics.inc("resilience.core_faults", core=w)
        self.busy[w] += end - now
        self.makespan = max(self.makespan, end)
        if not dead:
            self.flake_counts[w] += 1
        if dead or self.flake_counts[w] >= self.quarantine_after:
            self._quarantine(w, end)
        else:
            self.resume_at(w, end)
        return self.retry(pending, end, f"core {w} went {how} mid-task", resume)

    def retry(self, pending: Pending, now: int, reason: str,
              resume: Any = None) -> Optional[Pending]:
        """Schedule a retry after a failed attempt (resuming from *resume*
        when given), or give up; returns the re-queued entry."""
        task = pending.task
        attempt = pending.attempt + 1
        if self.policy.exhausted(attempt):
            self.give_up(pending, f"task {task.task_id}: {reason}; retry budget "
                                  f"exhausted after {pending.attempt} attempts")
            return None
        if pending.first_start is not None and self.policy.past_deadline(
                pending.first_start, now):
            self.give_up(pending, f"task {task.task_id}: {reason}; past the "
                                  f"{self.policy.deadline}-cycle deadline")
            return None
        pool = resume.pool_ext if resume is not None else pending.home
        pinned = pending.pinned
        if not self.pool_live(pool):
            # Degradation ladder: restart from entry on the surviving
            # flavor, when the task has an image for it.
            if not pending.fallback or not self.pool_live(not pool):
                self.give_up(pending, f"task {task.task_id}: {reason}; no live "
                                      "core can run it")
                return None
            pool = not pool
            pinned = False
            resume = None
        backoff = self.policy.backoff(attempt - 1)
        self.metrics.inc("resilience.retries")
        self.metrics.inc("resilience.backoff_cycles", backoff)
        self.metrics.inc("resilience.migrations")
        retried = Pending(task, pending.home, pinned=pinned,
                          fallback=pending.fallback, resume=resume,
                          attempt=attempt, not_before=now + backoff,
                          first_start=pending.first_start)
        self.enqueue(retried, pool, now + backoff)
        return retried

    def _quarantine(self, w: int, now: int) -> None:
        if w in self.quarantined:
            return
        self.quarantined.add(w)
        self.metrics.inc("resilience.quarantines")
        pool = self.is_ext[w]
        if self.pool_live(pool):
            return
        # The pool just lost its last live core.  Tasks held here only by
        # their resume state restart from entry on the other flavor;
        # stealable work moves naturally; pinned work hits the drain.
        queue, kept = self.queues[pool], deque()
        while queue:
            pending = queue.popleft()
            if pending.resume is not None and pending.fallback \
                    and self.pool_live(not pool):
                self.metrics.inc("resilience.restarts", reason="pool-lost")
                pending.resume = None
                self.enqueue(pending, not pool, max(now, pending.not_before))
            else:
                kept.append(pending)
        queue.extend(kept)

    # -- the ledger ----------------------------------------------------------

    def finish(self, result_cls: type, system: str, tasks: list, *,
               engine: str, **extra):
        """The run's *result_cls* ledger (plus the engine's *extra*
        fields); publishes this run's metrics to the active telemetry
        session under ``engine``/``system`` labels."""
        m = self.metrics
        telemetry = telemetry_current()
        if telemetry.enabled:
            telemetry.metrics.merge(m, engine=engine, system=system)
        stats = ResilienceStats.from_metrics(m)
        return result_cls(
            system=system,
            makespan=self.makespan,
            cpu_time=sum(self.busy),
            migrations=m.total("sched.migrations"),
            steals=m.total("sched.steals"),
            ext_tasks=sum(1 for t in tasks if t.kind == "ext"),
            accelerated_ext_tasks=m.total("sched.accelerated_ext_tasks"),
            unrecoverable=stats.unrecoverable_tasks,
            task_faults=self.task_faults,
            quarantined_cores=tuple(sorted(self.quarantined)),
            resilience=stats,
            **extra,
        )
