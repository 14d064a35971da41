"""Heterogeneous work-stealing scheduling (paper §6.1).

The evaluation's scheduling experiments run 1000 mixed tasks over two
worker pools (base cores / extension cores) with work stealing: a worker
takes from its own pool's queue first and steals from the other pool
only when its own pool has run dry.  Task *costs* are measured by
running the actual (rewritten) binaries in the CPU simulator; the
discrete-event engine here then replays the same 1000-task mixes per
system, which is exactly how the paper's numbers are shaped (per-task
compute is fixed by the binary; the systems differ in where tasks may
run and at what cost).

System behavior (per-placement cost, acceleration, FAM's
fault-and-migrate) is abstracted by :class:`SystemModel`.  The queues,
stealing, retries, quarantine and degradation ladder are
:class:`~repro.core.stealing.StealingCore`'s, shared with the measured
runner (:mod:`repro.core.machine_runner`).  A
:class:`~repro.resilience.failures.DesFailurePlan` kills or flakes
workers mid-task; the DES models core/task failures only, per-patch
healing being below its cost-model resolution.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.core.stealing import Pending, StealingCore, StealingResult
from repro.resilience.failures import DesFailurePlan
from repro.resilience.policy import RetryPolicy
from repro.resilience.seeds import resolve_seed
from repro.sim.cost import ArchParams, DEFAULT_ARCH


@dataclass(frozen=True)
class Task:
    """One schedulable unit of the §6.1 workload."""

    task_id: int
    kind: str  # "base" | "ext"


@dataclass
class SystemModel:
    """Per-system scheduling behavior (costs in cycles)."""

    name: str
    #: (task kind, on extension core) -> cycles, or None if it cannot run
    #: there (e.g. FAM's extension tasks on base cores).
    costs: dict[tuple[str, bool], Optional[int]]
    #: placements that count as vector-accelerated.
    accelerated_placements: frozenset[tuple[str, bool]] = frozenset()
    #: FAM: the task faults on a base core after ``detect_cycles`` and
    #: migrates to the extension pool, paying the migration cost.
    migrate_on_unsupported: bool = False
    #: cycles a base core burns before hitting the unsupported instruction.
    detect_cycles: int = 1000

    def cost(self, kind: str, on_ext: bool) -> Optional[int]:
        return self.costs[(kind, on_ext)]

    def accelerated(self, kind: str, on_ext: bool) -> bool:
        return (kind, on_ext) in self.accelerated_placements


@dataclass
class ScheduleResult(StealingResult):
    """Outcome of one discrete-event scheduling run."""

    tasks_total: int = 0
    per_core_busy: list[int] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return self.tasks_total - self.unrecoverable


class WorkStealingScheduler:
    """Discrete-event work-stealing scheduler over two core pools.

    The policy is :class:`~repro.core.stealing.StealingCore`'s; this
    engine only prices each attempt from the :class:`SystemModel` and
    strikes it from the failure plan.
    """

    def __init__(self, n_base: int, n_ext: int, params: ArchParams = DEFAULT_ARCH):
        self.n_base = n_base
        self.n_ext = n_ext
        self.params = params

    def run(self, tasks: list[Task], model: SystemModel, *,
            failures: Optional[DesFailurePlan] = None,
            retry_policy: Optional[RetryPolicy] = None,
            quarantine_after: int = 2) -> ScheduleResult:
        """Schedule *tasks* to completion under *model*."""
        core = StealingCore(self.n_base, self.n_ext, self.params.steal_cost,
                            retry_policy, quarantine_after)
        m = core.metrics

        def pending(task: Task) -> Pending:
            # Extension tasks go to the extension pool when it can help;
            # everything else starts in the base pool.
            home = task.kind == "ext" and model.cost("ext", True) is not None
            fallback = (model.cost(task.kind, not home) is not None
                        or model.migrate_on_unsupported)
            return Pending(task, home, fallback=fallback)

        def dispatch(w: int, pending: Pending, stolen: bool, now: int,
                     start: int) -> None:
            task = pending.task
            my_pool = core.is_ext[w]
            cost = model.cost(task.kind, my_pool)
            if cost is None:
                if model.migrate_on_unsupported and not my_pool:
                    # FAM: fault after detect_cycles, migrate to ext pool
                    # and pin the task there so it is not re-stolen.  The
                    # worker is stalled until the migration completes but
                    # only the detection burns CPU time (the rest is
                    # kernel/cache latency).
                    end = start + model.detect_cycles + self.params.migration_cost
                    core.occupy(w, end, (start - now) + model.detect_cycles)
                    if not core.pool_live(True):
                        # No live extension core and no downgraded binary:
                        # structured failure, not a silent drop.
                        core.give_up(pending, f"task {task.task_id}: needs an "
                                              "extension core but none is live")
                        return
                    m.inc("sched.migrations", reason="fam-unsupported")
                    core.enqueue(replace(pending, pinned=True, not_before=0),
                                 True, end)
                    return
                # Cannot run here at all: pin it to its own pool — unless
                # that pool has no live worker, in which case the task is
                # unrunnable and must be accounted, not parked forever.
                home = task.kind == "ext"
                if not core.pool_live(home):
                    core.give_up(pending, f"task {task.task_id}: cannot run on "
                                          "this core flavor and its own pool "
                                          "has no live worker")
                    core.park(w, now)
                    return
                pending.pinned = True
                core.park(w, now)
                core.enqueue(pending, home, now)
                return

            # The worker may fail mid-task (resilience failure plan).
            struck = failures.check(w, start) if failures is not None else None
            if struck is not None:
                burn = int(cost * failures.fail_fraction)
                core.core_failed(w, pending, now, start + burn, struck,
                                 dead=struck == "kill")
                return
            if stolen:
                m.inc("sched.steals", core=w)
            if task.kind == "ext" and model.accelerated(task.kind, my_pool):
                m.inc("sched.accelerated_ext_tasks")
            core.complete(w, now, start + cost)

        core.run([pending(task) for task in tasks], dispatch)
        return core.finish(ScheduleResult, model.name, tasks, engine="des",
                           tasks_total=len(tasks), per_core_busy=core.busy)


def mixed_taskset(n_tasks: int, ext_share: float, *,
                  seed: Optional[int] = None) -> list[Task]:
    """The §6.1 workload: *n_tasks* tasks, ``ext_share`` of them extension.

    Deterministic interleaving (round-robin by share) so runs are
    reproducible without RNG-order artifacts.  *seed* (default:
    ``REPRO_FUZZ_SEED``, else 7) only affects the rare rounding-drift
    repair — the common shares are seed-independent by construction.
    """
    if not 0.0 <= ext_share <= 1.0:
        raise ValueError("ext_share must be within [0, 1]")
    seed = resolve_seed(seed, default=7)
    n_ext = round(n_tasks * ext_share)
    # Spread extension tasks evenly through the arrival order.
    tasks: list[Task] = []
    acc = 0.0
    made_ext = 0
    for i in range(n_tasks):
        acc += ext_share
        if acc >= 1.0 - 1e-9 and made_ext < n_ext:
            tasks.append(Task(i, "ext"))
            made_ext += 1
            acc -= 1.0
        else:
            tasks.append(Task(i, "base"))
    # Fix rounding drift: promote seed-chosen base tasks to extension.
    if made_ext < n_ext:
        rng = random.Random(seed)
        base_positions = [i for i, t in enumerate(tasks) if t.kind == "base"]
        for i in rng.sample(base_positions, n_ext - made_ext):
            tasks[i] = Task(tasks[i].task_id, "ext")
    return tasks
