"""Measured-execution heterogeneous scheduling.

The discrete-event engine in :mod:`repro.core.scheduler` replays *one*
measured cost per (system, task kind, core kind) cell.  This module is
the heavyweight cross-check: every task is a *real binary* (its own
size, its own rewritten variants) executed through the full simulator
stack — CHBP-rewritten images, Chimera runtime fault handling, FAM
migration with architectural context transfer — under the same
work-stealing policy.  Benchmarks compare the two engines' makespans to
validate the DES abstraction (EXPERIMENTS.md deviation #6).

The policy, fault tolerance included, is
:class:`~repro.core.stealing.StealingCore`'s.  This engine's part is the
cost source: it runs each attempt with ``run_task_on_core`` and hands a
core failure's checksummed checkpoint back as the retry's resume state,
so the task resumes on the same pool flavor or restarts from entry.
Chimera tasks run under ``ChimeraRuntime(self_heal=True)``: a fault
inside one patched region quarantines just that patch
(``resilience.patch_rollbacks``) and the task keeps running, so task
retry, core quarantine and pool downgrade only engage when healing
cannot contain the damage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

from repro.baselines.safer import SaferRewriter, SaferRuntime
from repro.core.rewriter import ChimeraRewriter
from repro.core.runtime import ChimeraRuntime
from repro.core.stealing import Pending, StealingCore, StealingResult
from repro.elf.binary import Binary
from repro.isa.extensions import RV64GC, RV64GCV
from repro.resilience.executor import run_task_on_core
from repro.resilience.failures import CoreFailureInjector
from repro.resilience.policy import RetryPolicy
from repro.resilience.seeds import resolve_seed
from repro.sim.cost import ArchParams, DEFAULT_ARCH
from repro.sim.faults import IllegalInstructionFault
from repro.sim.machine import Core

#: Systems the measured runner implements.
SYSTEMS = ("fam", "melf", "chimera", "safer")

#: Rewriter and installed runtime of each rewriting system.  self_heal:
#: an unexpected fault in a patched region quarantines that one patch
#: (verified patching) instead of killing the task with
#: UnrecoverableFault.
_REWRITING = {
    "chimera": (ChimeraRewriter,
                lambda binary: ChimeraRuntime(binary, self_heal=True)),
    "safer": (SaferRewriter, SaferRuntime),
}


@dataclass(frozen=True)
class HeteroTask:
    """One §6.1-style task with its own size."""

    task_id: int
    kind: str   # "base" (fibonacci) | "ext" (matmul)
    size: int   # fib iterations / matrix dimension


@dataclass
class MeasuredRunResult(StealingResult):
    """Outcome of one measured-execution scheduling run."""

    #: Tasks that finished with a wrong result.
    failures: int = 0
    per_task_cycles: dict[int, int] = field(default_factory=dict)

    @property
    def completed(self) -> int:
        return len(self.per_task_cycles)


def _build_task_binary(kind: str, size: int, variant: str) -> Binary:
    from repro.workloads.programs import FibonacciWorkload, MatMulWorkload

    if kind == "base":
        return FibonacciWorkload(iterations=size).build(variant)
    return MatMulWorkload(n=size).build(variant)


@lru_cache(maxsize=512)
def _prepared_binary(system: str, kind: str, size: int, on_ext: bool) -> Binary:
    """The binary one (system, task, core flavor) cell runs."""
    if system == "melf":
        variant = "ext" if (kind == "ext" and on_ext) else "base"
        return _build_task_binary(kind, size, variant)
    if system == "fam":
        # FAM always runs the extension-compiled binary as-is.
        variant = "ext" if kind == "ext" else "base"
        return _build_task_binary(kind, size, variant)
    source = _build_task_binary(kind, size, "ext" if kind == "ext" else "base")
    rewriter, _ = _REWRITING[system]
    return rewriter().rewrite(source, RV64GCV if on_ext else RV64GC).binary


class MeasuredScheduler:
    """Work-stealing over real task executions (same policy as the DES)."""

    def __init__(self, n_base: int, n_ext: int, params: ArchParams = DEFAULT_ARCH,
                 *, max_instructions: int = 5_000_000,
                 max_steps: Optional[int] = None):
        self.n_base = n_base
        self.n_ext = n_ext
        self.params = params
        self.max_instructions = max_instructions
        #: Kernel-entry watchdog budget per execution (None = default).
        self.max_steps = max_steps

    def run(self, tasks: list[HeteroTask], system: str, *,
            injector: Optional[CoreFailureInjector] = None,
            retry_policy: Optional[RetryPolicy] = None,
            quarantine_after: int = 2) -> MeasuredRunResult:
        if system not in SYSTEMS:
            raise ValueError(f"unknown system {system!r}")
        core = StealingCore(self.n_base, self.n_ext, self.params.steal_cost,
                            retry_policy, quarantine_after)
        m = core.metrics
        cores = [Core(i, RV64GCV if ext else RV64GC, self.params)
                 for i, ext in enumerate(core.is_ext)]
        per_task: dict[int, int] = {}

        def count_restart(retried: Optional[Pending]) -> None:
            # The rewritten image differs per flavor, so a retry that
            # carries no checkpoint restarts from entry.
            if retried is not None and retried.resume is None:
                m.inc("resilience.restarts", reason="no-checkpoint")

        def dispatch(w: int, pending: Pending, stolen: bool, now: int,
                     start: int) -> None:
            task = pending.task
            my_pool = core.is_ext[w]
            if stolen:
                m.inc("sched.steals", core=w)
            checkpoint = pending.resume
            if checkpoint is not None:
                if injector is not None and injector.migration_dropped(task.task_id):
                    # MigrationLostFault territory: the in-flight image is
                    # gone; structured accounting, restart from entry.
                    m.inc("resilience.migrations_lost")
                    m.inc("resilience.restarts", reason="migration-lost")
                    checkpoint = None
                elif checkpoint.pool_ext != my_pool:
                    # Foreign-flavor image; restart from entry here.
                    m.inc("resilience.restarts", reason="foreign-flavor")
                    checkpoint = None

            fail_event = (injector.plan_execution(w, task.task_id, task.kind)
                          if injector is not None else None)

            binary = _prepared_binary(system, task.kind, task.size, my_pool)
            factory = None
            if system in _REWRITING:
                def factory(kernel):
                    runtime = _REWRITING[system][1](binary)
                    runtime.install(kernel)
                    return runtime
            execution = run_task_on_core(
                binary, factory, cores[w], task_id=task.task_id,
                arch=self.params, max_instructions=self.max_instructions,
                max_steps=self.max_steps, checkpoint=checkpoint,
                fail_event=fail_event, injector=injector)

            if execution.patch_rollbacks:
                m.inc("resilience.patch_rollbacks", execution.patch_rollbacks)
            if execution.patch_readmissions:
                m.inc("resilience.patch_readmissions",
                      execution.patch_readmissions)

            if execution.checkpoint_corrupt:
                # Detected at restore: the core did no work; retry from
                # entry after backoff.
                m.inc("resilience.checkpoint_failures")
                count_restart(core.retry(pending, now,
                                         "checkpoint failed validation"))
                core.resume_at(w, now)
                return

            if execution.core_failure is not None:
                count_restart(core.core_failed(
                    w, pending, now, start + execution.cycles,
                    execution.core_failure,
                    dead=execution.core_failure == "dead",
                    resume=execution.checkpoint))
                return

            if system == "fam" and not my_pool \
                    and isinstance(execution.fault, IllegalInstructionFault) \
                    and execution.fault.kind == "unsupported-extension":
                end = start + execution.cycles + self.params.migration_cost
                core.occupy(w, end, (start - now) + execution.cycles)
                if not core.pool_live(True):
                    # FAM has no downgraded binary to fall back to.
                    core.give_up(pending, f"task {task.task_id}: needs an "
                                          "extension core but every extension "
                                          "core is quarantined")
                    return
                m.inc("sched.migrations", reason="fam-unsupported")
                core.enqueue(Pending(task, pending.home, pinned=True,
                                     fallback=False, attempt=pending.attempt,
                                     first_start=pending.first_start),
                             True, end)
                return

            if not execution.ok:
                m.inc("sched.task_failures")
            per_task[task.task_id] = execution.cycles
            if task.kind == "ext" and my_pool and execution.ok:
                m.inc("sched.accelerated_ext_tasks")
            if execution.resumed and checkpoint is not None \
                    and checkpoint.core_id != w:
                m.inc("resilience.checkpointed_migrations")
            core.complete(w, now, start + execution.cycles)

        core.run([Pending(task, task.kind == "ext") for task in tasks], dispatch)
        return core.finish(MeasuredRunResult, system, tasks, engine="measured",
                           failures=m.total("sched.task_failures"),
                           per_task_cycles=per_task)


def varied_taskset(n_tasks: int, ext_share: float, *,
                   seed: Optional[int] = None) -> list[HeteroTask]:
    """A §6.1-style mix with per-task size variation.

    *seed* defaults to ``REPRO_FUZZ_SEED`` when set, else 11 (the
    historical default), for parity with the differential fuzz suite.
    """
    import random

    seed = resolve_seed(seed, default=11)
    rng = random.Random(seed)
    from repro.core.scheduler import mixed_taskset

    tasks = []
    for t in mixed_taskset(n_tasks, ext_share):
        if t.kind == "base":
            size = rng.randrange(2000, 6001, 500)
        else:
            size = rng.choice((8, 10, 12, 14))
        tasks.append(HeteroTask(t.task_id, t.kind, size))
    return tasks
