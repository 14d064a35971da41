"""Core-failure injection: the execution-substrate half of chaos.

PR 1's chaos harness attacks the *rewriting* (trampoline bytes, runtime
tables).  This module attacks the *substrate* the rewritten binary runs
on: cores die or flake mid-task (including mid-vector-loop on an
extension core), checkpointed migrations get dropped in flight, and
checkpoints get corrupted.  Every injected failure must surface as a
structured fault (:class:`~repro.sim.faults.CoreFault`,
:class:`~repro.sim.faults.MigrationLostFault`,
:class:`~repro.sim.faults.CheckpointCorruptFault`) — never a raw Python
exception — and the schedulers must keep forward progress.

:class:`CoreFailureInjector` drives the measured execution path
(real binaries in the CPU simulator); :class:`DesFailurePlan` drives the
discrete-event scheduler, where "mid-task" is a fraction of the task's
modeled cost.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.resilience.seeds import resolve_seed

# -- fault-isolated verification pipeline taxonomy ---------------------------

#: A verification worker process died mid-region (segfault-equivalent
#: raise deep in the oracle, OOM-style kill, BrokenProcessPool).
WORKER_CRASH = "worker-crash"
#: The wall-clock watchdog killed a worker that exceeded the per-region
#: deadline (hung CFG walk, stuck oracle).
WORKER_HANG = "worker-hang"
#: A structured exception escaped the per-region checks in-process
#: (serial executor, or caught inside a worker).
VERIFY_ERROR = "verify-error"
#: The process pool itself failed to come up; the pipeline fell back to
#: in-process verification.
POOL_BROKEN = "pool-broken"

REGION_FAULT_KINDS = (WORKER_CRASH, WORKER_HANG, VERIFY_ERROR, POOL_BROKEN)

#: How the pipeline disposed of a region fault.
RESOLVED_RETRIED = "retried"            # a later attempt succeeded
RESOLVED_QUARANTINED = "quarantined"    # retries exhausted, awaiting degrade
RESOLVED_DEGRADED = "degraded-trap"     # re-admitted on the trap-fallback encoding
RESOLVED_EXCLUDED = "excluded"          # refused; recorded in the ledger


@dataclass
class RegionFault:
    """One fault the verification pipeline attributed to one patched
    region — never a raw traceback, never a silent drop.

    ``start``/``end``/``region_kind`` identify the
    :class:`~repro.verify.records.PatchRecord`; ``fault`` is one of
    :data:`REGION_FAULT_KINDS`; ``attempt`` is the 1-based dispatch that
    faulted; ``resolution`` records what the pipeline did about it.
    """

    start: int
    end: int
    region_kind: str
    fault: str
    attempt: int
    detail: str = ""
    worker: Optional[int] = None
    resolution: str = RESOLVED_RETRIED

    def __post_init__(self) -> None:
        if self.fault not in REGION_FAULT_KINDS:
            raise ValueError(
                f"unknown region fault {self.fault!r}; choose from {REGION_FAULT_KINDS}")

    def __str__(self) -> str:
        where = f"{self.start:#x}..{self.end:#x} [{self.region_kind}]"
        return (f"{self.fault} at {where} attempt {self.attempt}"
                f" -> {self.resolution}" + (f": {self.detail}" if self.detail else ""))

    def as_dict(self) -> dict:
        return {
            "start": self.start,
            "end": self.end,
            "region_kind": self.region_kind,
            "fault": self.fault,
            "attempt": self.attempt,
            "detail": self.detail,
            "worker": self.worker,
            "resolution": self.resolution,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RegionFault":
        return cls(
            start=data["start"],
            end=data["end"],
            region_kind=data["region_kind"],
            fault=data["fault"],
            attempt=data["attempt"],
            detail=data.get("detail", ""),
            worker=data.get("worker"),
            resolution=data.get("resolution", RESOLVED_RETRIED),
        )


# -- batch-service job taxonomy ----------------------------------------------

#: The submit message itself was unusable: unknown workload, unreadable
#: or malformed binary file, bad parameters.  Never retried server-side.
JOB_REJECTED = "job-rejected"
#: The rewrite+verify pipeline raised for this job; the server caught
#: it at the job boundary (the process pool already absorbed any worker
#: crash — this is the driver itself failing), sanitized it to one
#: line, and stayed up.
JOB_CRASH = "job-crash"
#: The job's release key crossed the failure budget: the server refuses
#: it on admission so one poisoned binary can never monopolize the
#: fleet's workers.  A cache wipe or server restart clears the memo.
JOB_POISONED = "job-poisoned"
#: The server shed the job at admission because both the in-flight
#: budget (``--max-inflight``) and the wait queue (``--max-queue``)
#: were full.  Carries ``retry_after_ms`` — a load-derived hint for
#: when the client should try again.  Transient by definition.
JOB_OVERLOADED = "job-overloaded"
#: The job's end-to-end ``deadline_ms`` expired — while queued for an
#: admission slot, while coalesced behind another run of the same key,
#: or deep inside the verification pipeline (the deadline is threaded
#: down into the region watchdog loop).  Never counts toward the
#: poison budget: it signals the *client's* time budget, not the
#: binary's health.
JOB_DEADLINE = "job-deadline-exceeded"

JOB_FAULT_KINDS = (JOB_REJECTED, JOB_CRASH, JOB_POISONED, JOB_OVERLOADED,
                   JOB_DEADLINE)


class DeadlineExceededError(RuntimeError):
    """A job's end-to-end deadline expired inside the pipeline.

    Raised by :func:`repro.core.pipeline.rewrite_and_verify`, the
    :class:`~repro.verify.admission.AdmissionGate` fan-out loops, and
    the :class:`~repro.core.procpool.FaultIsolatedPool` scheduling loop
    when ``time.monotonic()`` passes the job's absolute deadline.  The
    batch server converts it into a structured ``job-deadline-exceeded``
    :class:`JobFault` — never a raw traceback.  Any run journal written
    so far is kept, so a retried job resumes instead of restarting.
    """


@dataclass
class JobFault:
    """One structured failure the batch service attributed to one job.

    Mirrors :class:`RegionFault` one level up: the unit is a whole
    submitted binary, the consumer is a fleet client, and the contract
    is the same — never a raw traceback, never a silent drop.  ``key``
    is the release key when it was computed (None for jobs rejected
    before resolution); ``failures`` counts how many runs of this key
    have crashed (drives the poison quarantine).
    """

    binary: str
    fault: str
    detail: str = ""
    key: Optional[str] = None
    failures: int = 0
    quarantined: bool = False
    #: For ``job-overloaded`` sheds: how long (milliseconds) the client
    #: should wait before retrying, derived from the server's observed
    #: job latency and current backlog.  None for every other kind.
    retry_after_ms: Optional[int] = None

    def __post_init__(self) -> None:
        if self.fault not in JOB_FAULT_KINDS:
            raise ValueError(
                f"unknown job fault {self.fault!r}; choose from {JOB_FAULT_KINDS}")

    def __str__(self) -> str:
        tail = f": {self.detail}" if self.detail else ""
        quarantine = " [quarantined]" if self.quarantined else ""
        return f"{self.fault} for {self.binary}{quarantine}{tail}"

    def as_dict(self) -> dict:
        data = {
            "binary": self.binary,
            "fault": self.fault,
            "detail": self.detail,
            "key": self.key,
            "failures": self.failures,
            "quarantined": self.quarantined,
        }
        if self.retry_after_ms is not None:
            data["retry_after_ms"] = self.retry_after_ms
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "JobFault":
        return cls(
            binary=data["binary"],
            fault=data["fault"],
            detail=data.get("detail", ""),
            key=data.get("key"),
            failures=data.get("failures", 0),
            quarantined=data.get("quarantined", False),
            retry_after_ms=data.get("retry_after_ms"),
        )


KILL_CORE = "kill-core"
FLAKE_CORE = "flake-core"
DROP_MIGRATION = "drop-migration"
CORRUPT_CHECKPOINT = "corrupt-checkpoint"

EVENT_KINDS = (KILL_CORE, FLAKE_CORE, DROP_MIGRATION, CORRUPT_CHECKPOINT)


@dataclass
class FailureEvent:
    """One scripted failure.

    ``core_id``/``task_id``/``task_kind`` narrow when the event fires
    (None = any).  ``after_instructions`` places a kill/flake at a
    precise instruction boundary inside the victim task — small values
    land inside an extension task's first vector loop.  ``count`` lets a
    flake repeat.  ``None`` for ``after_instructions`` picks a seeded
    random depth at arm time.
    """

    kind: str
    core_id: Optional[int] = None
    task_id: Optional[int] = None
    task_kind: Optional[str] = None
    after_instructions: Optional[int] = 120
    count: int = 1
    fired: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown failure kind {self.kind!r}; choose from {EVENT_KINDS}")

    def matches(self, core_id: Optional[int], task_id: Optional[int],
                task_kind: Optional[str]) -> bool:
        if self.fired >= self.count:
            return False
        if self.core_id is not None and core_id != self.core_id:
            return False
        if self.task_id is not None and task_id != self.task_id:
            return False
        if self.task_kind is not None and task_kind != self.task_kind:
            return False
        return True


class CoreFailureInjector:
    """Scripted, seeded failure injection for the measured schedulers.

    The resilient runner consults it at three points: before executing a
    task on a core (:meth:`plan_execution` arms a mid-task kill/flake),
    right after a checkpoint is taken (:meth:`filter_checkpoint` may
    corrupt it), and when a migrated task is picked up
    (:meth:`migration_dropped` may have lost it in flight).
    """

    def __init__(self, events: tuple[FailureEvent, ...] | list[FailureEvent] = (),
                 *, seed: Optional[int] = None):
        self.seed = resolve_seed(seed)
        self.rng = random.Random(self.seed)
        self.events = list(events)
        #: Human-readable audit trail of everything that fired.
        self.log: list[str] = []

    # -- convenience constructors -------------------------------------------

    @classmethod
    def kill(cls, core_id: int, *, task_kind: Optional[str] = None,
             after_instructions: Optional[int] = 120, seed: Optional[int] = None,
             ) -> "CoreFailureInjector":
        return cls([FailureEvent(KILL_CORE, core_id=core_id, task_kind=task_kind,
                                 after_instructions=after_instructions)], seed=seed)

    @classmethod
    def flake(cls, core_id: int, *, count: int = 2,
              after_instructions: Optional[int] = 120, seed: Optional[int] = None,
              ) -> "CoreFailureInjector":
        return cls([FailureEvent(FLAKE_CORE, core_id=core_id, count=count,
                                 after_instructions=after_instructions)], seed=seed)

    # -- hooks ---------------------------------------------------------------

    def plan_execution(self, core_id: int, task_id: int,
                       task_kind: Optional[str] = None) -> Optional[FailureEvent]:
        """The kill/flake event (if any) armed for this execution."""
        for event in self.events:
            if event.kind in (KILL_CORE, FLAKE_CORE) and event.matches(
                    core_id, task_id, task_kind):
                event.fired += 1
                if event.after_instructions is None:
                    event.after_instructions = self.rng.randrange(40, 400)
                self.log.append(
                    f"{event.kind}: core {core_id}, task {task_id}, "
                    f"+{event.after_instructions} instructions"
                )
                return event
        return None

    def filter_checkpoint(self, checkpoint) -> None:
        """Possibly corrupt a just-taken checkpoint (checksum left stale)."""
        for event in self.events:
            if event.kind == CORRUPT_CHECKPOINT and event.matches(
                    None, checkpoint.task_id, None):
                event.fired += 1
                checkpoint.corrupt(self.rng)
                self.log.append(f"corrupt-checkpoint: task {checkpoint.task_id}")
                return

    def migration_dropped(self, task_id: int) -> bool:
        """True when the in-flight migration of *task_id* was lost."""
        for event in self.events:
            if event.kind == DROP_MIGRATION and event.matches(None, task_id, None):
                event.fired += 1
                self.log.append(f"drop-migration: task {task_id}")
                return True
        return False


# -- discrete-event flavor ---------------------------------------------------


@dataclass
class DesFailure:
    """One failure in discrete-event time: core *core_id* fails when it
    starts a task at or after ``at_time`` (kind "kill" or "flake")."""

    core_id: int
    kind: str = "kill"
    at_time: int = 0
    count: int = 1
    fired: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.kind not in ("kill", "flake"):
            raise ValueError(f"DES failure kind must be kill|flake, not {self.kind!r}")


class DesFailurePlan:
    """Failure schedule for :class:`~repro.core.scheduler.WorkStealingScheduler`.

    ``fail_fraction`` is how much of the victim task's cost the core
    burns before failing (the DES has no instruction counter).
    """

    def __init__(self, failures: list[DesFailure] | tuple[DesFailure, ...],
                 *, fail_fraction: float = 0.5, seed: Optional[int] = None):
        if not 0.0 <= fail_fraction <= 1.0:
            raise ValueError("fail_fraction must be within [0, 1]")
        self.failures = list(failures)
        self.fail_fraction = fail_fraction
        self.seed = resolve_seed(seed)
        self.rng = random.Random(self.seed)

    @classmethod
    def kill_cores(cls, core_ids: list[int] | tuple[int, ...], *, at_time: int = 0,
                   seed: Optional[int] = None) -> "DesFailurePlan":
        return cls([DesFailure(cid, "kill", at_time=at_time) for cid in core_ids],
                   seed=seed)

    def check(self, core_id: int, now: int) -> Optional[str]:
        """Consume and return the failure kind striking *core_id* at *now*."""
        for failure in self.failures:
            if (failure.core_id == core_id and failure.fired < failure.count
                    and now >= failure.at_time):
                failure.fired += 1
                return failure.kind
        return None
