"""Fault-tolerant heterogeneous execution (the resilience layer).

Chimera's headline property — one rewritten binary runs on *every* core
— means the system can survive the loss of any core, including all
extension cores, by migrating work to whatever still runs and paying
only the downgrade cost.  This package supplies the machinery:

* :mod:`~repro.resilience.failures` — core kills/flakes mid-task,
  dropped migrations, corrupted checkpoints (scripted + seeded);
* :mod:`~repro.resilience.checkpoint` — checksummed CPU/address-space
  snapshots, restore-on-another-core, corruption *detected* not trusted;
* :mod:`~repro.resilience.policy` — retry with exponential backoff,
  attempt/deadline budgets, ``ResilienceStats`` (the quarantine ladder
  that spends them is :mod:`repro.core.stealing`);
* :mod:`~repro.resilience.executor` — one fault-tolerant task execution;
* :mod:`~repro.resilience.scenarios` — the named end-to-end scenarios
  behind ``python -m repro resilience <scenario>`` (imported lazily to
  keep this package import-light).
"""

from repro.resilience.checkpoint import Checkpoint
from repro.resilience.executor import TaskExecution, run_task_on_core
from repro.resilience.failures import (
    CORRUPT_CHECKPOINT,
    DROP_MIGRATION,
    FLAKE_CORE,
    KILL_CORE,
    CoreFailureInjector,
    DesFailure,
    DesFailurePlan,
    FailureEvent,
)
from repro.resilience.policy import DEFAULT_RETRY_POLICY, ResilienceStats, RetryPolicy
from repro.resilience.seeds import ENV_SEED, replay_hint, resolve_seed

__all__ = [
    "CORRUPT_CHECKPOINT",
    "Checkpoint",
    "CoreFailureInjector",
    "DEFAULT_RETRY_POLICY",
    "DROP_MIGRATION",
    "DesFailure",
    "DesFailurePlan",
    "ENV_SEED",
    "FLAKE_CORE",
    "FailureEvent",
    "KILL_CORE",
    "ResilienceStats",
    "RetryPolicy",
    "TaskExecution",
    "replay_hint",
    "resolve_seed",
    "run_task_on_core",
]
