"""Retry/backoff policy and the resilience counters.

:class:`RetryPolicy` is the budget the scheduling degradation ladder
(:class:`~repro.core.stealing.StealingCore`) and the verification
pipeline retry under; :class:`ResilienceStats` is the ladder's ledger,
reported through ``MeasuredRunResult`` / ``ScheduleResult``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field


@dataclass(frozen=True)
class RetryPolicy:
    """Per-task retry budget and exponential-backoff schedule (cycles)."""

    max_attempts: int = 4
    base_backoff: int = 2_000
    multiplier: int = 2
    max_backoff: int = 64_000
    #: Optional wall-clock (cycle) budget from a task's first dispatch;
    #: a retry past the deadline is refused and the task is declared
    #: unrecoverable.  None = no deadline.
    deadline: int | None = None

    def backoff(self, retry: int) -> int:
        """Backoff before retry number *retry* (1-based), capped."""
        if retry < 1:
            return 0
        raw = self.base_backoff * (self.multiplier ** (retry - 1))
        return min(raw, self.max_backoff)

    def exhausted(self, attempt: int) -> bool:
        """True once *attempt* (1-based) exceeds the attempt budget."""
        return attempt > self.max_attempts

    def past_deadline(self, first_start: int, now: int) -> bool:
        return self.deadline is not None and now - first_start > self.deadline

    def backoff_seconds(self, retry: int) -> float:
        """Backoff for wall-clock users, reading the cycle fields as
        milliseconds — the verification pipeline sleeps real time
        between re-dispatches, it does not burn simulated cycles."""
        return self.backoff(retry) / 1000.0


DEFAULT_RETRY_POLICY = RetryPolicy()

#: Retry budget for the fault-isolated verification pipeline: backoff
#: fields are read as *milliseconds* (``backoff_seconds``).  Three
#: attempts per region keeps a persistently crashing region from
#: stalling a release for more than ~a second before quarantine.
PIPELINE_RETRY_POLICY = RetryPolicy(
    max_attempts=3, base_backoff=50, multiplier=4, max_backoff=2_000)


#: Circuit-breaker states (the classic three-state machine).
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"


@dataclass
class CircuitBreaker:
    """Per-server circuit breaker for the fleet client.

    ``closed`` — requests flow; consecutive transport failures are
    counted.  At ``failure_threshold`` the breaker trips ``open``:
    requests fail fast (no connection attempt) until a jittered probe
    time arrives, at which point the breaker goes ``half-open`` and
    admits exactly one probe.  A successful probe closes the breaker
    and resets every counter; a failed probe re-opens it with an
    escalating delay (``open_backoff_multiplier ** trips``, capped at
    ``max_reset_seconds``).

    The jitter keeps a fleet of clients from re-probing a recovering
    server in lockstep.  All timing uses ``time.monotonic()`` (callers
    may inject a clock for tests).
    """

    failure_threshold: int = 3
    reset_seconds: float = 0.5
    max_reset_seconds: float = 15.0
    open_backoff_multiplier: float = 2.0
    jitter: float = 0.25
    rng: random.Random = field(default_factory=random.Random)
    clock: object = time.monotonic

    state: str = BREAKER_CLOSED
    consecutive_failures: int = 0
    #: Times the breaker tripped open since the last full close.
    trips: int = 0
    #: Lifetime trip count (telemetry; never reset).
    total_trips: int = 0
    _probe_at: float = 0.0
    _probing: bool = False

    def allow(self) -> bool:
        """May the caller attempt a request now?

        ``half-open`` admits a single caller (the probe); concurrent
        callers keep failing fast until the probe settles.
        """
        if self.state == BREAKER_CLOSED:
            return True
        if self.state == BREAKER_OPEN:
            if self.clock() >= self._probe_at:
                self.state = BREAKER_HALF_OPEN
            else:
                return False
        if self.state == BREAKER_HALF_OPEN:
            if self._probing:
                return False
            self._probing = True
            return True
        return True

    def record_success(self) -> None:
        self.state = BREAKER_CLOSED
        self.consecutive_failures = 0
        self.trips = 0
        self._probing = False

    def record_failure(self) -> None:
        self._probing = False
        self.consecutive_failures += 1
        if (self.state == BREAKER_HALF_OPEN
                or self.consecutive_failures >= self.failure_threshold):
            self._trip()

    def retry_in(self) -> float:
        """Seconds until the next probe is allowed (0 when flowing)."""
        if self.state == BREAKER_CLOSED:
            return 0.0
        return max(0.0, self._probe_at - self.clock())

    def _trip(self) -> None:
        self.trips += 1
        self.total_trips += 1
        delay = min(
            self.reset_seconds * (self.open_backoff_multiplier
                                  ** (self.trips - 1)),
            self.max_reset_seconds)
        spread = 1.0 + self.jitter * (2.0 * self.rng.random() - 1.0)
        self.state = BREAKER_OPEN
        self._probe_at = self.clock() + delay * spread


@dataclass
class ResilienceStats:
    """Counters for the fault-tolerant execution layer."""

    #: Core failures observed (kills + flakes), i.e. CoreFault events.
    core_faults: int = 0
    #: Tasks moved off a failed core onto a survivor.
    migrations: int = 0
    #: Migrations that resumed from a validated checkpoint on a
    #: *different* core (the §6.1 fault-and-migrate path, checkpointed).
    checkpointed_migrations: int = 0
    #: Executions that restarted from entry (corrupt/lost/foreign-pool
    #: checkpoint, or no checkpoint at all).
    restarts: int = 0
    #: Re-executions scheduled after a failure.
    retries: int = 0
    #: Total cycles spent waiting out exponential backoff.
    backoff_cycles: int = 0
    #: Cores removed from service (dead, or flaky past the threshold).
    quarantines: int = 0
    #: Checkpoints that failed checksum validation at restore.
    checkpoint_failures: int = 0
    #: Checkpointed migrations dropped in flight.
    migrations_lost: int = 0
    #: Tasks that ended in a structured UnrecoverableFault.
    unrecoverable_tasks: int = 0
    #: Self-healing (verified patching): patches quarantined back to the
    #: trap-fallback encoding at runtime, and patches re-verified and
    #: re-admitted after backoff.
    patch_rollbacks: int = 0
    patch_readmissions: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(vars(self))

    @classmethod
    def from_metrics(cls, registry) -> "ResilienceStats":
        """Derive the ledger from a run-local metrics registry.

        Each field is the sum of the ``resilience.<field>`` counter
        across its label sets, making the registry the single source of
        truth — the schedulers no longer maintain parallel tallies that
        can drift from the metrics they report.
        """
        fields = cls.__dataclass_fields__
        return cls(**{name: registry.total(f"resilience.{name}") for name in fields})

    def merge(self, other: "ResilienceStats") -> None:
        for key, value in vars(other).items():
            setattr(self, key, getattr(self, key) + value)

    def summary(self) -> str:
        parts = [f"{k}={v}" for k, v in self.as_dict().items() if v]
        return ", ".join(parts) or "clean run"
