"""Golden replay of both work-stealing engines over a fixed grid.

The discrete-event scheduler (:class:`WorkStealingScheduler`) and the
measured runner (:class:`MeasuredScheduler`) share one scheduling
policy.  This test pins their complete observable result — makespan,
CPU time, per-core busy cycles, every ``sched.*``/``resilience.*``
counter series, the task-fault reasons, the quarantined cores and the
:class:`ResilienceStats` ledger — on a grid of systems and failure
plans, against ``scheduler_golden.json``.

The DES grid covers every Fig. 11 (both input versions) and Fig. 14
system model, plus one synthetic model whose extension tasks cannot run
on base cores and never migrate, each fault-free and under a core kill,
a flaking core and the loss of the whole extension pool, at three seeds.
The model cost cells are stored in the fixture, so the DES half replays
the scheduler alone.  The measured grid is the five
``repro resilience`` scenarios (with their verdict strings) plus
fault-free and failure runs of every measured system.

Regenerate (only when a change is *meant* to alter scheduling)::

    PYTHONPATH=src python -m tests.integration.test_scheduler_golden --write
"""

from __future__ import annotations

import json
import random
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.core.machine_runner import SYSTEMS as MEASURED_SYSTEMS
from repro.core.machine_runner import MeasuredScheduler, varied_taskset
from repro.core.scheduler import SystemModel, WorkStealingScheduler, mixed_taskset
from repro.resilience import scenarios
from repro.resilience.failures import (
    KILL_CORE,
    CoreFailureInjector,
    DesFailure,
    DesFailurePlan,
    FailureEvent,
)
from repro.resilience.policy import RetryPolicy
from repro.telemetry import Telemetry, use

FIXTURE = Path(__file__).with_name("scheduler_golden.json")
SEEDS = (0, 1, 2)
DES_TASKS = 160


# -- serialisation --------------------------------------------------------------


def _model_to_json(model: SystemModel) -> dict:
    return {
        "name": model.name,
        "costs": [[kind, on_ext, cost]
                  for (kind, on_ext), cost in sorted(model.costs.items())],
        "accelerated": sorted(list(p) for p in model.accelerated_placements),
        "migrate_on_unsupported": model.migrate_on_unsupported,
        "detect_cycles": model.detect_cycles,
    }


def _model_from_json(data: dict) -> SystemModel:
    return SystemModel(
        name=data["name"],
        costs={(kind, on_ext): cost for kind, on_ext, cost in data["costs"]},
        accelerated_placements=frozenset(tuple(p) for p in data["accelerated"]),
        migrate_on_unsupported=data["migrate_on_unsupported"],
        detect_cycles=data["detect_cycles"],
    )


def _scheduler_metrics(telemetry: Telemetry) -> dict:
    """Every scheduler-owned series the run recorded."""
    payload = telemetry.metrics.as_dict()
    keep = ("sched.", "resilience.")
    return {
        kind: [row for row in payload[kind] if row["name"].startswith(keep)]
        for kind in ("counters", "gauges", "histograms")
    }


def _faults_by_reason(faults: dict) -> dict:
    """task_faults as {reason after "task N: ": [[task_id, attempts], ...]}."""
    grouped: dict[str, list] = {}
    for tid, fault in sorted(faults.items()):
        prefix, _, reason = str(fault).partition(": ")
        assert prefix == f"task {tid}", str(fault)
        grouped.setdefault(reason, []).append([tid, fault.attempts])
    return grouped


def _result_to_json(result, telemetry: Telemetry) -> dict:
    out = {}
    for name, value in vars(result).items():
        if name == "task_faults":
            value = _faults_by_reason(value)
        elif name == "per_task_cycles":
            value = {str(tid): cycles for tid, cycles in sorted(value.items())}
        elif name == "resilience":
            value = value.as_dict()
        elif isinstance(value, tuple):
            value = list(value)
        out[name] = value
    out["completed"] = result.completed
    out["accelerated_share"] = result.accelerated_share
    out["metrics"] = _scheduler_metrics(telemetry)
    return out


# -- the DES grid ---------------------------------------------------------------


def _des_models() -> list[SystemModel]:
    """Every Fig. 11 / Fig. 14 model, built from measured costs."""
    from repro.workloads import hetero, openblas

    models = []
    for version in ("ext", "base"):
        costs = hetero.measure_hetero_costs(version)
        for system in hetero.SYSTEMS:
            model = costs.model(system)
            model.name = f"fig11-{version}/{system}"
            models.append(model)
    for kernel in ("dgemm", "sgemv"):
        costs = openblas.measure_kernel(kernel)
        for system in openblas.SYSTEMS:
            model = openblas._model(system, costs, threads=8)
            model.name = f"fig14-{kernel}/{system}"
            models.append(model)
    # Extension tasks that can neither run on base cores nor migrate
    # there: the "pin to its own pool" path.
    models.append(SystemModel(
        "pinned-ext",
        {("base", False): 3000, ("base", True): 3000,
         ("ext", True): 2000, ("ext", False): None},
        frozenset({("ext", True)})))
    return models


def _des_cases(seed: int):
    """(label, n_base, n_ext, plan factory, extra run kwargs) per seed."""
    rng = random.Random(seed)
    at = rng.randrange(0, 40_000)
    victim = rng.randrange(0, 8)
    flakes = rng.randrange(1, 4)
    tight = RetryPolicy(max_attempts=2, deadline=rng.randrange(20_000, 80_000))
    storm_deadline = rng.randrange(5_000, 30_000)
    return [
        ("fault-free", 4, 4, lambda: None, {}),
        ("kill", 4, 4,
         lambda: DesFailurePlan([DesFailure(victim, "kill", at_time=at)],
                                seed=seed), {}),
        ("flake", 4, 4,
         lambda: DesFailurePlan([DesFailure(victim, "flake", at_time=at,
                                            count=flakes)],
                                fail_fraction=0.3, seed=seed), {}),
        ("ext-pool-loss", 4, 4,
         lambda: DesFailurePlan.kill_cores([4, 5, 6, 7], at_time=at, seed=seed),
         {}),
        ("ext-pool-loss-tight", 4, 4,
         lambda: DesFailurePlan.kill_cores([4, 5, 6, 7], at_time=at, seed=seed),
         {"retry_policy": tight}),
        ("flake-storm", 4, 4,
         lambda: DesFailurePlan([DesFailure(c, "flake", at_time=at, count=40)
                                 for c in range(8)], seed=seed),
         {"retry_policy": RetryPolicy(max_attempts=2), "quarantine_after": 99}),
        ("flake-storm-deadline", 4, 4,
         lambda: DesFailurePlan([DesFailure(c, "flake", at_time=at, count=40)
                                 for c in range(8)], seed=seed),
         {"retry_policy": RetryPolicy(max_attempts=9, deadline=storm_deadline),
          "quarantine_after": 99}),
        ("base-only", 3, 0, lambda: None, {}),
        ("ext-only-kill", 0, 3,
         lambda: DesFailurePlan([DesFailure(1, "kill", at_time=at)], seed=seed),
         {}),
    ]


def run_des_grid(models: list[SystemModel]) -> list[dict]:
    rows = []
    for model in models:
        for seed in SEEDS:
            share = (0.3, 0.6, 1.0)[seed]
            tasks = mixed_taskset(DES_TASKS, share, seed=seed)
            for label, n_base, n_ext, plan, kwargs in _des_cases(seed):
                telemetry = Telemetry()
                with use(telemetry):
                    result = WorkStealingScheduler(n_base, n_ext).run(
                        tasks, model, failures=plan(), **kwargs)
                rows.append({"model": model.name, "seed": seed, "case": label,
                             "result": _result_to_json(result, telemetry)})
    return rows


# -- the measured grid ----------------------------------------------------------


@contextmanager
def _recording_scenarios(sink: list):
    """Capture the MeasuredRunResult behind each resilience scenario."""

    class Recording(MeasuredScheduler):
        def run(self, *args, **kwargs):
            result = super().run(*args, **kwargs)
            sink.append(result)
            return result

    saved = scenarios.MeasuredScheduler
    scenarios.MeasuredScheduler = Recording
    try:
        yield
    finally:
        scenarios.MeasuredScheduler = saved


def _measured_cases():
    small = scenarios.small_taskset
    yield ("fault-free", 2, 2, small, lambda: None)
    yield ("fault-free-ext-heavy", 1, 2, lambda: varied_taskset(8, 1.0), lambda: None)
    yield ("fault-free-base-heavy", 2, 1, lambda: varied_taskset(8, 0.25), lambda: None)
    yield ("kill-base", 2, 2, small,
           lambda: CoreFailureInjector.kill(0, after_instructions=200, seed=0))
    yield ("ext-pool-loss", 1, 2, lambda: varied_taskset(8, 1.0),
           lambda: CoreFailureInjector(
               [FailureEvent(KILL_CORE, core_id=1, after_instructions=100),
                FailureEvent(KILL_CORE, core_id=2, after_instructions=100)],
               seed=0))


def run_measured_grid() -> list[dict]:
    rows = []
    for name in scenarios.SCENARIOS:
        captured: list = []
        telemetry = Telemetry()
        with _recording_scenarios(captured), use(telemetry):
            verdict = scenarios.run_scenario(name, seed=0)
        rows.append({"scenario": name, "verdict": str(verdict),
                     "result": _result_to_json(captured[-1], telemetry)})
    for system in MEASURED_SYSTEMS:
        for label, n_base, n_ext, taskset, injector in _measured_cases():
            telemetry = Telemetry()
            with use(telemetry):
                result = MeasuredScheduler(n_base, n_ext).run(
                    taskset(), system, injector=injector())
            rows.append({"system": system, "case": label,
                         "result": _result_to_json(result, telemetry)})
    return rows


def _normalise(rows: list[dict]) -> list[dict]:
    """JSON round trip, so live results compare like the fixture."""
    return json.loads(json.dumps(rows))


# -- the tests ------------------------------------------------------------------


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_des_grid_replays_equal(golden):
    models = [_model_from_json(m) for m in golden["models"]]
    live = _normalise(run_des_grid(models))
    assert len(live) == len(golden["des"])
    for got, want in zip(live, golden["des"]):
        assert got == want, (want["model"], want["seed"], want["case"])


def test_measured_grid_replays_equal(golden):
    live = _normalise(run_measured_grid())
    assert len(live) == len(golden["measured"])
    for got, want in zip(live, golden["measured"]):
        assert got == want, want.get("scenario") or (want["system"], want["case"])


def test_grid_exercises_every_policy_path(golden):
    """The fixture is only worth replaying if it reaches each branch."""
    des = [row["result"] for row in golden["des"]]
    measured = [row["result"] for row in golden["measured"]]
    everything = des + measured
    assert any(r["steals"] for r in des) and any(r["steals"] for r in measured)
    assert any(r["migrations"] for r in des) and any(r["migrations"] for r in measured)
    assert any(r["quarantined_cores"] for r in des)
    assert any(r["task_faults"] for r in des)
    reasons = " ".join(reason for r in everything for reason in r["task_faults"])
    for phrase in ("retry budget", "deadline", "no live core", "stranded",
                   "own pool has no live worker", "none is live"):
        assert phrase in reasons, phrase
    assert any(r["resilience"]["checkpointed_migrations"] for r in measured)
    assert any(r["resilience"]["migrations_lost"] for r in measured)
    assert any(r["resilience"]["checkpoint_failures"] for r in measured)
    assert all(row["verdict"].startswith("ok") for row in golden["measured"]
               if "scenario" in row)


def _write() -> None:
    models = _des_models()
    payload = {
        "models": [_model_to_json(m) for m in models],
        "des": _normalise(run_des_grid(models)),
        "measured": _normalise(run_measured_grid()),
    }
    # One grid row per line: compact, yet a changed row diffs alone.
    lines = ["{"]
    for i, key in enumerate(sorted(payload)):
        rows = ",\n".join(json.dumps(row, sort_keys=True) for row in payload[key])
        comma = "," if i < len(payload) - 1 else ""
        lines.append(f"{json.dumps(key)}: [\n{rows}\n]{comma}")
    lines.append("}")
    FIXTURE.write_text("\n".join(lines) + "\n")
    print(f"wrote {FIXTURE} ({len(payload['des'])} DES rows, "
          f"{len(payload['measured'])} measured rows)")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.integration.test_scheduler_golden --write")
    _write()
