"""Per-patch self-healing, end to end (the PR's acceptance criterion).

A trampoline bitrots inside a *running* workload; the self-healing
runtime must quarantine and roll back exactly that patch to the
trap-fallback encoding, the workload must finish with the correct
output, telemetry must record the rollback, and no UnrecoverableFault
may be raised.  Quarantined state must then survive a checkpointed
migration to another core, and the backoff/re-admission/pinning state
machine must run to both of its terminal states.
"""

import pytest

from repro.chaos.harness import build_erroneous_workload
from repro.chaos.injector import TrampolineBitrotInjector
from repro.core.rewriter import ChimeraRewriter
from repro.core.runtime import ChimeraRuntime
from repro.elf.loader import make_process
from repro.isa.extensions import RV64GC
from repro.resilience.checkpoint import Checkpoint
from repro.sim.faults import CoreFault
from repro.sim.machine import Core, Kernel
from repro.telemetry import Telemetry, use
from repro.verify.records import patched_regions

EXPECTED = (2, 40, 80)  # (out, buf[0], buf[1]) after a correct run


def build_rewrite():
    original = build_erroneous_workload()
    rewritten = ChimeraRewriter().rewrite(original, RV64GC).binary
    regions = patched_regions(rewritten.metadata["chimera"]["patch_records"])
    # Only the lowest-addressed SMILE window executes on the normal path.
    smile = sorted(r for r in regions if r[2] in ("smile", "smile-dp"))[:1]
    return original, rewritten, smile


def outputs(original, process):
    return (
        process.space.read_u64(original.symbol_addr("out")),
        process.space.read_u64(original.symbol_addr("buf")),
        process.space.read_u64(original.symbol_addr("buf") + 8),
    )


def run_with_bitrot(*, core=0):
    original, rewritten, smile = build_rewrite()
    kernel = Kernel()
    runtime = ChimeraRuntime(rewritten, self_heal=True)
    runtime.install(kernel)
    process = make_process(rewritten)
    start = TrampolineBitrotInjector(smile).corrupt(process)
    cpu = kernel.make_cpu(process, Core(core, RV64GC))
    result = kernel.run(process, Core(core, RV64GC), cpu=cpu)
    return original, rewritten, runtime, process, cpu, start, result


def test_bitrot_is_healed_not_fatal():
    telemetry = Telemetry()
    with use(telemetry):
        original, _, runtime, process, _, start, result = run_with_bitrot()
    assert result.ok, f"workload died after bitrot: {result.fault!r}"
    assert outputs(original, process) == EXPECTED
    stats = runtime.stats
    assert stats.patch_rollbacks >= 1
    assert stats.unrecoverable_faults == 0
    # Exactly the corrupted patch is quarantined; every other patch is
    # untouched.
    quarantined = runtime.healer.journal.quarantined()
    assert [e.record.start for e in quarantined] == [start]
    # Telemetry carries the heal event.
    events = dict()
    for labels, value in telemetry.metrics.series("runtime.events"):
        events[labels.get("kind")] = value
    assert events.get("patch_rollback", 0) >= 1


def test_rollback_restores_original_window_bytes():
    _, _, runtime, process, _, start, result = run_with_bitrot()
    assert result.ok
    entry = runtime.healer.journal.get(start)
    rec = entry.record
    live = bytes(process.space.read(rec.start, len(rec.original_bytes)))
    # The window holds the original bytes again, except where the heal
    # trap-fallback re-trapped an extension source.
    trapped = {a for t in entry.heal_patches for a in range(t.start, t.end)}
    for i, (got, want) in enumerate(zip(live, rec.original_bytes)):
        if rec.start + i not in trapped:
            assert got == want, f"byte {rec.start + i:#x} not restored"


def test_backoff_then_readmission():
    _, _, runtime, process, cpu, start, result = run_with_bitrot()
    assert result.ok
    healer = runtime.healer
    entry = healer.journal.get(start)
    assert entry.state == "quarantined"
    assert entry.not_before > 0

    # Before the backoff expires nothing happens.
    cpu.instret = max(0, entry.not_before - 1)
    assert healer.maybe_readmit(process, cpu) == 0
    # After it expires the golden patch re-verifies and is re-applied.
    cpu.instret = entry.not_before
    assert healer.maybe_readmit(process, cpu) == 1
    assert entry.state == "admitted"
    assert runtime.stats.patch_readmissions == 1
    rec = entry.record
    live = bytes(process.space.read(rec.start, len(rec.patched_bytes)))
    assert live == rec.patched_bytes
    assert entry.heal_patches == []


def test_exhausted_budget_pins_to_fallback():
    _, _, runtime, process, cpu, start, result = run_with_bitrot()
    assert result.ok
    healer = runtime.healer
    entry = healer.journal.get(start)
    entry.rollbacks = healer.policy.max_attempts + 1
    cpu.instret = entry.not_before
    assert healer.maybe_readmit(process, cpu) == 0
    assert entry.state == "pinned"
    # A pinned patch never comes back.
    cpu.instret = entry.not_before + 10_000_000
    assert healer.maybe_readmit(process, cpu) == 0
    assert entry.state == "pinned"


def test_quarantine_survives_checkpointed_migration():
    """Satellite 3: heal, fail the core, migrate the checkpoint to a
    different core, finish there — the quarantine must ride along."""
    original, rewritten, smile = build_rewrite()
    kernel = Kernel()
    runtime = ChimeraRuntime(rewritten, self_heal=True)
    runtime.install(kernel)
    process = make_process(rewritten)
    start = TrampolineBitrotInjector(smile).corrupt(process)
    cpu = kernel.make_cpu(process, Core(0, RV64GC))

    def _fail_after_heal(c):
        if runtime.stats.patch_rollbacks >= 1:
            raise CoreFault(0, "dead")

    cpu.step_hook = _fail_after_heal
    result = kernel.run(process, Core(0, RV64GC), cpu=cpu)
    assert isinstance(result.fault, CoreFault)
    assert runtime.healer.journal.is_rolled_back(start)
    cpu.step_hook = None
    ck = Checkpoint.take(cpu, process, task_id=1, core_id=0,
                         pool_ext=False, runtime=runtime)

    kernel2 = Kernel()
    runtime2 = ChimeraRuntime(rewritten, self_heal=True)
    runtime2.install(kernel2)
    process2 = make_process(rewritten)
    cpu2 = kernel2.make_cpu(process2, Core(1, RV64GC))
    ck.restore(cpu2, process2, runtime=runtime2)
    entry = runtime2.healer.journal.get(start)
    assert entry is not None and entry.rolled_back

    result2 = kernel2.run(process2, Core(1, RV64GC), cpu=cpu2)
    assert result2.ok, f"resumed run died: {result2.fault!r}"
    assert outputs(original, process2) == EXPECTED
    assert runtime2.stats.unrecoverable_faults == 0


def test_plain_runtime_still_dies_without_self_heal():
    """The contrast case: the same bitrot without self_heal must end in
    a structured UnrecoverableFault, exactly as the chaos suite pins."""
    original, rewritten, smile = build_rewrite()
    kernel = Kernel()
    runtime = ChimeraRuntime(rewritten)
    runtime.install(kernel)
    process = make_process(rewritten)
    TrampolineBitrotInjector(smile).corrupt(process)
    result = kernel.run(process, Core(0, RV64GC))
    assert not result.ok
    assert runtime.stats.patch_rollbacks == 0
