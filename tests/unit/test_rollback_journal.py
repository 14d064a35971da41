"""Rollback journal: state machine, serialization, runtime state plumbing.

The journal is what makes per-patch healing survive checkpoints — every
entry must round-trip through primitive state and re-align the
runtime's tables on import.
"""

import pytest

from repro.chaos.harness import build_erroneous_workload
from repro.chaos.injector import TrampolineBitrotInjector
from repro.core.rewriter import ChimeraRewriter
from repro.core.runtime import ChimeraRuntime
from repro.elf.loader import make_process
from repro.isa.extensions import RV64GC
from repro.sim.machine import Core, Kernel
from repro.verify import HealEntry, PatchRecord, RollbackJournal
from repro.verify.records import patched_regions


def sample_record():
    return PatchRecord(
        start=0x10030, end=0x10038, kind="smile",
        original_bytes=b"\x01\x02\x03\x04\x05\x06\x07\x08",
        patched_bytes=b"\x11\x12\x13\x14\x15\x16\x17\x18",
        block_addr=0x410000, resume=0x10038, smile_reg=3,
        fault_entries=((0x10034, 0x410000),),
        trap_entries=(),
        sources=((0x10030, "01020304"),),
    )


def sample_heal_trap():
    """The trap record a rollback of :func:`sample_record` installs."""
    return PatchRecord(
        start=0x10030, end=0x10034, kind="trap",
        original_bytes=b"\x01\x02\x03\x04",
        patched_bytes=b"\x73\x00\x10\x00",
        block_addr=0x500000, resume=0x10034, smile_reg=3,
        trap_entries=((0x10030, 0x500000), (0x500008, 0x10034)),
    )


def healed_run():
    """Run the bitrot scenario to completion; returns everything the
    journal tests need (runtime with one quarantined patch, etc.)."""
    original = build_erroneous_workload()
    rewritten = ChimeraRewriter().rewrite(original, RV64GC).binary
    regions = patched_regions(rewritten.metadata["chimera"]["patch_records"])
    smile = sorted(r for r in regions if r[2] in ("smile", "smile-dp"))[:1]
    kernel = Kernel()
    runtime = ChimeraRuntime(rewritten, self_heal=True)
    runtime.install(kernel)
    process = make_process(rewritten)
    start = TrampolineBitrotInjector(smile).corrupt(process)
    cpu = kernel.make_cpu(process, Core(0, RV64GC))
    res = kernel.run(process, Core(0, RV64GC), cpu=cpu)
    assert res.ok and runtime.stats.patch_rollbacks >= 1
    return original, rewritten, runtime, process, cpu, start


def test_heal_entry_state_roundtrip():
    entry = HealEntry(
        record=sample_record(), state="quarantined", rollbacks=2,
        readmissions=1, not_before=12_345,
        heal_patches=[sample_heal_trap()],
    )
    clone = HealEntry.from_state(entry.as_state())
    assert clone.record == entry.record
    assert (clone.state, clone.rollbacks, clone.readmissions,
            clone.not_before) == ("quarantined", 2, 1, 12_345)
    assert clone.heal_patches == entry.heal_patches


def test_journal_export_elides_pristine_entries():
    journal = RollbackJournal()
    journal.entry(sample_record())  # touched but never rolled back
    assert journal.export() == ()
    journal.entries[0x10030].state = "quarantined"
    journal.entries[0x10030].rollbacks = 1
    assert len(journal.export()) == 1


def test_journal_import_roundtrip():
    journal = RollbackJournal()
    entry = journal.entry(sample_record())
    entry.state = "pinned"
    entry.rollbacks = 4
    fresh = RollbackJournal()
    fresh.import_state(journal.export())
    assert fresh.is_rolled_back(0x10030)
    assert fresh.get(0x10030).state == "pinned"
    assert fresh.quarantined() == []


def test_export_state_has_journal_only_with_healer():
    rewritten = ChimeraRewriter().rewrite(build_erroneous_workload(), RV64GC).binary
    plain = ChimeraRuntime(rewritten)
    assert "heal_journal" not in plain.export_state()
    healing = ChimeraRuntime(rewritten, self_heal=True)
    assert healing.export_state()["heal_journal"] == ()


def test_self_heal_detaches_shared_tables():
    """Healing pops fault/trap entries; that must never leak into the
    shared metadata tables other runtimes of the same binary see."""
    rewritten = ChimeraRewriter().rewrite(build_erroneous_workload(), RV64GC).binary
    meta = rewritten.metadata["chimera"]
    runtime = ChimeraRuntime(rewritten, self_heal=True)
    assert runtime.fault_table is not meta["fault_table"]
    assert runtime.trap_table is not meta["trap_table"]
    plain = ChimeraRuntime(rewritten)
    assert plain.fault_table is meta["fault_table"]


def test_quarantine_roundtrips_through_runtime_state():
    _, rewritten, runtime, _, _, start = healed_run()
    state = runtime.export_state()
    assert state["heal_journal"], "quarantine did not reach the export"

    fresh = ChimeraRuntime(rewritten)  # no self_heal: healer built on demand
    fresh.import_state(state)
    assert fresh.healer is not None
    entry = fresh.healer.journal.get(start)
    assert entry is not None and entry.state == "quarantined"
    # Import re-aligns the tables: the quarantined patch's fault keys
    # are gone, its heal-block trap keys are live.
    rec = entry.record
    for key, _ in rec.fault_entries:
        assert fresh.fault_table.lookup(key) is None
    for trap in entry.heal_patches:
        assert fresh.trap_table[trap.start] == trap.block_addr
        assert trap.trap_entries[-1][0] in fresh.trap_table  # the ebreak
        assert fresh._in_patched_region(trap.start)
    # The full window span is retired; only the heal trap sites remain
    # patched inside it.
    heal_pcs = {a for t in entry.heal_patches for a in range(t.start, t.end)}
    for pc in range(rec.start, rec.end):
        assert fresh._in_patched_region(pc) == (pc in heal_pcs), hex(pc)
