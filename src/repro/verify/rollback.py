"""Per-patch runtime rollback and self-healing.

When the runtime owns a fault it cannot recover (an unexpected fault
inside a patched region — corrupted trampoline bytes, a clobbered
fault-table redirect, a recovery loop), the :class:`PatchHealer`
quarantines exactly that patch instead of killing the task:

1. **attribute** the fault to its :class:`~repro.verify.records
   .PatchRecord` (fault pc, then the last retired pc, then the SMILE
   return-address register);
2. **roll back** through :func:`~repro.verify.degrade.retrap`: restore
   ``original_bytes`` over the window, retract the record's table
   entries, and re-trap every extension source the restore resurrects
   with a freshly translated trap-fallback block (mapped into a private
   ``.chimera.heal`` segment) — the quarantined site keeps running at
   trap-trampoline speed;
3. **journal** the quarantine with an instret-denominated backoff from
   :class:`~repro.resilience.policy.RetryPolicy`;
4. **re-admit** opportunistically: once the backoff expires the golden
   patch is re-verified (:func:`~repro.core.smile
   .smile_window_violations`) and re-applied; a patch that keeps
   faulting is re-quarantined with a growing backoff and finally
   **pinned** to the fallback encoding for the life of the task.

The journal round-trips through ``ChimeraRuntime.export_state`` /
``import_state`` as primitive tuples, so checkpointed migration moves
quarantined-patch state across cores (the heal segments themselves ride
in the checkpoint's segment images).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.smile import smile_window_violations
from repro.core.translate import TranslationContext, TranslationError, Translator
from repro.elf.binary import Perm
from repro.isa.block import Block, TrapBlock
from repro.isa.decoding import IllegalEncodingError, decode
from repro.isa.extensions import PROFILES
from repro.isa.registers import Reg
from repro.resilience.policy import RetryPolicy
from repro.verify.degrade import retrap
from repro.verify.records import PatchRecord, install, record_for, retract

#: Backoff policy for re-admission: instret-denominated waits, pinning
#: after ``max_attempts`` quarantines of the same patch.
DEFAULT_HEAL_POLICY = RetryPolicy(max_attempts=3, base_backoff=2_000)

_HEAL_SEGMENT_PREFIX = ".chimera.heal"


@dataclass
class HealEntry:
    """Journal state for one patch."""

    record: PatchRecord
    #: "admitted" (patch live) | "quarantined" (rolled back, awaiting
    #: re-admission) | "pinned" (permanently on the fallback encoding).
    state: str = "admitted"
    rollbacks: int = 0
    readmissions: int = 0
    #: instret threshold before the next re-admission attempt.
    not_before: int = 0
    #: The trap records the rollback installed (one per re-trapped
    #: source, its block in a heal segment); empty while admitted.
    heal_patches: list[PatchRecord] = field(default_factory=list)

    @property
    def rolled_back(self) -> bool:
        return self.state in ("quarantined", "pinned")

    def as_state(self) -> tuple:
        return (
            self.record.start,
            self.state,
            self.rollbacks,
            self.readmissions,
            self.not_before,
            tuple(p.as_state() for p in self.heal_patches),
            self.record.as_state(),
        )

    @classmethod
    def from_state(cls, state) -> "HealEntry":
        start, st, rollbacks, readmissions, not_before, patches, rec = state
        return cls(
            record=PatchRecord.from_state(rec),
            state=st,
            rollbacks=rollbacks,
            readmissions=readmissions,
            not_before=not_before,
            heal_patches=[PatchRecord.from_state(p) for p in patches],
        )


class RollbackJournal:
    """Per-patch quarantine ledger, keyed by region start."""

    def __init__(self):
        self.entries: dict[int, HealEntry] = {}

    def entry(self, rec: PatchRecord) -> HealEntry:
        if rec.start not in self.entries:
            self.entries[rec.start] = HealEntry(record=rec)
        return self.entries[rec.start]

    def get(self, start: int) -> Optional[HealEntry]:
        return self.entries.get(start)

    def is_rolled_back(self, start: int) -> bool:
        entry = self.entries.get(start)
        return entry is not None and entry.rolled_back

    def quarantined(self) -> list[HealEntry]:
        return [e for e in self.entries.values() if e.state == "quarantined"]

    def export(self) -> tuple:
        """Primitive, deterministic form for checkpoints (only entries
        that carry state; pristine-admitted entries are elided)."""
        return tuple(
            entry.as_state()
            for _, entry in sorted(self.entries.items())
            if entry.rolled_back or entry.rollbacks or entry.readmissions
        )

    def import_state(self, state) -> None:
        for item in state:
            entry = HealEntry.from_state(item)
            self.entries[entry.record.start] = entry


class PatchHealer:
    """Rollback / re-admission engine attached to one ChimeraRuntime."""

    def __init__(self, runtime, *, policy: Optional[RetryPolicy] = None):
        self.runtime = runtime
        self.policy = policy or DEFAULT_HEAL_POLICY
        self.journal = RollbackJournal()
        meta = runtime.binary.metadata["chimera"]
        self._target = PROFILES[meta["target_profile"]]
        self._translator = Translator(
            TranslationContext(meta["vregs_base"], meta["gp"]),
            mode="full",
        )
        self._compressed = bool(runtime.binary.metadata.get("has_rvc", True))
        self._heal_cursor: Optional[int] = None

    # -- attribution ---------------------------------------------------------

    def attribute(self, cpu, fault_pc: Optional[int]) -> Optional[PatchRecord]:
        """Which patch owns this fault?  Fault pc first, then the pc of
        the last retired instruction (wild jumps), then the SMILE
        return-address register (a partially executed jalr leaves
        ``trampoline + 8`` in its jump register)."""
        records = self.runtime.patch_records
        rec = record_for(records, fault_pc)
        if rec is None:
            rec = record_for(records, getattr(cpu, "last_pc", None))
        if rec is None:
            ra = (cpu.get_reg(Reg.GP) - 8) & 0xFFFFFFFFFFFFFFFF
            candidate = record_for(records, ra)
            if candidate is not None and candidate.kind == "smile":
                rec = candidate
        return rec

    # -- rollback ------------------------------------------------------------

    def heal(self, kernel, process, cpu, fault, fault_pc: Optional[int]) -> bool:
        """Quarantine the patch that owns this fault; True iff healed."""
        rec = self.attribute(cpu, fault_pc)
        if rec is None:
            return False
        entry = self.journal.entry(rec)
        if entry.rolled_back:
            return False  # already on the fallback path: not the patch's fault
        rt = self.runtime
        if rec.kind == "trap":
            # A trap patch *is* the fallback encoding: repair the golden
            # ebreak and its trap-table entries in place.
            process.space.patch_code(rec.start, rec.patched_bytes)
            install(rec, rt.fault_table, rt.trap_table)
        else:
            try:
                self._rollback_smile(process, rec, entry)
            except (TranslationError, IllegalEncodingError):
                return False  # cannot build a fallback: let the fault escape
        entry.rollbacks += 1
        if rec.kind != "trap":
            entry.state = "quarantined"
            entry.not_before = cpu.instret + self.policy.backoff(entry.rollbacks)
        cpu.pc = self._resume_pc(rec, fault_pc)
        cpu.set_reg(Reg.GP, rt.gp_value)
        # Only the restored window and the re-trapped sources changed;
        # every other cached decode/superblock stays valid.
        cpu.invalidate_code(rec.start, rec.end - rec.start)
        for trap in entry.heal_patches:
            cpu.invalidate_code(trap.start, trap.end - trap.start)
        cpu.cycles += cpu.cost.fault_handling_cost * 4  # rollback is heavy
        cpu.bump("patch_rollbacks")
        rt.stats.patch_rollbacks += 1
        rt._record("patch_rollback")
        return True

    def _rollback_smile(self, process, rec: PatchRecord, entry: HealEntry) -> None:
        """Restore the window and re-trap its sources in the live process."""
        rt = self.runtime
        entry.heal_patches = list(retrap(
            rec, self._translator, self._target,
            write=process.space.patch_code,
            emit=lambda body: self._emit_heal_block(process, body),
            fault_table=rt.fault_table, trap_table=rt.trap_table))

    def _emit_heal_block(self, process, body: Block) -> TrapBlock:
        """Place one ebreak-terminated fallback block in a fresh RX heal
        segment."""
        block = TrapBlock.place(body, lambda size: self._place_heal(process, size))
        process.space.map(
            f"{_HEAL_SEGMENT_PREFIX}.{block.addr:x}",
            block.addr, bytearray(block.code), Perm.RX)
        return block

    def _place_heal(self, process, size: int) -> int:
        if self._heal_cursor is None:
            top = max(seg.base + seg.size for seg in process.space.segments)
            self._heal_cursor = (top + 0xFFFF) & ~0xFFFF
        # Resume past any heal segments a checkpoint restore brought in.
        for seg in process.space.segments:
            if seg.name.startswith(_HEAL_SEGMENT_PREFIX):
                self._heal_cursor = max(self._heal_cursor, seg.base + seg.size)
        addr = (self._heal_cursor + 0xF) & ~0xF
        self._heal_cursor = addr + size
        return addr

    def _resume_pc(self, rec: PatchRecord, fault_pc: Optional[int]) -> int:
        """Resume at the faulting original boundary when there is one,
        else re-enter the restored window at its head."""
        if fault_pc is not None and rec.contains(fault_pc):
            addr = rec.start
            data = rec.original_bytes
            while addr < rec.end:
                if addr == fault_pc:
                    return addr
                try:
                    addr += decode(data, addr - rec.start, addr=addr).length
                except IllegalEncodingError:
                    break
        return rec.start

    # -- re-admission --------------------------------------------------------

    def maybe_readmit(self, process, cpu) -> int:
        """Re-apply quarantined patches whose backoff expired; returns
        the number re-admitted.  Called opportunistically after handled
        faults — re-admission needs no extra machinery of its own."""
        readmitted = 0
        for entry in self.journal.quarantined():
            if cpu.instret < entry.not_before:
                continue
            if self.policy.exhausted(entry.rollbacks):
                entry.state = "pinned"
                self.runtime._record("patch_pinned")
                continue
            rec = entry.record
            if self._pc_inside(cpu.pc, entry):
                continue  # never swap code out from under the pc
            if rec.kind in ("smile", "smile-dp") and smile_window_violations(
                    rec.patched_bytes, rec.start,
                    compressed=self._compressed, reg=rec.smile_reg):
                entry.state = "pinned"  # golden patch itself is bad
                self.runtime._record("patch_pinned")
                continue
            # Capture the spans before _reapply clears heal_patches.
            spans = [(r.start, r.end - r.start)
                     for r in (rec, *entry.heal_patches)]
            self._reapply(process, rec, entry)
            entry.state = "admitted"
            entry.readmissions += 1
            readmitted += 1
            for addr, length in spans:
                cpu.invalidate_code(addr, length)
            self.runtime.stats.patch_readmissions += 1
            self.runtime._record("patch_readmission")
        return readmitted

    def _pc_inside(self, pc: int, entry: HealEntry) -> bool:
        if entry.record.contains(pc):
            return True
        # A heal block ends with its 4-byte ebreak, the last trap key.
        return any(
            trap.contains(pc)
            or trap.block_addr <= pc < trap.trap_entries[-1][0] + 4
            for trap in entry.heal_patches
        )

    def _reapply(self, process, rec: PatchRecord, entry: HealEntry) -> None:
        rt = self.runtime
        for trap in entry.heal_patches:
            retract(trap, rt.fault_table, rt.trap_table)
            process.space.patch_code(trap.start, trap.original_bytes)
        process.space.patch_code(rec.start, rec.patched_bytes)
        install(rec, rt.fault_table, rt.trap_table)
        entry.heal_patches = []

    # -- splice / checkpoint interplay ---------------------------------------

    def reapply_after_splice(self, process, cpu) -> None:
        """A runtime rewrite just copied the full patched text over the
        live space, silently un-quarantining rolled-back patches.
        Re-impose every quarantine (original bytes + source traps)."""
        rt = self.runtime
        for entry in self.journal.quarantined():
            rec = entry.record
            process.space.patch_code(rec.start, rec.original_bytes)
            retract(rec, rt.fault_table, rt.trap_table)
            cpu.invalidate_code(rec.start, rec.end - rec.start)
            for trap in entry.heal_patches:
                process.space.patch_code(trap.start, trap.patched_bytes)
                install(trap, rt.fault_table, rt.trap_table)
                cpu.invalidate_code(trap.start, trap.end - trap.start)

    def apply_imported_state(self) -> None:
        """Fix the runtime's tables after a journal import: a freshly
        constructed runtime starts with every patch admitted, but the
        imported journal may say some are quarantined.  The region bytes
        and heal segments arrive via the checkpoint's segment images;
        only the tables need re-aligning here."""
        rt = self.runtime
        for entry in self.journal.entries.values():
            if not entry.rolled_back:
                continue
            retract(entry.record, rt.fault_table, rt.trap_table)
            for trap in entry.heal_patches:
                install(trap, rt.fault_table, rt.trap_table)
