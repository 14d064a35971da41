"""Chimera's runtime fault handling (paper §4.3).

The runtime registers a *priority* fault handler with the simulated
kernel (mirroring the paper's kernel modification: CHBP-generated
signals are checked first, everything else falls back to standard
handling).  It recovers the two deterministic fault shapes SMILE
produces and lazily rewrites unrecognized extension instructions:

* **SIGSEGV, exec access, address in a non-executable data segment** —
  a partially executed SMILE ``jalr`` (P1).  The fault address is the
  return address the jalr wrote into gp, minus 4.  If the fault-handling
  table knows it, restore gp and redirect to the copied instruction.
* **SIGILL at a table key** — a mid-trampoline parcel (P2/P3): redirect.
* **SIGILL, unsupported extension, unknown address** — an instruction
  the static scan missed.  Rewrite it in place at runtime (patch the
  code, extend the tables), flush decode caches, resume.
* **ebreak at a trap-table key** — trap-based trampoline (the fallback
  path and all baseline rewriters): redirect, charging the trap cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.fault_table import FaultTable
from repro.elf.binary import Binary, Perm
from repro.isa.registers import Reg
from repro.sim.cpu import Cpu
from repro.sim.faults import (
    BreakpointTrap,
    IllegalInstructionFault,
    SegmentationFault,
    SimFault,
    UnrecoverableFault,
)
from repro.sim.machine import Kernel, Process
from repro.telemetry import current as telemetry_current
from repro.verify.records import PatchRecord, p1_registers, record_for

#: Default bound on consecutive zero-progress recoveries before the
#: runtime declares a fault loop and aborts with diagnostics.
DEFAULT_MAX_RECOVERY_DEPTH = 8


@dataclass
class RuntimeStats:
    """Dynamic fault-handling counters (these feed Table 2)."""

    smile_segv_recoveries: int = 0
    smile_sigill_recoveries: int = 0
    runtime_rewrites: int = 0
    trap_redirects: int = 0
    signals_gp_restored: int = 0
    #: Faults the runtime owned (patched-region pc) but could not
    #: recover — corrupted/missing fault-table entries and the like.
    unrecoverable_faults: int = 0
    #: Patched-region fault-table lookups that came back empty.
    fault_table_misses: int = 0
    #: Recovery chains aborted by the recovery-depth guard.
    recovery_loop_aborts: int = 0
    #: Owned faults whose patched region no longer held the recorded
    #: patch bytes (corruption, distinct from a table miss on an
    #: intact trampoline).
    corrupted_patch_faults: int = 0
    #: Self-healing: patches quarantined back to the fallback encoding,
    #: and patches re-verified and re-applied after their backoff.
    patch_rollbacks: int = 0
    patch_readmissions: int = 0

    @property
    def deterministic_faults(self) -> int:
        """Total Chimera correctness-mechanism triggers."""
        return self.smile_segv_recoveries + self.smile_sigill_recoveries + self.runtime_rewrites

    def as_dict(self) -> dict[str, int]:
        return dict(vars(self))


class ChimeraRuntime:
    """Kernel-side runtime for one rewritten binary."""

    def __init__(
        self,
        rewritten: Binary,
        *,
        rewriter=None,
        original: Optional[Binary] = None,
        max_recovery_depth: int = DEFAULT_MAX_RECOVERY_DEPTH,
        self_heal: bool = False,
        heal_policy=None,
    ):
        meta = rewritten.metadata.get("chimera")
        if meta is None:
            raise ValueError(f"{rewritten.name} was not produced by ChimeraRewriter")
        self.binary = rewritten
        self.fault_table: FaultTable = meta["fault_table"]
        self.trap_table: dict[int, int] = meta["trap_table"]
        self.gp_value: int = meta["gp"]
        #: Each record's migration-unsafe span [start, hi): a fault inside
        #: the span of a live patch is ours by construction (see
        #: :meth:`_in_patched_region`).  Not derivable from the records:
        #: a batched site's span runs past its window.
        self.migration_unsafe: list[tuple[int, int]] = [
            tuple(span) for span in meta.get("migration_unsafe", ())]
        self.stats = RuntimeStats()
        #: Recovery-depth guard: a recovered fault that faults again
        #: before retiring a single instruction is a loop (e.g. a
        #: corrupted redirect, or a runtime rewrite that re-faults);
        #: after this many zero-progress recoveries the runtime aborts.
        self.max_recovery_depth = max_recovery_depth
        self._recovery_streak = 0
        self._last_recovery_instret: Optional[int] = None
        self._last_redirect: Optional[int] = None
        #: Optional chaos injector (repro.chaos.injector); None normally.
        self.injector = None
        #: Optional lazy-rewriting support: the rewriter and the original
        #: binary are needed to translate instructions the scan missed.
        self._rewriter = rewriter
        self._original = original
        #: Per-patch provenance (verified patching): golden bytes and
        #: table ownership for every patch, by original address.
        self.patch_records = tuple(meta.get("patch_records", ()))
        #: Fig. 5 variant: P1 address -> the general register whose
        #: return-address value identifies the fault (gp otherwise).
        self._p1_registers = p1_registers(self.patch_records)
        #: Self-healing (opt-in): attribute unexpected owned faults to
        #: their patch, quarantine/roll back that one patch, and keep
        #: the task running instead of raising UnrecoverableFault.
        self.healer = None
        if self_heal:
            self._start_healing(heal_policy)

    def _start_healing(self, policy=None) -> None:
        from repro.verify.rollback import PatchHealer

        # Healing mutates the tables per-task; never through the
        # metadata objects other runtimes of this binary share.
        table = FaultTable()
        table.entries.update(self.fault_table.entries)
        self.fault_table = table
        self.trap_table = dict(self.trap_table)
        self.healer = PatchHealer(self, policy=policy)

    # -- installation -------------------------------------------------------

    def install(self, kernel: Kernel) -> None:
        """Register the priority fault handler and the signal gp hook."""
        kernel.register_fault_handler(self.handle_fault, priority=True)
        kernel.pre_signal_hooks.append(self._signal_gp_restore)

    @staticmethod
    def _record(event: str) -> None:
        """Mirror a runtime event into the active telemetry (if any)."""
        telemetry = telemetry_current()
        if telemetry.enabled:
            telemetry.metrics.inc("runtime.events", kind=event)

    # -- fault handling -------------------------------------------------------

    def handle_fault(self, kernel: Kernel, process: Process, cpu: Cpu, fault: SimFault) -> bool:
        """The priority handler: return True iff the fault was CHBP's.

        Graceful degradation (chaos hardening): a fault that lands in a
        patched region but cannot be recovered, or a recovery chain that
        makes no progress for :attr:`max_recovery_depth` rounds, raises
        a structured :class:`UnrecoverableFault` instead of silently
        declining or looping forever.
        """
        if self.injector is not None:
            self.injector.before_recovery(self, kernel, process, cpu, fault)
        fault_pc = fault.pc if fault.pc is not None else cpu.pc
        looping = (
            self._last_recovery_instret is not None
            and cpu.instret == self._last_recovery_instret
        )
        if looping:
            self._recovery_streak += 1
            if self._recovery_streak >= self.max_recovery_depth:
                if self._try_heal(kernel, process, cpu, fault, fault_pc):
                    return True
                self.stats.recovery_loop_aborts += 1
                self._record("recovery_loop_abort")
                self.stats.unrecoverable_faults += 1
                self._record("unrecoverable_fault")
                raise UnrecoverableFault(
                    f"fault-recovery loop: {self._recovery_streak} consecutive "
                    "recoveries without retiring an instruction",
                    pc=fault_pc,
                    cause=fault,
                    attempts=self._recovery_streak,
                    context=self._fault_context(cpu),
                )
        else:
            self._recovery_streak = 0

        handled = False
        if isinstance(fault, SegmentationFault) and fault.access == "exec":
            handled = self._handle_segv(kernel, process, cpu, fault)
        elif isinstance(fault, IllegalInstructionFault):
            handled = self._handle_sigill(kernel, process, cpu, fault)
        elif isinstance(fault, BreakpointTrap):
            handled = self._handle_trap(kernel, process, cpu, fault)
        if handled:
            self._last_recovery_instret = cpu.instret
            self._last_redirect = cpu.pc
            if self.healer is not None:
                # Opportunistic re-admission: quarantined patches whose
                # backoff expired are re-verified and re-applied here.
                self.healer.maybe_readmit(process, cpu)
            return True
        # Unhandled.  If the fault struck one of our patched regions, or
        # immediately followed one of our own redirects, it is ours by
        # construction: the failure to recover means the fault table or
        # a redirect target is corrupt -> abort with diagnostics.
        # last_pc covers *exec* faults whose pc is useless (a wild jump
        # target) but whose *origin* was a patched instruction — e.g. a
        # SMILE jalr jumping through a clobbered gp.  Only exec faults:
        # other fault kinds (a migration probe's ebreak) can legally
        # follow a patched instruction and belong to other handlers.
        wild_jump = (
            isinstance(fault, SegmentationFault)
            and fault.access == "exec"
            and self._in_patched_region(getattr(cpu, "last_pc", None))
        )
        if looping or self._in_patched_region(fault_pc) or wild_jump:
            if self._try_heal(kernel, process, cpu, fault, fault_pc):
                return True
            if not looping:
                self.stats.fault_table_misses += 1
                self._record("fault_table_miss")
            self.stats.unrecoverable_faults += 1
            self._record("unrecoverable_fault")
            verdict = self._classify_patched_encoding(process, fault_pc)
            if verdict == "corrupted":
                self.stats.corrupted_patch_faults += 1
                self._record("corrupted_patch_fault")
            context = self._fault_context(cpu)
            context["patch_encoding"] = verdict
            raise UnrecoverableFault(
                f"{type(fault).__name__} at {fault_pc:#x} inside a patched "
                f"region could not be recovered (patch encoding: {verdict})",
                pc=fault_pc,
                cause=fault,
                attempts=self._recovery_streak,
                context=context,
            )
        return False

    def _try_heal(self, kernel: Kernel, process: Process, cpu: Cpu,
                  fault: SimFault, fault_pc: Optional[int]) -> bool:
        """Self-heal an owned-but-unrecoverable fault by quarantining
        the patch it belongs to (no-op unless ``self_heal`` is on)."""
        if self.healer is None:
            return False
        if not self.healer.heal(kernel, process, cpu, fault, fault_pc):
            return False
        self._recovery_streak = 0
        self._last_recovery_instret = cpu.instret
        self._last_redirect = cpu.pc
        return True

    def _classify_patched_encoding(self, process: Process,
                                   fault_pc: Optional[int]) -> str:
        """Satellite diagnosis: did the patched region still hold the
        recorded patch bytes when it faulted?  "intact" means the fault
        came from a well-formed SMILE trampoline whose table entry is
        missing or wrong; "corrupted" means the encoding itself was
        damaged; "unknown" when no record covers the pc."""
        rec = record_for(self.patch_records, fault_pc)
        if rec is None:
            return "unknown"
        if self.healer is not None and self.healer.journal.is_rolled_back(rec.start):
            return "quarantined"
        live = bytes(process.space.read(rec.start, len(rec.patched_bytes)))
        return "intact" if live == rec.patched_bytes else "corrupted"

    def _patch_intact(self, process: Process, addr: Optional[int]) -> bool:
        """False iff *addr* falls in a patch record whose live bytes no
        longer match the recorded patch (and it is not a deliberate
        rollback).  Redirect paths consult this before trusting a table
        entry: a corrupted trampoline that still happens to produce a
        plausible-looking fault must not be 'recovered' silently."""
        rec = record_for(self.patch_records, addr)
        if rec is None:
            return True
        if self.healer is not None and self.healer.journal.is_rolled_back(rec.start):
            return True
        live = bytes(process.space.read(rec.start, len(rec.patched_bytes)))
        return live == rec.patched_bytes

    def _in_patched_region(self, pc: Optional[int]) -> bool:
        """Is *pc* owned by a patch?  It is when it lies in the unsafe
        span of a live (not rolled-back) patch or in a heal trap.  Asked
        only on unhandled faults, so it is derived, never stored."""
        if pc is None:
            return False
        journal = self.healer.journal if self.healer is not None else None
        for lo, hi in self.migration_unsafe:
            if lo <= pc < hi and not (journal and journal.is_rolled_back(lo)):
                return True
        return journal is not None and any(
            trap.contains(pc) for entry in journal.entries.values()
            if entry.rolled_back for trap in entry.heal_patches)

    def _fault_context(self, cpu: Cpu) -> dict:
        """Diagnostic snapshot attached to every UnrecoverableFault."""
        return {
            "fault_table_entries": len(self.fault_table.entries)
            if hasattr(self.fault_table, "entries") else "corrupt",
            "trap_table_entries": len(self.trap_table),
            "last_redirect": hex(self._last_redirect) if self._last_redirect is not None else None,
            "gp": hex(cpu.get_reg(Reg.GP)),
            "cpu_pc": hex(cpu.pc),
            "instret": cpu.instret,
            "max_recovery_depth": self.max_recovery_depth,
        }

    def _handle_segv(self, kernel: Kernel, process: Process, cpu: Cpu, fault: SegmentationFault) -> bool:
        # Ours are exec faults into non-executable (or unmapped) memory;
        # the fault-table lookup below is the real discriminator.
        seg = process.space.segment_at(fault.addr)
        if seg is not None and Perm.X in seg.perm:
            return False
        # The jalr stored its return address (trampoline + 8) in gp.
        fault_addr = (cpu.get_reg(Reg.GP) - 4) & 0xFFFFFFFFFFFFFFFF
        if not self._patch_intact(process, fault_addr):
            return False  # corrupted trampoline: never a silent recovery
        redirect = self.fault_table.lookup(fault_addr)
        if redirect is not None:
            cpu.set_reg(Reg.GP, self.gp_value)  # undo the SMILE clobber
            cpu.pc = redirect
            cpu.cycles += cpu.cost.fault_handling_cost
            cpu.bump("chimera_faults")
            self.stats.smile_segv_recoveries += 1
            self._record("smile_segv_recovery")
            return True
        # Fig. 5 variant: the return address sits in a general register;
        # probe the armed trampolines' registers (rare path, tiny table).
        # A rolled-back trampoline's P1 key is retracted: the lookup misses.
        for p1_addr, reg in self._p1_registers.items():
            if (cpu.get_reg(reg) - 4) & 0xFFFFFFFFFFFFFFFF == p1_addr:
                if not self._patch_intact(process, p1_addr):
                    continue
                redirect = self.fault_table.lookup(p1_addr)
                if redirect is None:
                    continue
                # No restore needed: the block's reconstructed lui
                # redefines the register immediately.
                cpu.pc = redirect
                cpu.cycles += cpu.cost.fault_handling_cost
                cpu.bump("chimera_faults")
                self.stats.smile_segv_recoveries += 1
                self._record("smile_segv_recovery")
                return True
        return False

    def _handle_sigill(self, kernel: Kernel, process: Process, cpu: Cpu, fault: IllegalInstructionFault) -> bool:
        if not self._patch_intact(process, cpu.pc):
            # A SIGILL from damaged patch bytes is corruption, not a
            # SMILE parcel; declining routes it to healing/diagnosis.
            return False
        redirect = self.fault_table.lookup(cpu.pc)
        if redirect is not None:
            cpu.set_reg(Reg.GP, self.gp_value)
            cpu.pc = redirect
            cpu.cycles += cpu.cost.fault_handling_cost
            cpu.bump("chimera_faults")
            self.stats.smile_sigill_recoveries += 1
            self._record("smile_sigill_recovery")
            return True
        if fault.kind == "unsupported-extension":
            return self._rewrite_at_runtime(process, cpu)
        return False

    def _handle_trap(self, kernel: Kernel, process: Process, cpu: Cpu, fault: BreakpointTrap) -> bool:
        target = self.trap_table.get(cpu.pc)
        if target is None:
            return False
        if not self._patch_intact(process, cpu.pc):
            return False
        cpu.pc = target
        cpu.cycles += cpu.cost.trap_cost
        cpu.bump("traps")
        self.stats.trap_redirects += 1
        self._record("trap_redirect")
        return True

    # -- lazy rewriting -------------------------------------------------------

    def _rewrite_at_runtime(self, process: Process, cpu: Cpu) -> bool:
        """Rewrite an unrecognized source instruction the scan missed.

        Re-runs the patcher with the faulting pc as an extra scan entry;
        splices the new trampolines/blocks into the live address space
        and merges the new tables.  Returns False when the instruction
        is genuinely untranslatable (the fault is not ours).
        """
        if self._rewriter is None or self._original is None:
            return False
        try:
            meta = self.binary.metadata["chimera"]
            profile = _profile_by_name(meta["target_profile"])
        except KeyError as exc:
            # Structured degradation: corrupted rewriting metadata must
            # never escape as a bare KeyError traceback.
            self.stats.unrecoverable_faults += 1
            self._record("unrecoverable_fault")
            raise UnrecoverableFault(
                f"runtime rewrite at {cpu.pc:#x}: rewriting metadata is corrupt",
                pc=cpu.pc,
                cause=exc,
                context=self._fault_context(cpu),
            ) from exc
        result = self._rewriter.rewrite(
            self._original,
            profile,
            scan_entries=[cpu.pc],
        )
        new = result.binary
        new_meta = new.metadata["chimera"]
        # The re-scan must actually have patched the faulting site --
        # otherwise the instruction is untranslatable and not ours.
        width = min(4, new.text.end - cpu.pc)
        if new.text.read(cpu.pc, width) == bytes(process.space.read(cpu.pc, width)):
            return False
        # Splice: copy the patched text and the chimera sections into the
        # live space (kernel privilege: ignores W permission on text).
        text = new.text
        process.space.patch_code(text.addr, bytes(text.data))
        self._sync_section(process, new, ".chimera.text", Perm.RX)
        self._sync_section(process, new, ".chimera.vregs", Perm.RW)
        self._merge(new_meta["fault_table"].entries.items(),
                    new_meta["trap_table"].items(),
                    new_meta.get("patch_records", ()),
                    new_meta.get("migration_unsafe", ()))
        cpu.flush_decode_cache()
        if self.healer is not None:
            # The full-text splice just silently un-quarantined every
            # rolled-back patch; re-impose the quarantines.
            self.healer.reapply_after_splice(process, cpu)
        if self.injector is not None:
            self.injector.after_rewrite(self, process, cpu)
        cpu.cycles += cpu.cost.fault_handling_cost * 4  # rewrite is heavier
        cpu.bump("runtime_rewrites")
        self.stats.runtime_rewrites += 1
        self._record("runtime_rewrite")
        return True

    def _sync_section(self, process: Process, new: Binary, name: str, perm: Perm) -> None:
        if not new.has_section(name):
            return
        section = new.section(name)
        seg = process.space.segment_at(section.addr)
        if seg is not None and seg.size == section.size:
            seg.data[:] = section.data
            seg.version += 1
            return
        if seg is not None:
            process.space.segments.remove(seg)
        process.space.map(name, section.addr, bytearray(section.data), perm)

    def _merge(self, fault_entries, trap_entries, records, unsafe) -> None:
        """Merge a re-scan's (or a checkpoint's) tables, records and
        unsafe spans.  The tables merge whole: they also hold entries no
        record owns (upgrade epilogue exits).  Same-start records are
        superseded (the splice replaced their blocks and tables too)."""
        self.fault_table.entries.update(fault_entries)
        self.trap_table.update(trap_entries)
        merged = {rec.start: rec for rec in self.patch_records}
        merged.update((rec.start, rec) for rec in records)
        self.patch_records = tuple(sorted(merged.values(), key=lambda r: r.start))
        self._p1_registers = p1_registers(self.patch_records)
        for span in unsafe:
            span = tuple(span)
            if span not in self.migration_unsafe:
                self.migration_unsafe.append(span)

    # -- checkpointing --------------------------------------------------------

    def export_state(self) -> dict:
        """Mutable runtime state for a checkpoint.

        Lazy rewriting extends the tables, the records and the unsafe
        spans while the task runs; a task restored from a checkpoint must
        see the extended view or re-fault on already-rewritten sites.
        Only what the splices added travels: the rest is in the binary.
        """
        meta = self.binary.metadata["chimera"]
        shipped = set(meta.get("patch_records", ()))
        shipped_unsafe = {tuple(span) for span in meta.get("migration_unsafe", ())}
        state = {
            "fault_table": sorted(self.fault_table.entries.items()),
            "trap_table": sorted(self.trap_table.items()),
            "patch_records": [rec.as_state() for rec in self.patch_records
                              if rec not in shipped],
            "migration_unsafe": sorted(set(self.migration_unsafe) - shipped_unsafe),
        }
        if self.healer is not None:
            state["heal_journal"] = self.healer.journal.export()
        return state

    def import_state(self, state: dict) -> None:
        """Merge checkpointed runtime state back in (see export_state)."""
        self._merge(state.get("fault_table", ()), state.get("trap_table", ()),
                    [PatchRecord.from_state(rec)
                     for rec in state.get("patch_records", ())],
                    state.get("migration_unsafe", ()))
        journal = state.get("heal_journal")
        if journal:
            if self.healer is None:
                self._start_healing()
            self.healer.journal.import_state(journal)
            # A fresh runtime starts with every patch admitted; imported
            # quarantines must re-align the tables (region bytes and
            # heal segments arrive via the checkpoint segment images).
            self.healer.apply_imported_state()

    # -- signals -------------------------------------------------------------

    def _signal_gp_restore(self, kernel: Kernel, process: Process, cpu: Cpu, signum: int) -> None:
        """Fig. 10: if a signal lands while gp is temporarily clobbered by a
        SMILE trampoline/target block, the user handler must still observe
        the ABI gp value."""
        if cpu.get_reg(Reg.GP) != self.gp_value:
            cpu.set_reg(Reg.GP, self.gp_value)
            self.stats.signals_gp_restored += 1
            self._record("signal_gp_restored")


def _profile_by_name(name: str):
    from repro.isa.extensions import PROFILES

    return PROFILES[name]
