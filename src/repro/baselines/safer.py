"""Safer [49]: binary regeneration with proactive indirect-jump checks.

Safer regenerates the binary (instructions shift to make room for
translations; direct control flow is statically retargeted) and keeps
correctness for indirect jumps by *checking and translating every
indirect jump target at runtime*.  That check runs on normal executions
too — the proactive cost Chimera's passive design avoids (§2.2).

Reproduction of the check: each indirect jump in the regenerated code is
replaced by a checkpoint the simulated kernel services inline — it
recomputes the target from the original operands, translates old-layout
addresses through the regeneration map, and resumes.  The charged cost
(``CHECK_COST`` cycles) models Safer's inlined instrumentation sequence,
*not* a trap; the trigger count is exact (one per executed indirect
jump, the quantity Table 2 reports).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.scan import RecursiveScanner
from repro.baselines.reassemble import reassemble
from repro.core.layout import add_vregs_section
from repro.core.translate import TranslationContext, Translator
from repro.elf.binary import Binary
from repro.isa.block import trap_parcel
from repro.isa.encoding import encode
from repro.isa.extensions import IsaProfile
from repro.isa.instructions import Instruction
from repro.isa.registers import Reg
from repro.sim.cost import ArchParams, DEFAULT_ARCH
from repro.sim.cpu import Cpu
from repro.sim.faults import BreakpointTrap, SimFault
from repro.sim.machine import Kernel, Process

#: Cycles for Safer's inline target check sequence (save/compute/lookup/
#: restore/jump -- roughly a dozen instructions on the paper's core).
CHECK_COST = 14


@dataclass
class SaferStats:
    """Static rewriting statistics."""

    source_instructions: int = 0
    instrumented_indirects: int = 0
    trap_veneers: int = 0
    code_growth_bytes: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(vars(self))


@dataclass
class SaferResult:
    binary: Binary
    stats: SaferStats
    addr_map: dict[int, int]


class SaferRewriter:
    """Regenerate a binary for *target_profile* with indirect checks."""

    def __init__(self, *, arch: ArchParams = DEFAULT_ARCH, mode: str = "full"):
        self.arch = arch
        self.mode = mode

    def rewrite(self, binary: Binary, target_profile: IsaProfile) -> SaferResult:
        scan = RecursiveScanner().scan(binary)
        out = binary.clone(f"{binary.name}@safer-{target_profile.name}")
        vregs_base = add_vregs_section(out)
        translator = Translator(
            TranslationContext(vregs_base, binary.global_pointer), mode=self.mode
        )

        def needs_translation(instr: Instruction) -> bool:
            if instr.extension in target_profile.extensions:
                return False
            return True if self.mode == "empty" else translator.can_translate(instr)

        text = out.text
        code = reassemble(
            scan, translator, text.addr,
            needs_translation=needs_translation,
            pattern_sites=_loop_sites(scan, binary, target_profile, self.mode),
        )

        stats = SaferStats(
            source_instructions=sum(1 for i in scan.instructions.values() if needs_translation(i)),
            trap_veneers=len(code.trap_veneers),
            code_growth_bytes=len(code.code) - text.size,
        )

        new_text = bytearray(code.code)
        check_sites: dict[int, Instruction] = {}
        for new_addr, instr in code.indirect_jump_sites:
            site = instr.copy()
            site.addr = new_addr
            check_sites[new_addr] = site
            trap = trap_parcel(instr.length)
            off = new_addr - text.addr
            new_text[off:off + len(trap)] = trap
            stats.instrumented_indirects += 1

        text.data[:] = b""
        text.data.extend(new_text)
        out.entry = code.addr_map[binary.entry]
        for sym in out.symbols.values():
            if sym.addr in code.addr_map:
                sym.addr = code.addr_map[sym.addr]
        out.metadata["safer"] = {
            "check_sites": check_sites,
            "addr_map": dict(code.addr_map),
            "veneers": dict(code.trap_veneers),
            "gp": binary.global_pointer,
        }
        return SaferResult(out, stats, dict(code.addr_map))


def _loop_sites(scan, binary, target_profile, mode):
    """Loop-level translation sites shared with CHBP (same translator
    quality for every rewriting method; only the mechanism differs)."""
    if mode != "full":
        return []
    from repro.analysis.cfg import build_cfg
    from repro.analysis.liveness import LivenessAnalysis
    from repro.core.downgrade_loops import find_downgrade_loop_sites

    cfg = build_cfg(scan)
    liveness = LivenessAnalysis(cfg).run()
    return find_downgrade_loop_sites(scan, cfg, liveness, target_profile)


class SaferRuntime:
    """Kernel-side servicing of Safer's checkpoints and veneers."""

    def __init__(self, rewritten: Binary):
        meta = rewritten.metadata.get("safer")
        if meta is None:
            raise ValueError(f"{rewritten.name} was not produced by SaferRewriter")
        self.check_sites: dict[int, Instruction] = meta["check_sites"]
        self.addr_map: dict[int, int] = meta["addr_map"]
        self.veneers: dict[int, int] = meta["veneers"]
        self.checks = 0
        self.corrections = 0

    def install(self, kernel: Kernel) -> None:
        kernel.register_fault_handler(self.handle_fault, priority=True)

    def handle_fault(self, kernel: Kernel, process: Process, cpu: Cpu, fault: SimFault) -> bool:
        if not isinstance(fault, BreakpointTrap):
            return False
        site = self.check_sites.get(cpu.pc)
        if site is not None:
            self._do_check(cpu, site)
            return True
        veneer = self.veneers.get(cpu.pc)
        if veneer is not None:
            cpu.pc = self.addr_map.get(veneer, veneer)
            cpu.cycles += cpu.cost.trap_cost
            cpu.bump("safer_veneers")
            return True
        return False

    def _do_check(self, cpu: Cpu, site: Instruction) -> None:
        """Execute the checked indirect jump: translate old-layout targets."""
        rs1 = site.rs1 if site.rs1 is not None else 0
        imm = site.imm or 0
        target = (cpu.get_reg(rs1) + imm) & ~1 & 0xFFFFFFFFFFFFFFFF
        translated = self.addr_map.get(target)
        if translated is not None and translated != target:
            self.corrections += 1
            target = translated
        if site.mnemonic == "jalr" and site.rd:
            cpu.set_reg(site.rd, site.addr + 4)
        elif site.mnemonic == "c.jalr":
            cpu.set_reg(int(Reg.RA), site.addr + 2)
        cpu.pc = target
        cpu.cycles += CHECK_COST
        cpu.bump("safer_checks")
        self.checks += 1
