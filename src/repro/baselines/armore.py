"""ARMore [26]: relocate-everything binary patching (§2.2).

ARMore copies all original instructions into a new code section (fixing
direct control flow and translating sources there) and turns the
*original* code section into a trampoline array: each original
instruction address holds a jump to its relocated counterpart.  Indirect
jumps keep original addresses as targets — including return addresses,
which ARMore deliberately leaves "original" so address-taken semantics
survive — so every indirect transfer bounces through a trampoline.

On ARM a single branch reaches ±128 MB and the bounce is one cheap
instruction.  On RISC-V ``jal`` reaches only ±1 MB and compressed slots
can hold no long jump at all, so once the relocated section is out of
reach the trampolines degrade to traps — the 171.5% overhead the paper
measures.  ``ArchParams.jal_reach`` (scaled with synthetic binaries)
decides reachability here.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.scan import RecursiveScanner
from repro.baselines.reassemble import reassemble
from repro.core.layout import add_vregs_section
from repro.core.translate import TranslationContext, Translator
from repro.elf.binary import Binary, Perm, Section
from repro.isa.block import trap_parcel
from repro.isa.encoding import encode
from repro.isa.extensions import IsaProfile
from repro.isa.instructions import Instruction
from repro.sim.cost import ArchParams, DEFAULT_ARCH
from repro.sim.cpu import Cpu
from repro.sim.faults import BreakpointTrap, SimFault
from repro.sim.machine import Kernel, Process


@dataclass
class ArmoreStats:
    """Static rewriting statistics."""

    source_instructions: int = 0
    jal_trampolines: int = 0
    trap_trampolines: int = 0
    relocated_bytes: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(vars(self))


@dataclass
class ArmoreResult:
    binary: Binary
    stats: ArmoreStats
    addr_map: dict[int, int]


class ArmoreRewriter:
    """Rewrite a binary ARMore-style for *target_profile*."""

    def __init__(self, *, arch: ArchParams = DEFAULT_ARCH, mode: str = "full"):
        self.arch = arch
        self.mode = mode

    def rewrite(self, binary: Binary, target_profile: IsaProfile) -> ArmoreResult:
        scan = RecursiveScanner().scan(binary)
        out = binary.clone(f"{binary.name}@armore-{target_profile.name}")
        vregs_base = add_vregs_section(out)
        translator = Translator(
            TranslationContext(vregs_base, binary.global_pointer), mode=self.mode
        )

        def needs_translation(instr: Instruction) -> bool:
            if instr.extension in target_profile.extensions:
                return False
            return True if self.mode == "empty" else translator.can_translate(instr)

        text = out.text
        # ARMore appends the relocated section right after the code, so
        # the original->relocated distance is on the order of the code
        # size (what decides jal reachability).  Fall back above every
        # section if the gap to the data segment is too small.
        reloc_base = (text.end + 0xFFF) & ~0xFFF
        data_start = min(s.addr for s in out.sections if s.addr > text.end)
        if reloc_base + 4 * text.size > data_start:
            reloc_base = (max(s.end for s in out.sections) + 0xFFF) & ~0xFFF
        from repro.baselines.safer import _loop_sites

        code = reassemble(
            scan, translator, reloc_base,
            needs_translation=needs_translation,
            call_ra_style="original",
            pattern_sites=_loop_sites(scan, binary, target_profile, self.mode),
        )
        out.add_section(Section(".armore.text", reloc_base, bytearray(code.code), Perm.RX))

        stats = ArmoreStats(
            source_instructions=sum(1 for i in scan.instructions.values() if needs_translation(i)),
            relocated_bytes=len(code.code),
        )

        # Original section -> trampoline array.
        reach = min(self.arch.jal_reach, 1 << 20)
        trap_table: dict[int, int] = dict(code.trap_veneers)
        trampoline_addrs: list[int] = []
        for addr, instr in sorted(scan.instructions.items()):
            new = code.addr_map[addr]
            disp = new - addr
            if instr.length == 4 and -reach <= disp < reach:
                text.write(addr, encode(Instruction("jal", rd=0, imm=disp)))
                stats.jal_trampolines += 1
            else:
                text.write(addr, trap_parcel(instr.length))
                trap_table[addr] = new
                stats.trap_trampolines += 1
            trampoline_addrs.append(addr)

        # Veneer traps inside relocated code resolve through the map too.
        for vaddr, old_target in code.trap_veneers.items():
            trap_table[vaddr] = code.addr_map.get(old_target, old_target)
        out.metadata["armore"] = {
            "trap_table": trap_table,
            "addr_map": dict(code.addr_map),
            "trampoline_addrs": trampoline_addrs,
        }
        return ArmoreResult(out, stats, dict(code.addr_map))


class ArmoreRuntime:
    """Kernel-side trap servicing + bounce counting."""

    def __init__(self, rewritten: Binary):
        meta = rewritten.metadata.get("armore")
        if meta is None:
            raise ValueError(f"{rewritten.name} was not produced by ArmoreRewriter")
        self.trap_table: dict[int, int] = meta["trap_table"]
        self.trampoline_addrs: list[int] = meta["trampoline_addrs"]
        self.traps = 0

    def install(self, kernel: Kernel) -> None:
        kernel.register_fault_handler(self.handle_fault, priority=True)

    def attach_cpu(self, cpu: Cpu) -> None:
        """Tag jal trampolines so executed bounces are counted."""
        for addr in self.trampoline_addrs:
            cpu.tag_addrs.setdefault(addr, "armore_redirects")

    def handle_fault(self, kernel: Kernel, process: Process, cpu: Cpu, fault: SimFault) -> bool:
        if not isinstance(fault, BreakpointTrap):
            return False
        target = self.trap_table.get(cpu.pc)
        if target is None:
            return False
        cpu.pc = target
        cpu.cycles += cpu.cost.trap_cost
        cpu.bump("armore_redirects")
        cpu.bump("traps")
        self.traps += 1
        return True
