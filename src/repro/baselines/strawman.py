"""Strawman binary patching (§6.2's fourth baseline).

In-place patching like CHBP, but with single-instruction ``jal``
trampolines instead of SMILE: each 4-byte source instruction is replaced
by ``jal x0, <target block>`` — correct (nothing else is overwritten)
and cheap, **when the block is within the ±1 MB jal reach**.  Everything
else — 2-byte sources (no compressed long jump exists) and blocks beyond
reach — falls back to trap-based trampolines.  Comparing CHBP against
this strawman isolates what the SMILE long-distance trampoline buys
(the paper reports +60.2%).

Target blocks are placed immediately after the code section to maximize
reachability, exactly what a practical implementation would do.
"""

from __future__ import annotations

from repro.core.patcher import ChbpPatcher
from repro.core.rewriter import RewriteResult
from repro.elf.binary import Binary, Section
from repro.isa.block import Block, trap_parcel
from repro.isa.encoding import encode
from repro.isa.extensions import IsaProfile
from repro.isa.instructions import Instruction
from repro.sim.cost import ArchParams, DEFAULT_ARCH


class StrawmanPatcher(ChbpPatcher):
    """CHBP's pipeline with jal/trap patching instead of SMILE."""

    def _chimera_text_base(self, out: Binary) -> int:
        # Place blocks as close to the code as possible: jal reach is
        # the whole game for this method.
        text = out.text
        base = (text.end + 0xF) & ~0xF
        following = [s.addr for s in out.sections if s.addr >= text.end]
        data_start = min(following) if following else None
        if data_start is not None and base + 16 * text.size > data_start:
            base = (max(s.end for s in out.sections) + 0xFFF) & ~0xFFF
        return base

    def _patch_site(self, site, text: Section) -> bool:
        reach = min(self.arch.jal_reach, 1 << 20)
        for kind, payload in site.elements:
            if kind == "copy":
                continue
            if kind == "upgrade":
                self._patch_one(payload.instructions[0], payload.replacement,
                                payload.end, text, reach)
            elif payload.addr not in self._covered:
                self._patch_one(payload, self.translator.translate(payload),
                                payload.addr + payload.length, text, reach)
        return True

    def _patch_one(self, instr: Instruction, body: Block, resume: int,
                   text: Section, reach: int) -> None:
        block = bytearray(body.encode().code)
        block_addr = self._alloc.place_unconstrained(len(block) + 4)  # + return jump
        back_pc = block_addr + len(block)
        disp_back = resume - back_pc
        if -reach <= disp_back < reach:
            block.extend(encode(Instruction("jal", rd=0, imm=disp_back)))
        else:
            block.extend(encode(Instruction("ebreak")))
            self.trap_table[back_pc] = resume
        self._blocks[block_addr] = block

        disp = block_addr - instr.addr
        if instr.length == 4 and -reach <= disp < reach:
            text.write(instr.addr, encode(Instruction("jal", rd=0, imm=disp)))
            self.stats.trampolines += 1
        else:
            text.write(instr.addr, trap_parcel(instr.length))
            self.trap_table[instr.addr] = block_addr
            self.stats.trap_fallbacks += 1
        self._covered.add(instr.addr)
        self.migration_unsafe.append((instr.addr, resume))


def rewrite_strawman(
    binary: Binary,
    target_profile: IsaProfile,
    *,
    arch: ArchParams = DEFAULT_ARCH,
    mode: str = "full",
) -> RewriteResult:
    """Convenience wrapper mirroring :class:`ChimeraRewriter.rewrite`."""
    patcher = StrawmanPatcher(
        binary, target_profile, arch=arch, mode=mode,
        batch_blocks=False, enable_upgrades=False,
    )
    rewritten = patcher.patch()
    return RewriteResult(rewritten, target_profile, patcher.stats)
