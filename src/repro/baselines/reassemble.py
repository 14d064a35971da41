"""Shared reassembly engine for the regeneration-style baselines.

Takes the recursive-scan instruction stream of a binary and re-emits it
at a new base address with source instructions replaced by translated
sequences.  Because translation inflates code, every instruction moves;
the engine therefore:

* retargets direct branches/jumps through the old->new address map,
  rewriting a conditional branch whose displacement no longer fits into
  an inverted branch + ``jal`` pair (size changes iterate to fixpoint);
* recomputes ``auipc``+``addi`` pc-relative pairs (the ``la`` idiom) for
  their new pc;
* leaves indirect-jump *targets* alone — healing those is exactly the
  part Safer/ARMore handle with runtime mechanisms, and each baseline
  brings its own strategy.

This is the "shifting corrupts control flow" problem of Fig. 1 made
concrete: the map produced here is what the baselines' runtime
mechanisms consult.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.scan import ScanResult
from repro.core.translate import TranslationError, Translator
from repro.isa.encoding import encode
from repro.isa.instructions import Instruction

#: Branch condition inversions for the range-overflow rewrite.
_INVERT = {"beq": "bne", "bne": "beq", "blt": "bge", "bge": "blt",
           "bltu": "bgeu", "bgeu": "bltu"}

_MAX_PASSES = 8


class ReassemblyError(ValueError):
    """The stream cannot be reassembled (unsupported construct)."""


@dataclass
class _Item:
    """One original instruction and its relocated expansion."""

    orig: Instruction
    kind: str                 # "plain" | "source" | "branch" | "jal" | "auipc-pair"
    size: int = 0
    new_addr: int = 0
    code: bytes = b""              # encoded translation for "source"
    pair_partner: Optional[int] = None  # index of the addi of an auipc pair
    long_form: bool = False        # branch rewritten as inverted+jal


@dataclass
class ReassembledCode:
    """Output: bytes at *base* plus the old->new instruction-address map."""

    base: int
    code: bytes
    addr_map: dict[int, int]
    #: jal retargets that exceeded range and fell back to a trap veneer.
    trap_veneers: dict[int, int]
    #: (new address, original instruction) of every indirect jump.
    indirect_jump_sites: list[tuple[int, Instruction]]


def reassemble(
    scan: ScanResult,
    translator: Translator,
    base: int,
    *,
    needs_translation,
    call_ra_style: str = "new",
    pattern_sites: list | None = None,
) -> ReassembledCode:
    """Re-emit the scanned instruction stream at *base*.

    ``needs_translation(instr)`` selects source instructions; their
    bodies come from *translator* (which may be in empty mode).

    ``call_ra_style`` controls what return address calls leave in ``ra``:
    ``"new"`` (Safer-style regeneration: the relocated return address) or
    ``"original"`` (ARMore-style: the original-layout return address, so
    returns bounce through the original section's trampolines).
    """
    if call_ra_style not in ("new", "original"):
        raise ValueError(f"unknown call_ra_style {call_ra_style!r}")
    addrs = scan.sorted_addrs()
    items: list[_Item] = []
    index_of: dict[int, int] = {}
    for i, addr in enumerate(addrs):
        instr = scan.instructions[addr]
        index_of[addr] = i
        items.append(_Item(instr, "plain"))

    # Multi-instruction pattern replacements (loop-level translation):
    # the head item carries the replacement code, members are elided and
    # their addresses map to the replacement start.
    pattern_heads: dict[int, object] = {}
    pattern_members: set[int] = set()
    for site in pattern_sites or ():
        pattern_heads[site.start] = site
        pattern_members.update(i.addr for i in site.instructions[1:])

    # Classify.
    for i, item in enumerate(items):
        instr = item.orig
        if item.kind == "pair-tail":
            continue
        if instr.addr in pattern_heads:
            site = pattern_heads[instr.addr]
            item.kind = "source"
            item.code = site.replacement.encode().code
            item.size = len(item.code)
            continue
        if instr.addr in pattern_members:
            item.kind = "pattern-member"
            item.size = 0
            continue
        if needs_translation(instr):
            item.kind = "source"
            item.code = translator.translate(instr).encode().code
            item.size = len(item.code)
        elif instr.is_branch():
            item.kind = "branch"
            item.size = 4
        elif instr.mnemonic in ("jal", "c.j"):
            item.kind = "jal"
            item.size = 4  # c.j is re-emitted as jal for range headroom
            if call_ra_style == "original" and instr.mnemonic == "jal" and instr.rd == 1:
                item.size = 12  # lui ra + addiw ra + jal x0
        elif (
            call_ra_style == "original"
            and instr.mnemonic in ("jalr", "c.jalr")
            and (instr.rd == 1 or instr.mnemonic == "c.jalr")
            and instr.rs1 != 1
        ):
            item.kind = "jalr-orig-ra"
            item.size = 12  # lui ra + addiw ra + jalr x0
        elif instr.mnemonic == "auipc":
            nxt = items[i + 1] if i + 1 < len(items) else None
            if (
                nxt is not None
                and nxt.orig.mnemonic in ("addi", "ld", "lw", "sd", "sw")
                and nxt.orig.rs1 == instr.rd
                and nxt.orig.addr == instr.addr + instr.length
            ):
                item.kind = "auipc-pair"
                item.pair_partner = i + 1
                item.size = 4
                items[i + 1].kind = "pair-tail"
                items[i + 1].size = 4
            else:
                raise ReassemblyError(f"unpaired auipc at {instr.addr:#x}")
        else:
            item.size = instr.length

    # Iterate layout until branch forms stabilize.
    for _ in range(_MAX_PASSES):
        cursor = base
        for item in items:
            item.new_addr = cursor
            cursor += item.size + (4 if item.long_form else 0)
        changed = False
        for item in items:
            if item.kind == "branch" and not item.long_form:
                target = item.orig.target()
                if target in index_of:
                    new_target = items[index_of[target]].new_addr
                    disp = new_target - item.new_addr
                    if not -4096 <= disp < 4096:
                        item.long_form = True
                        changed = True
        if not changed:
            break
    else:  # pragma: no cover - pathological layouts
        raise ReassemblyError("branch layout did not converge")

    addr_map = {item.orig.addr: item.new_addr for item in items}
    # Elided pattern members resolve to their replacement's head — the
    # restart-head policy (see repro.core.downgrade_loops).
    for site in pattern_sites or ():
        head_new = addr_map[site.start]
        for member in site.instructions[1:]:
            addr_map[member.addr] = head_new

    # Emit.
    out = bytearray()
    trap_veneers: dict[int, int] = {}
    indirect_sites: list[int] = []
    for item in items:
        instr = item.orig
        new_addr = item.new_addr
        if item.kind in ("pair-tail", "pattern-member"):
            continue  # emitted with its auipc / replaced by the pattern head
        assert len(out) == new_addr - base, "layout/emission drift"
        if item.kind == "source":
            out.extend(item.code)  # pc-relative only: valid at any address
        elif item.kind == "branch":
            out.extend(_emit_branch(item, items, index_of, trap_veneers))
        elif item.kind == "jal":
            if item.size == 12:
                out.extend(_emit_orig_ra(instr))
                out.extend(_emit_jal(item, items, index_of, trap_veneers,
                                     pc_bias=8, link=False))
            else:
                out.extend(_emit_jal(item, items, index_of, trap_veneers))
        elif item.kind == "jalr-orig-ra":
            out.extend(_emit_orig_ra(instr))
            tail = Instruction("jalr", rd=0, rs1=instr.rs1,
                               imm=instr.imm or 0)
            indirect_sites.append((new_addr + 8, tail.with_addr(new_addr + 8)))
            out.extend(encode(tail))
        elif item.kind == "auipc-pair":
            partner = items[item.pair_partner]
            # Recompute the pc-relative pair for the new pc; the absolute
            # target (data or code) is what the original pair produced.
            abs_target = instr.addr + _sext_hi(instr.imm) + _lo_of(partner.orig)
            offset = abs_target - new_addr
            lo = _sext12(offset & 0xFFF)
            hi = ((offset - lo) >> 12) & 0xFFFFF
            out.extend(encode(Instruction("auipc", rd=instr.rd, imm=hi)))
            fixed = partner.orig.copy()
            fixed.imm = lo if partner.orig.mnemonic == "addi" else lo
            # For loads/stores the low part rides in the memory offset.
            fixed.addr = None
            out.extend(encode(fixed))
        else:
            if instr.is_indirect_jump():
                indirect_sites.append((new_addr, instr))
            clone = instr.copy()
            clone.addr = None
            out.extend(encode(clone))
    return ReassembledCode(base, bytes(out), addr_map, trap_veneers, indirect_sites)


def _emit_branch(item: _Item, items, index_of, trap_veneers) -> bytes:
    instr = item.orig
    target = instr.target()
    new_target = items[index_of[target]].new_addr if target in index_of else None
    mnem = instr.mnemonic
    rs1 = instr.rs1 if instr.rs1 is not None else 0
    rs2 = instr.rs2 if instr.rs2 is not None else 0
    if mnem in ("c.beqz", "c.bnez"):
        mnem = "beq" if mnem == "c.beqz" else "bne"
        rs2 = 0
    if new_target is None:
        # Target outside the recovered region: deterministic trap veneer.
        data = encode(Instruction(_INVERT[mnem], rs1=rs1, rs2=rs2, imm=8))
        trap_veneers[item.new_addr + 4] = target
        return data + encode(Instruction("ebreak"))
    if not item.long_form:
        disp = new_target - item.new_addr
        return encode(Instruction(mnem, rs1=rs1, rs2=rs2, imm=disp))
    # inverted branch over a jal
    data = encode(Instruction(_INVERT[mnem], rs1=rs1, rs2=rs2, imm=8))
    disp = new_target - (item.new_addr + 4)
    if -(1 << 20) <= disp < (1 << 20):
        data += encode(Instruction("jal", rd=0, imm=disp))
    else:
        trap_veneers[item.new_addr + 4] = new_target
        data += encode(Instruction("ebreak"))
    return data


def _emit_jal(item: _Item, items, index_of, trap_veneers, *, pc_bias: int = 0, link: bool = True) -> bytes:
    instr = item.orig
    target = instr.target()
    rd = (instr.rd if instr.mnemonic == "jal" else 0) if link else 0
    pc = item.new_addr + pc_bias
    new_target = items[index_of[target]].new_addr if target in index_of else None
    if new_target is None:
        trap_veneers[pc] = target
        return encode(Instruction("ebreak"))
    disp = new_target - pc
    if -(1 << 20) <= disp < (1 << 20):
        return encode(Instruction("jal", rd=rd, imm=disp))
    trap_veneers[pc] = new_target
    return encode(Instruction("ebreak"))


def _emit_orig_ra(instr: Instruction) -> bytes:
    """``lui ra, hi ; addiw ra, ra, lo`` materializing the ORIGINAL return
    address (ARMore's address-taken-compatible call convention)."""
    ret = instr.addr + instr.length
    lo = ret & 0xFFF
    if lo >= 0x800:
        lo -= 0x1000
    hi = ((ret - lo) >> 12) & 0xFFFFF
    return encode(Instruction("lui", rd=1, imm=hi)) + encode(
        Instruction("addiw", rd=1, rs1=1, imm=lo)
    )


def _sext_hi(imm20: int) -> int:
    value = (imm20 & 0xFFFFF) << 12
    return value - (1 << 32) if value & (1 << 31) else value


def _lo_of(instr: Instruction) -> int:
    return instr.imm or 0


def _sext12(value: int) -> int:
    return value - 4096 if value & 0x800 else value
