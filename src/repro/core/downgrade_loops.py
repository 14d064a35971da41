"""Loop-granularity downgrade translation.

Per-instruction downgrade templates are always correct but slow: every
vector instruction becomes a memory-backed element loop, costing ~10x a
natively compiled scalar loop.  The paper's translation (QEMU TCG
templates over *blocks* of code) keeps values in registers and lands
within a few percent of compiled code — which is what makes offloading
extension tasks to base cores worthwhile at all (§6.1's 2:2:2:1 task
cost ratio, §6.4's "gap arises mainly from the lower quality of
instructions produced by binary translation").

This module reproduces that quality level for the strip-mined RVV loop
idioms compilers emit (and :mod:`repro.core.upgrade` generates): the
dot-reduction, elementwise-map and memcpy shapes.  A matched region is
replaced wholesale by the equivalent scalar loop; anything that does not
match still goes through the per-instruction templates.

Erroneous-entry policy: a replaced region's interior boundaries cannot
be mapped to copied instructions (scalar code has no positional
correspondence to vector code), so an erroneous jump into the replaced
window restarts at the loop head ("restart-head").  Matching therefore
requires that no *static* control flow targets the region's interior
from outside the region; the loop shapes are idempotent from their head
for any pointer/counter state, which is what makes the restart sound.
"""

from __future__ import annotations

from repro.analysis.cfg import ControlFlowGraph
from repro.analysis.liveness import LivenessResult
from repro.analysis.scan import ScanResult
from repro.core.upgrade import UpgradeSite
from repro.isa.block import Block, Label
from repro.isa.encoding import decode_vtype
from repro.isa.extensions import Extension, IsaProfile
from repro.isa.instructions import Instruction
from repro.isa.registers import Reg

#: Registers never usable as replacement scratch.
_FORBIDDEN = {int(Reg.ZERO), int(Reg.SP), int(Reg.GP), int(Reg.TP), int(Reg.RA)}

_VOP_TO_SCALAR = {"vadd.vv": "add", "vsub.vv": "sub", "vmul.vv": "mul",
                  "vand.vv": "and", "vor.vv": "or", "vxor.vv": "xor"}


def find_downgrade_loop_sites(
    scan: ScanResult,
    cfg: ControlFlowGraph,
    liveness: LivenessResult,
    target_profile: IsaProfile,
) -> list[UpgradeSite]:
    """Match whole vector strip-mine loops for scalar replacement."""
    if target_profile.supports(Extension.V):
        return []
    jump_sources = _direct_jump_sources(scan)
    sites: list[UpgradeSite] = []
    taken: set[int] = set()
    for block in cfg:
        for matcher in (_match_dot, _match_map, _match_memcpy):
            site = matcher(block, scan, cfg, liveness)
            if site is None:
                continue
            addrs = [i.addr for i in site.instructions]
            if taken & set(addrs):
                continue
            if not _interior_unreachable(site, jump_sources):
                continue
            sites.append(site)
            taken.update(addrs)
            break
    sites.sort(key=lambda s: s.start)
    return sites


def _direct_jump_sources(scan: ScanResult) -> dict[int, list[int]]:
    """target address -> addresses of direct jumps/branches hitting it."""
    out: dict[int, list[int]] = {}
    for addr, instr in scan.instructions.items():
        target = instr.target()
        if target is not None:
            out.setdefault(target, []).append(addr)
    return out


def _interior_unreachable(site: UpgradeSite, jump_sources: dict[int, list[int]]) -> bool:
    """No static control flow enters the replaced region's interior from
    outside the region itself."""
    region = {i.addr for i in site.instructions}
    for instr in site.instructions[1:]:
        for src in jump_sources.get(instr.addr, ()):
            if src not in region:
                return False
    return True


def _pick_scratch(liveness: LivenessResult, at: int, exclude: set[int]) -> int | None:
    dead = liveness.dead_before(at) - _FORBIDDEN - exclude
    return min(dead) if dead else None


def _seq_from(scan: ScanResult, addr: int, n: int) -> list[Instruction] | None:
    """*n* layout-consecutive recovered instructions starting at *addr*."""
    out: list[Instruction] = []
    for _ in range(n):
        instr = scan.instructions.get(addr)
        if instr is None:
            return None
        out.append(instr)
        addr += instr.length
    return out


def _is_vsetvli_e64(i: Instruction) -> bool:
    if i.mnemonic != "vsetvli":
        return False
    try:
        return decode_vtype(i.imm) == 64
    except Exception:
        return False


def _scalar_loop(n: int, element: list[Instruction], ptrs: tuple[int, ...]) -> Block:
    """``while n: element; advance ptrs by 8; n -= 1`` (skipped at n=0)."""
    out = Block()
    head, done = Label(), Label()
    out.beqz(n, done)
    out.bind(head)
    out.emit(*element)
    for ptr in ptrs:
        out.opi("addi", ptr, ptr, 8)
    out.opi("addi", n, n, -1)
    out.bnez(n, head)
    out.bind(done)
    return out


def _match_dot(block, scan: ScanResult, cfg: ControlFlowGraph, liveness: LivenessResult):
    """The reduction idiom: init / strip-mined vmacc loop / vredsum tail."""
    ins = block.instructions
    if len(ins) != 9:
        return None
    vset, vl1, vl2, macc, sll, ax, ay, an, br = ins
    if not _is_vsetvli_e64(vset) or vset.rs1 == 0:
        return None
    if vl1.mnemonic != "vle64.v" or vl2.mnemonic != "vle64.v" or macc.mnemonic != "vmacc.vv":
        return None
    if sll.mnemonic != "slli" or sll.imm != 3 or sll.rs1 != vset.rd:
        return None
    if br.mnemonic != "bne" or br.rs2 != 0 or br.target() != block.start:
        return None
    n = vset.rs1
    px, py = vl1.rs1, vl2.rs1
    t_vl, t_step = vset.rd, sll.rd
    vacc, vx, vy = macc.vd, macc.vs2, macc.vs1
    if {vl1.vd, vl2.vd} != {vx, vy}:
        return None
    for adv, ptr in ((ax, px), (ay, py)):
        if adv.mnemonic != "add" or adv.rd != ptr or {adv.rs1, adv.rs2} != {ptr, t_step}:
            return None
    if an.mnemonic != "sub" or an.rd != n or an.rs1 != n or an.rs2 != t_vl:
        return None
    # Preceding init: vsetvli t, zero ; vmv.v.i vacc, 0
    init = _seq_from_back(scan, block.start, 2)
    if init is None:
        return None
    i_vset, i_vmv = init
    if not _is_vsetvli_e64(i_vset) or i_vset.rs1 != 0:
        return None
    if i_vmv.mnemonic != "vmv.v.i" or i_vmv.vd != vacc or i_vmv.imm != 0:
        return None
    # Reduction tail after the loop: either the stack-store idiom (10
    # instructions) or the vmv.x.s idiom (5 instructions).
    tail = _match_dot_tail_stack(scan, block.end, vacc) or \
        _match_dot_tail_mvxs(scan, block.end, vacc)
    if tail is None:
        return None
    tail, r_add = tail
    acc = r_add.rd
    if br.rs1 != n:
        return None
    if len({n, px, py, acc}) != 4 or acc in (t_vl, t_step):
        return None
    scratch = _pick_scratch(liveness, init[0].addr, {n, px, py, acc, t_vl, t_step})
    if scratch is None:
        return None
    # The replacement leaves different final values in the scratch set;
    # they must be provably dead once the region completes.
    region_end = r_add.addr + r_add.length
    if not all(liveness.is_dead_before(region_end, r) for r in (t_vl, t_step, scratch)):
        return None
    instructions = list(init) + list(ins) + tail
    out = _scalar_loop(n, [
        Instruction("ld", rd=t_vl, rs1=px, imm=0),
        Instruction("ld", rd=t_step, rs1=py, imm=0),
        Instruction("mul", rd=scratch, rs1=t_vl, rs2=t_step),
        Instruction("add", rd=acc, rs1=acc, rs2=scratch),
    ], (px, py))
    return UpgradeSite("down-dot", instructions, out, entry_policy="restart-head")


def _match_dot_tail_stack(scan: ScanResult, start: int, vacc: int):
    """Reduction via vl=1 store to the stack (the 10-instruction idiom)."""
    tail = _seq_from(scan, start, 10)
    if tail is None:
        return None
    r_vset, r_vmv, r_red, r_li, r_vset2, r_sp1, r_vse, r_ld, r_sp2, r_add = tail
    if not _is_vsetvli_e64(r_vset) or r_vset.rs1 != 0:
        return None
    if r_vmv.mnemonic != "vmv.v.i" or r_vmv.imm != 0:
        return None
    if r_red.mnemonic != "vredsum.vs" or r_red.vs2 != vacc or r_red.vs1 != r_vmv.vd:
        return None
    if r_li.mnemonic != "addi" or r_li.rs1 != 0 or r_li.imm != 1:
        return None
    if not _is_vsetvli_e64(r_vset2) or r_vset2.rs1 != r_li.rd:
        return None
    if r_sp1.mnemonic != "addi" or r_sp1.rd != 2 or r_sp1.imm != -16:
        return None
    if r_vse.mnemonic != "vse64.v" or r_vse.vd != r_red.vd or r_vse.rs1 != 2:
        return None
    if r_ld.mnemonic != "ld" or r_ld.rs1 != 2 or r_ld.imm != 0:
        return None
    if r_sp2.mnemonic != "addi" or r_sp2.rd != 2 or r_sp2.imm != 16:
        return None
    if r_add.mnemonic != "add" or r_ld.rd not in (r_add.rs1, r_add.rs2):
        return None
    return tail, r_add


def _match_dot_tail_mvxs(scan: ScanResult, start: int, vacc: int):
    """Reduction via ``vmv.x.s`` (the 5-instruction idiom)."""
    tail = _seq_from(scan, start, 5)
    if tail is None:
        return None
    r_vset, r_vmv, r_red, r_mvx, r_add = tail
    if not _is_vsetvli_e64(r_vset) or r_vset.rs1 != 0:
        return None
    if r_vmv.mnemonic != "vmv.v.i" or r_vmv.imm != 0:
        return None
    if r_red.mnemonic != "vredsum.vs" or r_red.vs2 != vacc or r_red.vs1 != r_vmv.vd:
        return None
    if r_mvx.mnemonic != "vmv.x.s" or r_mvx.vs2 != r_red.vd:
        return None
    if r_add.mnemonic != "add" or r_mvx.rd not in (r_add.rs1, r_add.rs2):
        return None
    return tail, r_add


def _seq_from_back(scan: ScanResult, end_addr: int, n: int) -> list[Instruction] | None:
    """The *n* recovered instructions immediately before *end_addr*."""
    out: list[Instruction] = []
    addr = end_addr
    for _ in range(n):
        prev = None
        for length in (2, 4):
            cand = scan.instructions.get(addr - length)
            if cand is not None and cand.addr + cand.length == addr:
                prev = cand
                break
        if prev is None:
            return None
        out.append(prev)
        addr = prev.addr
    out.reverse()
    return out


def _match_map(block, scan: ScanResult, cfg: ControlFlowGraph, liveness: LivenessResult):
    """Elementwise z[i] = x[i] op y[i] strip-mine loop (one block)."""
    ins = block.instructions
    if len(ins) != 11:
        return None
    vset, vl1, vl2, vop, vst, sll, ax, ay, az, an, br = ins
    if not _is_vsetvli_e64(vset) or vset.rs1 == 0:
        return None
    if vl1.mnemonic != "vle64.v" or vl2.mnemonic != "vle64.v":
        return None
    if vop.mnemonic not in _VOP_TO_SCALAR or vst.mnemonic != "vse64.v":
        return None
    if sll.mnemonic != "slli" or sll.imm != 3 or sll.rs1 != vset.rd:
        return None
    if br.mnemonic != "bne" or br.rs2 != 0 or br.target() != block.start:
        return None
    n = vset.rs1
    px, py, pz = vl1.rs1, vl2.rs1, vst.rs1
    t_vl, t_step = vset.rd, sll.rd
    if vop.vs2 != vl1.vd or vop.vs1 != vl2.vd or vst.vd != vop.vd:
        return None
    for adv, ptr in ((ax, px), (ay, py), (az, pz)):
        if adv.mnemonic != "add" or adv.rd != ptr or {adv.rs1, adv.rs2} != {ptr, t_step}:
            return None
    if an.mnemonic != "sub" or an.rd != n or an.rs1 != n or an.rs2 != t_vl:
        return None
    if br.rs1 != n or len({n, px, py, pz}) != 4:
        return None
    scratch = _pick_scratch(liveness, block.start, {n, px, py, pz, t_vl, t_step})
    if scratch is None:
        return None
    if not all(liveness.is_dead_before(block.end, r) for r in (t_vl, t_step, scratch)):
        return None
    op = _VOP_TO_SCALAR[vop.mnemonic]
    out = _scalar_loop(n, [
        Instruction("ld", rd=t_vl, rs1=px, imm=0),
        Instruction("ld", rd=t_step, rs1=py, imm=0),
        Instruction(op, rd=scratch, rs1=t_vl, rs2=t_step),
        Instruction("sd", rs1=pz, rs2=scratch, imm=0),
    ], (px, py, pz))
    return UpgradeSite("down-map", list(ins), out, entry_policy="restart-head")


def _match_memcpy(block, scan: ScanResult, cfg: ControlFlowGraph, liveness: LivenessResult):
    """Streaming copy strip-mine loop (one block)."""
    ins = block.instructions
    if len(ins) != 8:
        return None
    vset, vld, vst, sll, ax, ay, an, br = ins
    if not _is_vsetvli_e64(vset) or vset.rs1 == 0:
        return None
    if vld.mnemonic != "vle64.v" or vst.mnemonic != "vse64.v" or vst.vd != vld.vd:
        return None
    if sll.mnemonic != "slli" or sll.imm != 3 or sll.rs1 != vset.rd:
        return None
    if br.mnemonic != "bne" or br.rs2 != 0 or br.target() != block.start:
        return None
    n = vset.rs1
    px, pz = vld.rs1, vst.rs1
    t_vl, t_step = vset.rd, sll.rd
    for adv, ptr in ((ax, px), (ay, pz)):
        if adv.mnemonic != "add" or adv.rd != ptr or {adv.rs1, adv.rs2} != {ptr, t_step}:
            return None
    if an.mnemonic != "sub" or an.rd != n or an.rs1 != n or an.rs2 != t_vl:
        return None
    if br.rs1 != n or len({n, px, pz}) != 3:
        return None
    if not all(liveness.is_dead_before(block.end, r) for r in (t_vl, t_step)):
        return None
    out = _scalar_loop(n, [
        Instruction("ld", rd=t_vl, rs1=px, imm=0),
        Instruction("sd", rs1=pz, rs2=t_vl, imm=0),
    ], (px, pz))
    return UpgradeSite("down-memcpy", list(ins), out, entry_policy="restart-head")
