"""Instruction upgrade: base-ISA idioms -> extension instructions (§3.4).

Upgrade is the mirror of downgrade: given a binary compiled for the base
ISA, optimize recognizable idioms into extension instructions so the
rewritten binary exploits extension cores.  Two classes are implemented:

* **Zba fusion** — ``slli t, x, k ; add d, t, y`` (k in 1..3, t dead
  afterwards) becomes ``shkadd d, x, y``;
* **loop vectorization** — the two canonical compiler-shaped loops the
  workloads contain:

  - *map loops*: elementwise ``z[i] = x[i] op y[i]`` over 64-bit arrays;
  - *dot loops*: ``acc += x[i] * y[i]`` reductions;

  both become strip-mined RVV loops.  Matching is structural (mnemonic
  shapes + register-role consistency + liveness side conditions), the
  binary-level analog of the pattern knowledge a compiler-based system
  like MELF gets for free from source code.

Correctness side conditions (checked, not assumed):

* loop temporaries must be dead at the loop head and at the loop exit —
  the vector replacement does not reproduce their final scalar values;
* pointer/counter registers must be distinct from temporaries;
* the loop must be a single basic block whose back-branch targets its
  own head (so re-entering the head mid-computation is always legal —
  this is what makes erroneous-entry recovery compose with upgrading).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.cfg import ControlFlowGraph
from repro.analysis.liveness import LivenessResult
from repro.analysis.scan import ScanResult
from repro.isa.block import Block, Label
from repro.isa.encoding import encode_vtype
from repro.isa.extensions import Extension, IsaProfile
from repro.isa.instructions import Instruction
from repro.isa.registers import Reg

_E64 = encode_vtype(64)
_SP = int(Reg.SP)


@dataclass
class UpgradeSite:
    """One matched multi-instruction pattern and its replacement.

    Used by both directions: idiom *upgrades* (this module) and loop
    *downgrades* (:mod:`repro.core.downgrade_loops`).  ``entry_policy``
    selects how erroneous jumps into the replaced window recover:
    ``"copy"`` redirects to duplicated copies of the pattern tail
    (Fig. 6b); ``"restart-head"`` redirects to the trampoline at the
    pattern head (sound for idempotent strip-mine loops).
    """

    kind: str                        # "zba" | "vec-map" | "vec-dot" | "down-*"
    instructions: list[Instruction]  # the original pattern, in layout order
    replacement: Block               # the code replacing the pattern
    entry_policy: str = "copy"

    @property
    def start(self) -> int:
        return self.instructions[0].addr

    @property
    def end(self) -> int:
        last = self.instructions[-1]
        return last.addr + last.length


def find_upgrade_sites(
    scan: ScanResult,
    cfg: ControlFlowGraph,
    liveness: LivenessResult,
    target_profile: IsaProfile,
) -> list[UpgradeSite]:
    """All non-overlapping upgrade sites, in address order."""
    sites: list[UpgradeSite] = []
    taken: set[int] = set()
    if target_profile.supports(Extension.V):
        for block in cfg:
            site = _match_vector_loop(block, cfg, liveness)
            if site and not (taken & {i.addr for i in site.instructions}):
                sites.append(site)
                taken.update(i.addr for i in site.instructions)
    if target_profile.supports(Extension.ZBA):
        for block in cfg:
            for site in _match_zba(block, liveness):
                addrs = {i.addr for i in site.instructions}
                if not (taken & addrs):
                    sites.append(site)
                    taken.update(addrs)
    sites.sort(key=lambda s: s.start)
    return sites


# ---------------------------------------------------------------------------
# Zba fusion
# ---------------------------------------------------------------------------

def _match_zba(block, liveness: LivenessResult) -> list[UpgradeSite]:
    out: list[UpgradeSite] = []
    instrs = block.instructions
    for a, b in zip(instrs, instrs[1:]):
        if a.mnemonic != "slli" or a.imm not in (1, 2, 3):
            continue
        if b.mnemonic != "add":
            continue
        t = a.rd
        if t in (0, 2, 3, 4):
            continue
        # add must use t exactly once; the other operand is y.
        if b.rs1 == t and b.rs2 != t:
            y = b.rs2
        elif b.rs2 == t and b.rs1 != t:
            y = b.rs1
        else:
            continue
        after = b.addr + b.length
        if t != b.rd and not liveness.is_dead_before(after, t):
            continue  # t's shifted value survives; fusion would lose it
        fused = Block(Instruction(f"sh{a.imm}add", rd=b.rd, rs1=a.rs1, rs2=y))
        out.append(UpgradeSite("zba", [a, b], fused))
    return out


# ---------------------------------------------------------------------------
# Loop vectorization
# ---------------------------------------------------------------------------

_MAP_OPS = {"add": "vadd.vv", "sub": "vsub.vv", "mul": "vmul.vv"}


def _match_vector_loop(block, cfg: ControlFlowGraph, liveness: LivenessResult):
    """Match a whole block against the map/dot/copy loop shapes."""
    instrs = block.instructions
    term = instrs[-1]
    # Back-branch to own head, i.e. `bnez n, block.start`.
    if term.mnemonic != "bne" or term.rs2 != 0 or term.target() != block.start:
        return None
    return (_match_map_loop(block, liveness)
            or _match_dot_loop(block, liveness)
            or _match_copy_loop(block, liveness))


def _regs_distinct(*regs: int) -> bool:
    return len(set(regs)) == len(regs)


def _temps_ok(block, liveness: LivenessResult, temps: set[int], others: set[int]) -> bool:
    if temps & others or 0 in temps:
        return False
    exit_addr = block.end
    head = block.start
    return all(
        liveness.is_dead_before(exit_addr, t) and liveness.is_dead_before(head, t)
        for t in temps
    )


def _vsetvli(out: Block, rd: int, avl: int) -> None:
    out.emit(Instruction("vsetvli", rd=rd, rs1=avl, imm=_E64))


def _strip_advance(out: Block, vl: int, stride: int, ptrs: tuple[int, ...],
                   n: int, head: Label) -> None:
    """Advance every pointer by vl elements, count n down, loop to *head*."""
    out.opi("slli", stride, vl, 3)
    for ptr in ptrs:
        out.op("add", ptr, ptr, stride)
    out.op("sub", n, n, vl)
    out.bnez(n, head)


def _match_map_loop(block, liveness: LivenessResult):
    """``z[i] = x[i] op y[i]`` over 64-bit elements (9 instructions)."""
    ins = block.instructions
    if len(ins) != 9:
        return None
    ld1, ld2, op, st, ax, ay, az, an, br = ins
    if ld1.mnemonic != "ld" or ld2.mnemonic != "ld" or st.mnemonic != "sd":
        return None
    if op.mnemonic not in _MAP_OPS:
        return None
    if ld1.imm or ld2.imm or st.imm:
        return None
    a, b, c = ld1.rd, ld2.rd, op.rd
    px, py, pz = ld1.rs1, ld2.rs1, st.rs1
    if st.rs2 != c or op.rs1 != a or op.rs2 != b:
        return None
    for adv, ptr in ((ax, px), (ay, py), (az, pz)):
        if adv.mnemonic != "addi" or adv.rd != ptr or adv.rs1 != ptr or adv.imm != 8:
            return None
    if an.mnemonic != "addi" or an.imm != -1 or an.rd != an.rs1:
        return None
    n = an.rd
    if br.rs1 != n:
        return None
    if not _regs_distinct(px, py, pz, n) or not _temps_ok(block, liveness, {a, b, c}, {px, py, pz, n}):
        return None
    out = Block()
    head = Label()
    out.bind(head)
    _vsetvli(out, a, n)
    out.emit(Instruction("vle64.v", vd=1, rs1=px),
             Instruction("vle64.v", vd=2, rs1=py),
             Instruction(_MAP_OPS[op.mnemonic], vd=3, vs2=1, vs1=2),
             Instruction("vse64.v", vd=3, rs1=pz))
    _strip_advance(out, a, b, (px, py, pz), n, head)
    return UpgradeSite("vec-map", list(ins), out)


def _match_copy_loop(block, liveness: LivenessResult):
    """``z[i] = x[i]`` block copy over 64-bit elements (6 instructions)."""
    ins = block.instructions
    if len(ins) != 6:
        return None
    ld, st, ax, az, an, br = ins
    if ld.mnemonic != "ld" or st.mnemonic != "sd" or ld.imm or st.imm:
        return None
    a = ld.rd
    px, pz = ld.rs1, st.rs1
    if st.rs2 != a:
        return None
    for adv, ptr in ((ax, px), (az, pz)):
        if adv.mnemonic != "addi" or adv.rd != ptr or adv.rs1 != ptr or adv.imm != 8:
            return None
    if an.mnemonic != "addi" or an.imm != -1 or an.rd != an.rs1:
        return None
    n = an.rd
    if br.rs1 != n or not _regs_distinct(px, pz, n):
        return None
    if not _temps_ok(block, liveness, {a}, {px, pz, n}):
        return None
    # A second scratch for the byte-stride advance: dead at the loop
    # head AND at the exit (the replacement leaves the last stride in it).
    candidates = sorted(
        (liveness.dead_before(block.start) & liveness.dead_before(block.end))
        - {a, px, pz, n, 0, 1, 2, 3, 4}
    )
    if not candidates:
        return None
    b = candidates[0]
    out = Block()
    head = Label()
    out.bind(head)
    _vsetvli(out, a, n)
    out.emit(Instruction("vle64.v", vd=1, rs1=px),
             Instruction("vse64.v", vd=1, rs1=pz))
    _strip_advance(out, a, b, (px, pz), n, head)
    return UpgradeSite("vec-copy", list(ins), out)


def _match_dot_loop(block, liveness: LivenessResult):
    """``acc += x[i] * y[i]`` reduction (8 instructions)."""
    ins = block.instructions
    if len(ins) != 8:
        return None
    ld1, ld2, mul, acc_add, ax, ay, an, br = ins
    if ld1.mnemonic != "ld" or ld2.mnemonic != "ld" or mul.mnemonic != "mul":
        return None
    if acc_add.mnemonic != "add":
        return None
    if ld1.imm or ld2.imm:
        return None
    a, b, c = ld1.rd, ld2.rd, mul.rd
    px, py = ld1.rs1, ld2.rs1
    if mul.rs1 != a or mul.rs2 != b:
        return None
    acc = acc_add.rd
    if acc_add.rs1 != acc or acc_add.rs2 != c:
        return None
    for adv, ptr in ((ax, px), (ay, py)):
        if adv.mnemonic != "addi" or adv.rd != ptr or adv.rs1 != ptr or adv.imm != 8:
            return None
    if an.mnemonic != "addi" or an.imm != -1 or an.rd != an.rs1:
        return None
    n = an.rd
    if br.rs1 != n:
        return None
    if not _regs_distinct(px, py, n, acc) or not _temps_ok(block, liveness, {a, b, c}, {px, py, n, acc}):
        return None
    out = Block()
    head = Label()
    # Zero the accumulator vector at full VLMAX so stale lanes from a
    # previous use cannot leak into the reduction.
    _vsetvli(out, a, 0)
    out.emit(Instruction("vmv.v.i", vd=1, vs2=0, imm=0))
    out.bind(head)
    _vsetvli(out, a, n)
    out.emit(Instruction("vle64.v", vd=2, rs1=px),
             Instruction("vle64.v", vd=3, rs1=py),
             Instruction("vmacc.vv", vd=1, vs2=2, vs1=3))
    _strip_advance(out, a, b, (px, py), n, head)
    # Reduce v1 into the scalar accumulator via the stack.
    _vsetvli(out, a, 0)
    out.emit(Instruction("vmv.v.i", vd=2, vs2=0, imm=0),
             Instruction("vredsum.vs", vd=3, vs2=1, vs1=2))
    out.li(b, 1)
    _vsetvli(out, a, b)
    out.opi("addi", _SP, _SP, -16)
    out.emit(Instruction("vse64.v", vd=3, rs1=_SP))
    out.load("ld", b, 0, _SP)
    out.opi("addi", _SP, _SP, 16)
    out.op("add", acc, acc, b)
    return UpgradeSite("vec-dot", list(ins), out)
