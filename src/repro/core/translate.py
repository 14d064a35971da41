"""Target-instruction generation (paper §4.1).

Downgrade: translate extension instructions (RVV subset, Zba) into
semantically equivalent base-ISA sequences.  Two register problems are
handled exactly as the paper describes:

* **extra base registers** — scalar scratch registers are stack-saved
  before and restored after the computation, first-in last-out;
* **simulated extension registers** — vector state (v0..v31 images, vl,
  sew) lives in a dedicated RW data section (``.chimera.vregs``) of the
  rewritten binary; vector-register accesses become memory accesses to
  that region, so the computation context survives on cores without the
  extension and across migrations.

Upgrade: fuse ``slli+add`` pairs into Zba ``shNadd``, and vectorize the
two canonical element-wise / reduction loop idioms the workloads'
"compiler" emits (:mod:`repro.core.upgrade`).

Each template builds a :class:`~repro.isa.block.Block` of
``Instruction`` objects with template-local labels; the patcher splices
it into the target block, which is encoded once and placed anywhere
(every label reference is pc-relative).  QEMU TCG plays this role in
the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.block import Block, Label
from repro.isa.encoding import decode_vtype
from repro.isa.fields import bits
from repro.isa.instructions import Instruction
from repro.isa.opcodes import VSEW_FROM_CODE
from repro.isa.registers import Reg
from repro.telemetry import current as telemetry_current
from repro.telemetry.exec_trace import instruction_class

#: Byte offsets inside the .chimera.vregs region.
VREG_SIZE = 32          # one 256-bit register image
VL_OFF = 32 * VREG_SIZE
SEW_OFF = VL_OFF + 8
VREGS_REGION_SIZE = SEW_OFF + 8

_SP = int(Reg.SP)

#: Scratch-register priority order (all caller-saved).
_SCRATCH_POOL: tuple[int, ...] = tuple(
    int(r) for r in (Reg.T0, Reg.T1, Reg.T2, Reg.T3, Reg.T4, Reg.T5,
                     Reg.T6, Reg.A7, Reg.A6, Reg.A5, Reg.A4, Reg.A3)
)

#: Mnemonic -> the Translator method that emits its downgrade template.
_TEMPLATES: dict[str, str] = {
    **dict.fromkeys(("sh1add", "sh2add", "sh3add"), "_emit_zba"),
    "vsetvli": "_emit_vsetvli",
    **dict.fromkeys(("vle32.v", "vle64.v", "vse32.v", "vse64.v"), "_emit_vmem"),
    **dict.fromkeys(("vadd.vv", "vsub.vv", "vmul.vv", "vand.vv", "vor.vv",
                     "vxor.vv", "vsll.vv", "vsrl.vv", "vsra.vv"),
                    "_emit_varith_vv"),
    **dict.fromkeys(("vmin.vv", "vmax.vv", "vminu.vv", "vmaxu.vv"), "_emit_vminmax"),
    "vmacc.vv": "_emit_vmacc",
    **dict.fromkeys(("vadd.vx", "vsub.vx", "vmul.vx", "vsll.vx", "vsrl.vx",
                     "vsra.vx"), "_emit_vadd_vx"),
    "vadd.vi": "_emit_vadd_vi",
    "vmv.x.s": "_emit_vmv_x_s",
    **dict.fromkeys(("vmv.v.x", "vmv.v.i"), "_emit_vmv"),
    "vredsum.vs": "_emit_vredsum",
}

#: 64-bit scalar op -> its 32-bit (W) form, for SEW=32 element loops.
_W_OPS = {"add": "addw", "sub": "subw", "mul": "mulw",
          "sll": "sllw", "srl": "srlw", "sra": "sraw"}


class TranslationError(ValueError):
    """No downgrade template exists for an instruction."""


@dataclass
class TranslationContext:
    """Addresses and state the templates need."""

    vregs_base: int
    gp_value: int
    vlen: int = 256

    def vreg_off(self, v: int) -> int:
        """Offset of v*v*'s image inside the region."""
        return v * VREG_SIZE


def pick_scratch(exclude: set[int], count: int) -> list[int]:
    """Pick *count* scratch registers avoiding *exclude* (and x0/sp/gp/tp)."""
    out = [r for r in _SCRATCH_POOL if r not in exclude]
    if len(out) < count:
        raise TranslationError(f"cannot find {count} scratch registers")
    return out[:count]


def _frame_size(scratch: list[int]) -> int:
    return (len(scratch) * 8 + 15) & ~15  # keep sp 16-aligned


def _save(b: Block, scratch: list[int]) -> None:
    """Stack-save *scratch* (the FILO restore is :func:`_restore`)."""
    b.opi("addi", _SP, _SP, -_frame_size(scratch))
    for i, reg in enumerate(scratch):
        b.store("sd", reg, i * 8, _SP)


def _restore(b: Block, scratch: list[int]) -> None:
    for i in reversed(range(len(scratch))):  # first-in, last-out (§4.1)
        b.load("ld", scratch[i], i * 8, _SP)
    b.opi("addi", _SP, _SP, _frame_size(scratch))


def _read_source_reg(b: Block, dst: int, src: int, scratch: list[int]) -> None:
    """Copy source operand *src* into scratch *dst*.

    The template body runs after the scratch save moved ``sp`` down by
    the frame size; a source operand that *is* ``sp`` must be
    compensated or the translated code would see the wrong pointer.
    """
    if src == _SP:
        b.opi("addi", dst, _SP, _frame_size(scratch))
    else:
        b.mv(dst, src)


def _loop_tail(b: Block, ptr: int, count: int, step: int, head: Label) -> None:
    """Advance *ptr* by *step*, count down, loop back to *head*."""
    b.opi("addi", ptr, ptr, step)
    b.opi("addi", count, count, -1)
    b.bnez(count, head)


class Translator:
    """Emit downgrade templates as :class:`Block` content.

    ``mode="empty"`` reproduces the evaluation's *empty patching* (§6.2):
    the "translation" is the source instruction itself, isolating pure
    rewriting overhead.
    """

    def __init__(self, ctx: TranslationContext, mode: str = "full"):
        if mode not in ("full", "empty"):
            raise ValueError(f"unknown translation mode {mode!r}")
        self.ctx = ctx
        self.mode = mode

    # -- public ---------------------------------------------------------

    def translate(self, instr: Instruction) -> Block:
        """The block replacing *instr*.

        It includes the FILO stack save/restore of the scratch
        registers; the caller wraps it with gp-restore and trampolines.
        """
        telemetry = telemetry_current()
        if telemetry.enabled:
            telemetry.metrics.inc(
                "translate.instructions",
                mode=self.mode,
                **{"class": instruction_class(instr)},
            )
        if self.mode == "empty":
            return Block(instr)
        if not self.can_translate(instr):
            raise TranslationError(f"no downgrade template for {instr.mnemonic}")
        block = Block()
        getattr(self, _TEMPLATES[instr.mnemonic])(instr, block)
        return block

    def can_translate(self, instr: Instruction) -> bool:
        """True if a downgrade template exists for *instr* (a table
        lookup; a ``vsetvli`` also needs an SEW code that exists)."""
        if self.mode == "empty":
            return True
        if instr.mnemonic == "vsetvli":
            return bits(instr.imm, 5, 3) in VSEW_FROM_CODE
        return instr.mnemonic in _TEMPLATES

    # -- shared shapes -----------------------------------------------------

    def _sew_dispatch(self, b: Block, vl: int, sew: int, base: int,
                      done: Label, l64: Label) -> None:
        """Load vl/sew from the region; skip on vl=0; branch to *l64*
        for SEW=64 (fall through for SEW=32)."""
        b.li(base, self.ctx.vregs_base)
        b.load("ld", vl, VL_OFF, base)
        b.load("ld", sew, SEW_OFF, base)
        b.beqz(vl, done)
        b.opi("addi", sew, sew, -64)
        b.beqz(sew, l64)

    # -- Zba -------------------------------------------------------------

    def _emit_zba(self, instr: Instruction, b: Block) -> None:
        shift = {"sh1add": 1, "sh2add": 2, "sh3add": 3}[instr.mnemonic]
        (tmp,) = scratch = pick_scratch({instr.rd, instr.rs1, instr.rs2}, 1)
        frame = _frame_size(scratch)
        _save(b, scratch)
        if instr.rs1 == _SP:
            b.opi("addi", tmp, _SP, frame)
            b.opi("slli", tmp, tmp, shift)
        else:
            b.opi("slli", tmp, instr.rs1, shift)
        b.op("add", instr.rd, tmp, instr.rs2)
        if instr.rs2 == _SP:
            b.opi("addi", instr.rd, instr.rd, frame)
        _restore(b, scratch)

    # -- vector ----------------------------------------------------------

    def _emit_vsetvli(self, instr: Instruction, b: Block) -> None:
        sew = decode_vtype(instr.imm)
        vlmax = self.ctx.vlen // sew
        a, c = scratch = pick_scratch({instr.rd, instr.rs1}, 2)
        done = Label()
        _save(b, scratch)
        b.li(a, vlmax)
        if instr.rs1 == 0:
            b.li(c, vlmax)
        else:
            _read_source_reg(b, c, instr.rs1, scratch)
        b.branch("bgeu", c, a, done)
        b.mv(a, c)
        b.bind(done)
        b.li(c, self.ctx.vregs_base)
        b.store("sd", a, VL_OFF, c)
        if instr.rd != 0:
            b.mv(instr.rd, a)
        b.li(a, sew)
        b.store("sd", a, SEW_OFF, c)
        _restore(b, scratch)

    def _emit_vmem(self, instr: Instruction, b: Block) -> None:
        is_load = instr.mnemonic.startswith("vle")
        a, reg, mem, n = scratch = pick_scratch({instr.rs1}, 4)
        l32, l64, done = Label(), Label(), Label()
        src, dst = (mem, reg) if is_load else (reg, mem)
        _save(b, scratch)
        b.li(reg, self.ctx.vregs_base)
        b.load("ld", n, VL_OFF, reg)
        b.load("ld", a, SEW_OFF, reg)
        b.opi("addi", reg, reg, self.ctx.vreg_off(instr.vd))
        _read_source_reg(b, mem, instr.rs1, scratch)
        b.beqz(n, done)
        b.opi("addi", a, a, -64)
        b.beqz(a, l64)
        for head, ld, st, step in ((l32, "lw", "sw", 4), (l64, "ld", "sd", 8)):
            b.bind(head)
            b.load(ld, a, 0, src)
            b.store(st, a, 0, dst)
            b.opi("addi", mem, mem, step)
            _loop_tail(b, reg, n, step, head)
            if step == 4:
                b.j(done)
        b.bind(done)
        _restore(b, scratch)

    def _emit_varith_vv(self, instr: Instruction, b: Block) -> None:
        op64 = instr.mnemonic[1:-3]  # "vadd.vv" -> "add"
        is_shift = op64 in ("sll", "srl", "sra")
        a, base, n, e = scratch = pick_scratch(set(), 4)
        vs1o, vs2o, vdo = (self.ctx.vreg_off(v) for v in (instr.vs1, instr.vs2, instr.vd))
        l32, l64, done = Label(), Label(), Label()
        _save(b, scratch)
        self._sew_dispatch(b, n, a, base, done, l64)
        for head, ld, st, op, step in ((l32, "lw", "sw", _W_OPS.get(op64, op64), 4),
                                       (l64, "ld", "sd", op64, 8)):
            b.bind(head)
            b.load(ld, a, vs2o, base)
            b.load(ld, e, vs1o, base)
            if is_shift:  # hardware masks vector shift amounts to SEW-1 bits
                b.opi("andi", e, e, step * 8 - 1)
            b.op(op, a, a, e)
            b.store(st, a, vdo, base)
            _loop_tail(b, base, n, step, head)
            if step == 4:
                b.j(done)
        b.bind(done)
        _restore(b, scratch)

    def _emit_vmacc(self, instr: Instruction, b: Block) -> None:
        a, base, n, e = scratch = pick_scratch(set(), 4)
        vs1o, vs2o, vdo = (self.ctx.vreg_off(v) for v in (instr.vs1, instr.vs2, instr.vd))
        l32, l64, done = Label(), Label(), Label()
        _save(b, scratch)
        self._sew_dispatch(b, n, a, base, done, l64)
        for head, ld, st, mul, add, step in ((l32, "lw", "sw", "mulw", "addw", 4),
                                             (l64, "ld", "sd", "mul", "add", 8)):
            b.bind(head)
            b.load(ld, a, vs1o, base)
            b.load(ld, e, vs2o, base)
            b.op(mul, a, a, e)
            b.load(ld, e, vdo, base)
            b.op(add, a, a, e)
            b.store(st, a, vdo, base)
            _loop_tail(b, base, n, step, head)
            if step == 4:
                b.j(done)
        b.bind(done)
        _restore(b, scratch)

    def _emit_vadd_vx(self, instr: Instruction, b: Block) -> None:
        """All implemented ``<op>.vx`` forms: elementwise vs2 op x."""
        op64 = instr.mnemonic[1:-3]
        is_shift = op64 in ("sll", "srl", "sra")
        a, base, n, x = scratch = pick_scratch({instr.rs1}, 4)
        vs2o, vdo = self.ctx.vreg_off(instr.vs2), self.ctx.vreg_off(instr.vd)
        l32, l64, done = Label(), Label(), Label()
        _save(b, scratch)
        _read_source_reg(b, x, instr.rs1, scratch)
        self._sew_dispatch(b, n, a, base, done, l64)
        for head, ld, st, op, step in ((l32, "lw", "sw", _W_OPS[op64], 4),
                                       (l64, "ld", "sd", op64, 8)):
            if is_shift:
                b.opi("andi", x, x, step * 8 - 1)
            b.bind(head)
            b.load(ld, a, vs2o, base)
            b.op(op, a, a, x)
            b.store(st, a, vdo, base)
            _loop_tail(b, base, n, step, head)
            if step == 4:
                b.j(done)
        b.bind(done)
        _restore(b, scratch)

    def _emit_vminmax(self, instr: Instruction, b: Block) -> None:
        """vmin/vmax (signed and unsigned): compare-and-select loops."""
        mnem = instr.mnemonic
        signed = mnem in ("vmin.vv", "vmax.vv")
        is_min = mnem in ("vmin.vv", "vminu.vv")
        branch = ("blt" if signed else "bltu") if is_min else ("bge" if signed else "bgeu")
        a, base, n, e = scratch = pick_scratch(set(), 4)
        vs1o, vs2o, vdo = (self.ctx.vreg_off(v) for v in (instr.vs1, instr.vs2, instr.vd))
        l32, l64, done = Label(), Label(), Label()
        _save(b, scratch)
        self._sew_dispatch(b, n, a, base, done, l64)
        for head, ld, st, step in ((l32, "lw", "sw", 4), (l64, "ld", "sd", 8)):
            keep = Label()
            # 32-bit unsigned compares need zero-extended operands.
            ldu = "lwu" if (step == 4 and not signed) else ld
            b.bind(head)
            b.load(ldu, a, vs2o, base)
            b.load(ldu, e, vs1o, base)
            b.branch(branch, a, e, keep)
            b.mv(a, e)
            b.bind(keep)
            b.store(st, a, vdo, base)
            _loop_tail(b, base, n, step, head)
            if step == 4:
                b.j(done)
        b.bind(done)
        _restore(b, scratch)

    def _emit_vmv_x_s(self, instr: Instruction, b: Block) -> None:
        """rd <- sign-extended element 0 of vs2."""
        (base,) = scratch = pick_scratch({instr.rd}, 1)
        vs2o = self.ctx.vreg_off(instr.vs2)
        l64, done = Label(), Label()
        _save(b, scratch)
        b.li(base, self.ctx.vregs_base)
        b.load("ld", base, SEW_OFF, base)
        b.opi("addi", base, base, -64)
        b.beqz(base, l64)
        b.li(base, self.ctx.vregs_base)
        if instr.rd != 0:
            b.load("lw", instr.rd, vs2o, base)
        b.j(done)
        b.bind(l64)
        b.li(base, self.ctx.vregs_base)
        if instr.rd != 0:
            b.load("ld", instr.rd, vs2o, base)
        b.bind(done)
        _restore(b, scratch)

    def _emit_vadd_vi(self, instr: Instruction, b: Block) -> None:
        a, base, n = scratch = pick_scratch(set(), 3)
        vs2o, vdo = self.ctx.vreg_off(instr.vs2), self.ctx.vreg_off(instr.vd)
        l32, l64, done = Label(), Label(), Label()
        _save(b, scratch)
        self._sew_dispatch(b, n, a, base, done, l64)
        for head, ld, st, add, step in ((l32, "lw", "sw", "addiw", 4),
                                        (l64, "ld", "sd", "addi", 8)):
            b.bind(head)
            b.load(ld, a, vs2o, base)
            b.opi(add, a, a, instr.imm)
            b.store(st, a, vdo, base)
            _loop_tail(b, base, n, step, head)
            if step == 4:
                b.j(done)
        b.bind(done)
        _restore(b, scratch)

    def _emit_vmv(self, instr: Instruction, b: Block) -> None:
        exclude = {instr.rs1} if instr.rs1 is not None else set()
        a, base, n = scratch = pick_scratch(exclude, 3)
        vdo = self.ctx.vreg_off(instr.vd)
        l32, l64, done = Label(), Label(), Label()

        def load_value() -> None:
            if instr.mnemonic == "vmv.v.x":
                _read_source_reg(b, a, instr.rs1, scratch)
            else:
                b.li(a, instr.imm)

        _save(b, scratch)
        # The sew check uses `a` before the value overwrites it.
        self._sew_dispatch(b, n, a, base, done, l64)
        load_value()
        for head, st, step in ((l32, "sw", 4), (Label(), "sd", 8)):
            if step == 8:
                b.bind(l64)
                load_value()
            b.bind(head)
            b.store(st, a, vdo, base)
            _loop_tail(b, base, n, step, head)
            if step == 4:
                b.j(done)
        b.bind(done)
        _restore(b, scratch)

    def _emit_vredsum(self, instr: Instruction, b: Block) -> None:
        a, base, n, e = scratch = pick_scratch(set(), 4)
        vs1o, vs2o, vdo = (self.ctx.vreg_off(v) for v in (instr.vs1, instr.vs2, instr.vd))
        l64, done = Label(), Label()
        _save(b, scratch)
        b.li(base, self.ctx.vregs_base)
        b.load("ld", n, VL_OFF, base)
        b.load("ld", e, SEW_OFF, base)
        b.opi("addi", e, e, -64)
        b.beqz(e, l64)
        for ld, st, add, step in (("lw", "sw", "addw", 4), ("ld", "sd", "add", 8)):
            head, store = Label(), Label()
            if step == 8:
                b.bind(l64)
            b.load(ld, a, vs1o, base)
            b.beqz(n, store)
            b.bind(head)
            b.load(ld, e, vs2o, base)
            b.op(add, a, a, e)
            _loop_tail(b, base, n, step, head)
            b.bind(store)
            b.li(base, self.ctx.vregs_base)
            b.store(st, a, vdo, base)
            if step == 4:
                b.j(done)
        b.bind(done)
        _restore(b, scratch)
