"""Downgrade-template semantics: each template vs the vector unit.

Strategy: run a short vector program natively (extension core), then run
the *template's encoded block* for the same instruction on a base core
with the architectural vector state mirrored in the simulated-register
region, and compare the results element for element.
"""

import pytest

from repro.core.translate import (
    SEW_OFF,
    TranslationContext,
    TranslationError,
    Translator,
    VL_OFF,
    VREG_SIZE,
    VREGS_REGION_SIZE,
    pick_scratch,
)
from repro.elf.binary import Perm
from repro.isa.assembler import assemble
from repro.isa.block import Block
from repro.isa.decoding import IllegalEncodingError, decode
from repro.isa.encoding import encode, encode_vtype
from repro.isa.extensions import RV64GC, RV64GCV
from repro.isa.instructions import Instruction
from repro.sim.cpu import Cpu
from repro.sim.faults import BreakpointTrap
from repro.sim.memory import AddressSpace

REGION = 0x20000
DATA = 0x30000


def fresh_cpu(profile=RV64GC):
    space = AddressSpace()
    space.map(".vregs", REGION, VREGS_REGION_SIZE, Perm.RW)
    space.map(".data", DATA, 4096, Perm.RW)
    space.map("[stack]", 0x40000, 4096, Perm.RW)
    cpu = Cpu(space, profile)
    cpu.set_reg(2, 0x40F00)  # sp
    return cpu


def run_block(cpu: Cpu, block: Block):
    """Encode *block* once, place it at 0x1000 and run it to an ebreak."""
    code = block.encode().code + encode(Instruction("ebreak"))
    seg = cpu.space.segment_at(0x1000)
    if seg is not None:
        cpu.space.segments.remove(seg)
    cpu.space.map(".text", 0x1000, bytearray(code), Perm.RX)
    cpu.flush_decode_cache()
    cpu.pc = 0x1000
    try:
        for _ in range(100_000):
            cpu.step()
        raise AssertionError("no ebreak")
    except BreakpointTrap:
        return cpu


def set_region_state(cpu: Cpu, vl: int, sew: int, regs: dict[int, list[int]]):
    cpu.space.write_u64(REGION + VL_OFF, vl)
    cpu.space.write_u64(REGION + SEW_OFF, sew)
    width = sew // 8
    for v, values in regs.items():
        for i, value in enumerate(values):
            cpu.space.write(REGION + v * VREG_SIZE + i * width,
                            (value & ((1 << sew) - 1)).to_bytes(width, "little"))


def region_elems(cpu: Cpu, v: int, n: int, sew: int = 64) -> list[int]:
    width = sew // 8
    return [
        int.from_bytes(cpu.space.read(REGION + v * VREG_SIZE + i * width, width), "little")
        for i in range(n)
    ]


def translator() -> Translator:
    return Translator(TranslationContext(REGION, gp_value=0x999000))


def translate_and_run(cpu: Cpu, asm_instr: str) -> Cpu:
    """Translate the single instruction in *asm_instr* and execute the body."""
    program = assemble(asm_instr, base=0)
    instr = program.instructions[0]
    return run_block(cpu, translator().translate(instr))


class TestScratchSelection:
    def test_excludes_requested(self):
        scratch = pick_scratch({5, 6}, 3)
        assert 5 not in scratch and 6 not in scratch

    def test_raises_when_exhausted(self):
        with pytest.raises(TranslationError):
            pick_scratch(set(range(32)), 1)


class TestZbaTemplates:
    @pytest.mark.parametrize("mnem,shift", [("sh1add", 1), ("sh2add", 2), ("sh3add", 3)])
    def test_semantics(self, mnem, shift):
        cpu = fresh_cpu()
        cpu.set_reg(11, 13)
        cpu.set_reg(12, 1000)
        translate_and_run(cpu, f"{mnem} a0, a1, a2")
        assert cpu.get_reg(10) == (13 << shift) + 1000

    def test_scratch_restored(self):
        cpu = fresh_cpu()
        cpu.set_reg(11, 1)
        cpu.set_reg(12, 2)
        before = cpu.snapshot_regs()
        translate_and_run(cpu, "sh1add a0, a1, a2")
        after = cpu.snapshot_regs()
        # Only a0 (the destination) may differ.
        diffs = [i for i in range(1, 32) if before[i] != after[i] and i != 10]
        assert diffs == []

    def test_sp_as_source_compensated(self):
        cpu = fresh_cpu()
        sp = cpu.get_reg(2)
        cpu.set_reg(12, 4)
        translate_and_run(cpu, "sh1add a0, sp, a2")
        assert cpu.get_reg(10) == (sp << 1) + 4
        assert cpu.get_reg(2) == sp  # sp itself restored


class TestVsetvliTemplate:
    def test_clamps_to_vlmax(self):
        cpu = fresh_cpu()
        cpu.set_reg(11, 100)
        translate_and_run(cpu, "vsetvli a0, a1, e64")
        assert cpu.get_reg(10) == 4
        assert cpu.space.read_u64(REGION + VL_OFF) == 4
        assert cpu.space.read_u64(REGION + SEW_OFF) == 64

    def test_small_avl_passthrough(self):
        cpu = fresh_cpu()
        cpu.set_reg(11, 3)
        translate_and_run(cpu, "vsetvli a0, a1, e64")
        assert cpu.get_reg(10) == 3

    def test_rs1_zero_gives_vlmax(self):
        cpu = fresh_cpu()
        translate_and_run(cpu, "vsetvli a0, zero, e32")
        assert cpu.get_reg(10) == 8
        assert cpu.space.read_u64(REGION + SEW_OFF) == 32


class TestVectorMemoryTemplates:
    def test_vle64(self):
        cpu = fresh_cpu()
        for i, v in enumerate([5, 6, 7]):
            cpu.space.write_u64(DATA + 8 * i, v)
        set_region_state(cpu, 3, 64, {})
        cpu.set_reg(10, DATA)
        translate_and_run(cpu, "vle64.v v2, (a0)")
        assert region_elems(cpu, 2, 3) == [5, 6, 7]

    def test_vse64(self):
        cpu = fresh_cpu()
        set_region_state(cpu, 2, 64, {3: [11, 22]})
        cpu.set_reg(10, DATA)
        translate_and_run(cpu, "vse64.v v3, (a0)")
        assert cpu.space.read_u64(DATA) == 11
        assert cpu.space.read_u64(DATA + 8) == 22

    def test_vle32_element_packing(self):
        cpu = fresh_cpu()
        for i, v in enumerate([1, 2, 3, 4, 5]):
            cpu.space.write_u32(DATA + 4 * i, v)
        set_region_state(cpu, 5, 32, {})
        cpu.set_reg(10, DATA)
        translate_and_run(cpu, "vle32.v v1, (a0)")
        assert region_elems(cpu, 1, 5, sew=32) == [1, 2, 3, 4, 5]

    def test_vse_with_sp_base(self):
        """The reduction idiom stores via (sp): the template must
        compensate for its own stack frame."""
        cpu = fresh_cpu()
        set_region_state(cpu, 1, 64, {3: [42]})
        sp = cpu.get_reg(2)
        translate_and_run(cpu, "vse64.v v3, (sp)")
        assert cpu.space.read_u64(sp) == 42

    def test_zero_vl_is_noop(self):
        cpu = fresh_cpu()
        set_region_state(cpu, 0, 64, {})
        cpu.set_reg(10, DATA)
        translate_and_run(cpu, "vle64.v v1, (a0)")
        assert region_elems(cpu, 1, 4) == [0, 0, 0, 0]


class TestArithTemplates:
    @pytest.mark.parametrize("mnem,fn", [
        ("vadd.vv", lambda a, b: a + b),
        ("vsub.vv", lambda a, b: a - b),
        ("vmul.vv", lambda a, b: a * b),
        ("vand.vv", lambda a, b: a & b),
        ("vor.vv", lambda a, b: a | b),
        ("vxor.vv", lambda a, b: a ^ b),
    ])
    def test_vv_ops(self, mnem, fn):
        cpu = fresh_cpu()
        xs, ys = [9, 14, 3], [4, 5, 6]
        set_region_state(cpu, 3, 64, {1: xs, 2: ys})
        translate_and_run(cpu, f"{mnem} v3, v1, v2")
        expect = [fn(a, b) & (2**64 - 1) for a, b in zip(xs, ys)]
        assert region_elems(cpu, 3, 3) == expect

    def test_vv_32bit_wraps(self):
        cpu = fresh_cpu()
        set_region_state(cpu, 6, 32, {1: [0xFFFFFFFF, 2], 2: [1, 3]})
        translate_and_run(cpu, "vadd.vv v3, v1, v2")
        assert region_elems(cpu, 3, 2, sew=32) == [0, 5]

    def test_vmacc(self):
        cpu = fresh_cpu()
        set_region_state(cpu, 2, 64, {1: [2, 3], 2: [10, 20], 3: [100, 200]})
        translate_and_run(cpu, "vmacc.vv v3, v1, v2")
        assert region_elems(cpu, 3, 2) == [120, 260]

    def test_vadd_vx(self):
        cpu = fresh_cpu()
        set_region_state(cpu, 2, 64, {1: [5, 6]})
        cpu.set_reg(11, 100)
        translate_and_run(cpu, "vadd.vx v2, v1, a1")
        assert region_elems(cpu, 2, 2) == [105, 106]

    def test_vadd_vi(self):
        cpu = fresh_cpu()
        set_region_state(cpu, 2, 64, {1: [5, 6]})
        translate_and_run(cpu, "vadd.vi v2, v1, -2")
        assert region_elems(cpu, 2, 2) == [3, 4]

    def test_vmv_v_x(self):
        cpu = fresh_cpu()
        set_region_state(cpu, 3, 64, {})
        cpu.set_reg(13, 77)
        translate_and_run(cpu, "vmv.v.x v4, a3")
        assert region_elems(cpu, 4, 3) == [77, 77, 77]

    def test_vmv_v_i(self):
        cpu = fresh_cpu()
        set_region_state(cpu, 2, 64, {})
        translate_and_run(cpu, "vmv.v.i v4, 7")
        assert region_elems(cpu, 4, 2) == [7, 7]

    def test_vredsum(self):
        cpu = fresh_cpu()
        set_region_state(cpu, 3, 64, {1: [10, 20, 30], 2: [5]})
        translate_and_run(cpu, "vredsum.vs v4, v1, v2")
        assert region_elems(cpu, 4, 1) == [65]

    def test_registers_preserved_by_arith(self):
        cpu = fresh_cpu()
        set_region_state(cpu, 2, 64, {1: [1, 2], 2: [3, 4]})
        for i in range(5, 32):
            if i != 2:
                cpu.set_reg(i, 0x1000 + i)
        before = cpu.snapshot_regs()
        translate_and_run(cpu, "vadd.vv v3, v1, v2")
        assert cpu.snapshot_regs() == before


class TestModes:
    def test_empty_mode_replays_source(self):
        t = Translator(TranslationContext(REGION, 0), mode="empty")
        source = Instruction("vadd.vv", vd=1, vs2=2, vs1=3)
        block = t.translate(source)
        # The source itself, with no scratch save/restore around it.
        assert block.encode().code == encode(source)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            Translator(TranslationContext(REGION, 0), mode="wat")

    def test_untranslatable_raises(self):
        t = translator()
        with pytest.raises(TranslationError):
            t.translate(Instruction("lui", rd=1, imm=0))

    def test_can_translate(self):
        t = translator()
        assert t.can_translate(Instruction("vadd.vv", vd=1, vs2=2, vs1=3))
        assert not t.can_translate(Instruction("add", rd=1, rs1=2, rs2=3))


def _decodable_instructions() -> dict[str, Instruction]:
    """One decoded instruction per mnemonic the decoder accepts: every
    16-bit parcel, and every 32-bit opcode/funct3/funct7 combination
    over a few register-field patterns."""
    found: dict[str, Instruction] = {}
    for parcel in range(1 << 16):
        if parcel & 0b11 == 0b11:
            continue
        try:
            instr = decode(parcel.to_bytes(2, "little"), 0)
        except IllegalEncodingError:
            continue
        found.setdefault(instr.mnemonic, instr)
    for opcode in range(0b11, 1 << 7, 4):
        for funct3 in range(8):
            for funct7 in range(1 << 7):
                for rd, rs1, rs2 in ((0, 0, 0), (0, 0, 1), (5, 6, 0), (5, 6, 7)):
                    word = ((funct7 << 25) | (rs2 << 20) | (rs1 << 15)
                            | (funct3 << 12) | (rd << 7) | opcode)
                    try:
                        instr = decode(word.to_bytes(4, "little"), 0)
                    except IllegalEncodingError:
                        continue
                    found.setdefault(instr.mnemonic, instr)
    return found


DECODABLE = _decodable_instructions()
VSETVLI = [Instruction("vsetvli", rd=5, rs1=6, imm=encode_vtype(sew))
           for sew in (8, 16, 32, 64)] + [
    Instruction("vsetvli", rd=5, rs1=6, imm=0b100 << 3)]  # reserved SEW code


class TestCanTranslate:
    def test_sweep_reaches_every_executable_mnemonic(self):
        from repro.sim.semantics import SEMANTICS

        assert set(SEMANTICS) <= set(DECODABLE)

    @pytest.mark.parametrize(
        "instr", list(DECODABLE.values()) + VSETVLI,
        ids=lambda i: f"{i.mnemonic}:{i.imm}" if i.mnemonic == "vsetvli" else i.mnemonic)
    def test_can_translate_exactly_when_translate_succeeds(self, instr):
        t = translator()
        try:
            t.translate(instr)
            translated = True
        except Exception:
            translated = False
        assert t.can_translate(instr) is translated

    def test_every_extension_mnemonic_has_a_template(self):
        t = translator()
        translatable = {m for m, i in DECODABLE.items() if t.can_translate(i)}
        vector_or_zba = {m for m, i in DECODABLE.items()
                         if i.is_vector() or m in ("sh1add", "sh2add", "sh3add")}
        assert translatable == vector_or_zba

    def test_empty_mode_translates_everything(self):
        t = Translator(TranslationContext(REGION, 0), mode="empty")
        for instr in list(DECODABLE.values()) + VSETVLI:
            assert t.can_translate(instr)
            assert t.translate(instr).items == [instr]
