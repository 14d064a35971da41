"""Disassembler formatting and linear-sweep tests."""

import pytest

from repro.isa.assembler import assemble
from repro.isa.disassembler import disassemble, dump, format_instruction
from repro.isa.instructions import Instruction, RawBytes


class TestLinearSweep:
    def test_mixed_width_stream(self):
        p = assemble("addi a0, a0, 1\nc.addi a1, 2\nadd a2, a0, a1\n")
        instrs = disassemble(p.code)
        assert [i.length for i in instrs] == [4, 2, 4]

    def test_data_islands_become_rawbytes(self):
        p = assemble("nop\n.half 0x0000\nnop\n")
        items = disassemble(p.code)
        assert isinstance(items[1], RawBytes)
        assert items[1].length == 2

    def test_stop_on_error_raises(self):
        from repro.isa.decoding import IllegalEncodingError

        p = assemble("nop\n.half 0x0000\n")
        with pytest.raises(IllegalEncodingError):
            disassemble(p.code, stop_on_error=True)

    def test_addresses_assigned(self):
        p = assemble("nop\nnop\n", base=0x2000)
        instrs = disassemble(p.code, 0x2000)
        assert [i.addr for i in instrs] == [0x2000, 0x2004]


class TestFormattingRoundtrip:
    """format_instruction output must re-assemble to identical bytes for
    every copyable instruction, so disassembly listings can be pasted
    back into workload sources."""

    CASES = [
        "addi a0, a1, -5",
        "add t0, t1, t2",
        "sh2add s2, s3, s4",
        "lw a0, 12(sp)",
        "sd s1, -8(s0)",
        "lui a5, 1000",
        "jalr ra, 4(t0)",
        "c.addi s0, 3",
        "c.mv a1, a2",
        "c.ld a2, 16(a0)",
        "c.sdsp s1, 24(sp)",
        "vsetvli t0, a0, e64",
        "vle64.v v3, (a1)",
        "vse32.v v4, (a2)",
        "vadd.vv v1, v2, v3",
        "vmacc.vv v5, v6, v7",
        "vadd.vx v1, v2, a3",
        "vadd.vi v1, v2, -4",
        "vmv.v.x v9, a5",
        "vmv.v.i v9, 11",
        "vredsum.vs v1, v2, v3",
        "ecall",
        "fence",
    ]

    @pytest.mark.parametrize("asm", CASES)
    def test_roundtrip(self, asm):
        original = assemble(asm + "\n").code
        instr = disassemble(original)[0]
        instr.addr = None  # unbound form, as the patcher's copy path uses
        text = format_instruction(instr)
        again = assemble(text + "\n").code
        assert again == original, f"{asm!r} -> {text!r}"

    def test_dump_multiline(self):
        p = assemble("nop\nret\n", base=0x100)
        listing = dump(p.code, 0x100)
        assert listing.count("\n") == 1
        assert "jalr" in listing

    def test_branch_formats_absolute_target(self):
        p = assemble("x:\nbeq a0, a1, x\n", base=0x500)
        text = format_instruction(disassemble(p.code, 0x500)[0])
        assert "0x500" in text
