"""Encoders: ``Instruction`` IR -> machine bytes (little-endian).

Encodings follow the RISC-V unprivileged specification for every
implemented instruction, including the RVC parcel layouts.  This matters
here more than in a typical simulator: the SMILE trampoline's
correctness argument (paper §4.2, Fig. 7) is a statement about *bit
patterns* — which 16-bit parcels of an ``auipc``/``jalr`` pair decode to
reserved encodings — so the encoder must produce the real layouts for
the reproduction to exercise the mechanism rather than assume it.
"""

from __future__ import annotations

from repro.isa import opcodes as op
from repro.isa.fields import (
    bit,
    bits,
    check_aligned,
    check_signed,
    check_unsigned,
    p16,
    p32,
)
from repro.isa.instructions import Instruction
from repro.isa.registers import rvc_encode_reg


class EncodingError(ValueError):
    """Raised when an instruction cannot be encoded (bad operand/range)."""


# ---------------------------------------------------------------------------
# 32-bit format packers
# ---------------------------------------------------------------------------

def r_type(opcode: int, funct3: int, funct7: int, rd: int, rs1: int, rs2: int) -> int:
    """Pack an R-type instruction word."""
    return (
        (funct7 << 25) | (rs2 << 20) | (rs1 << 15)
        | (funct3 << 12) | (rd << 7) | opcode
    )


def i_type(opcode: int, funct3: int, rd: int, rs1: int, imm: int) -> int:
    """Pack an I-type instruction word (12-bit signed immediate)."""
    check_signed(imm, 12, "I-type imm")
    return ((imm & 0xFFF) << 20) | (rs1 << 15) | (funct3 << 12) | (rd << 7) | opcode


def s_type(opcode: int, funct3: int, rs1: int, rs2: int, imm: int) -> int:
    """Pack an S-type instruction word (stores)."""
    check_signed(imm, 12, "S-type imm")
    imm &= 0xFFF
    return (
        (bits(imm, 11, 5) << 25) | (rs2 << 20) | (rs1 << 15)
        | (funct3 << 12) | (bits(imm, 4, 0) << 7) | opcode
    )


def b_type(opcode: int, funct3: int, rs1: int, rs2: int, imm: int) -> int:
    """Pack a B-type instruction word (13-bit signed, 2-byte aligned)."""
    check_signed(imm, 13, "B-type imm")
    check_aligned(imm, 2, "B-type imm")
    imm &= 0x1FFF
    return (
        (bit(imm, 12) << 31) | (bits(imm, 10, 5) << 25) | (rs2 << 20)
        | (rs1 << 15) | (funct3 << 12) | (bits(imm, 4, 1) << 8)
        | (bit(imm, 11) << 7) | opcode
    )


def u_type(opcode: int, rd: int, imm20: int) -> int:
    """Pack a U-type instruction word; *imm20* is the raw bits-31:12 value."""
    check_unsigned(imm20 & 0xFFFFF, 20, "U-type imm20")
    return ((imm20 & 0xFFFFF) << 12) | (rd << 7) | opcode


def j_type(opcode: int, rd: int, imm: int) -> int:
    """Pack a J-type instruction word (21-bit signed, 2-byte aligned)."""
    check_signed(imm, 21, "J-type imm")
    check_aligned(imm, 2, "J-type imm")
    imm &= 0x1FFFFF
    return (
        (bit(imm, 20) << 31) | (bits(imm, 10, 1) << 21) | (bit(imm, 11) << 20)
        | (bits(imm, 19, 12) << 12) | (rd << 7) | opcode
    )


# ---------------------------------------------------------------------------
# Instruction tables
# ---------------------------------------------------------------------------

#: (funct3, funct7) for OP-opcode R-type arithmetic.
_OP_TABLE: dict[str, tuple[int, int]] = {
    "add": (op.F3_ADD_SUB, op.F7_BASE),
    "sub": (op.F3_ADD_SUB, op.F7_SUB_SRA),
    "sll": (op.F3_SLL, op.F7_BASE),
    "slt": (op.F3_SLT, op.F7_BASE),
    "sltu": (op.F3_SLTU, op.F7_BASE),
    "xor": (op.F3_XOR, op.F7_BASE),
    "srl": (op.F3_SRL_SRA, op.F7_BASE),
    "sra": (op.F3_SRL_SRA, op.F7_SUB_SRA),
    "or": (op.F3_OR, op.F7_BASE),
    "and": (op.F3_AND, op.F7_BASE),
    "mul": (0b000, op.F7_MULDIV),
    "mulh": (0b001, op.F7_MULDIV),
    "mulhsu": (0b010, op.F7_MULDIV),
    "mulhu": (0b011, op.F7_MULDIV),
    "div": (0b100, op.F7_MULDIV),
    "divu": (0b101, op.F7_MULDIV),
    "rem": (0b110, op.F7_MULDIV),
    "remu": (0b111, op.F7_MULDIV),
    "sh1add": (0b010, op.F7_ZBA),
    "sh2add": (0b100, op.F7_ZBA),
    "sh3add": (0b110, op.F7_ZBA),
}

#: (funct3, funct7) for OP_32-opcode R-type word arithmetic.
_OP32_TABLE: dict[str, tuple[int, int]] = {
    "addw": (op.F3_ADD_SUB, op.F7_BASE),
    "subw": (op.F3_ADD_SUB, op.F7_SUB_SRA),
    "sllw": (op.F3_SLL, op.F7_BASE),
    "srlw": (op.F3_SRL_SRA, op.F7_BASE),
    "sraw": (op.F3_SRL_SRA, op.F7_SUB_SRA),
    "mulw": (0b000, op.F7_MULDIV),
    "divw": (0b100, op.F7_MULDIV),
    "divuw": (0b101, op.F7_MULDIV),
    "remw": (0b110, op.F7_MULDIV),
    "remuw": (0b111, op.F7_MULDIV),
}

#: funct3 for OP_IMM-opcode I-type arithmetic.
_OPIMM_TABLE: dict[str, int] = {
    "addi": op.F3_ADD_SUB,
    "slti": op.F3_SLT,
    "sltiu": op.F3_SLTU,
    "xori": op.F3_XOR,
    "ori": op.F3_OR,
    "andi": op.F3_AND,
}

#: funct3 for LOAD-opcode instructions.
_LOAD_TABLE: dict[str, int] = {
    "lb": op.F3_B, "lh": op.F3_H, "lw": op.F3_W, "ld": op.F3_D,
    "lbu": op.F3_BU, "lhu": op.F3_HU, "lwu": op.F3_WU,
}

#: funct3 for STORE-opcode instructions.
_STORE_TABLE: dict[str, int] = {
    "sb": op.F3_B, "sh": op.F3_H, "sw": op.F3_W, "sd": op.F3_D,
}

#: funct3 for BRANCH-opcode instructions.
_BRANCH_TABLE: dict[str, int] = {
    "beq": op.F3_BEQ, "bne": op.F3_BNE, "blt": op.F3_BLT,
    "bge": op.F3_BGE, "bltu": op.F3_BLTU, "bgeu": op.F3_BGEU,
}

#: funct6 and category for implemented OP-V arithmetic.
_VARITH_TABLE: dict[str, tuple[int, int]] = {
    "vadd.vv": (op.V_ADD, op.OPIVV),
    "vadd.vx": (op.V_ADD, op.OPIVX),
    "vadd.vi": (op.V_ADD, op.OPIVI),
    "vsub.vv": (op.V_SUB, op.OPIVV),
    "vsub.vx": (op.V_SUB, op.OPIVX),
    "vmin.vv": (op.V_MIN, op.OPIVV),
    "vminu.vv": (op.V_MINU, op.OPIVV),
    "vmax.vv": (op.V_MAX, op.OPIVV),
    "vmaxu.vv": (op.V_MAXU, op.OPIVV),
    "vand.vv": (op.V_AND, op.OPIVV),
    "vor.vv": (op.V_OR, op.OPIVV),
    "vxor.vv": (op.V_XOR, op.OPIVV),
    "vsll.vv": (op.V_SLL, op.OPIVV),
    "vsll.vx": (op.V_SLL, op.OPIVX),
    "vsrl.vv": (op.V_SRL, op.OPIVV),
    "vsrl.vx": (op.V_SRL, op.OPIVX),
    "vsra.vv": (op.V_SRA, op.OPIVV),
    "vsra.vx": (op.V_SRA, op.OPIVX),
    "vmul.vv": (op.V_MUL, op.OPMVV),
    "vmul.vx": (op.V_MUL, op.OPMVX),
    "vmacc.vv": (op.V_MACC, op.OPMVV),
    "vmv.v.x": (op.V_MV, op.OPIVX),
    "vmv.v.i": (op.V_MV, op.OPIVI),
    "vmv.x.s": (op.V_WXUNARY, op.OPMVV),
    "vredsum.vs": (op.V_ADD, op.OPMVV),
}

_VLOAD_WIDTH: dict[str, int] = {
    "vle32.v": op.VWIDTH_32, "vle64.v": op.VWIDTH_64,
}
_VSTORE_WIDTH: dict[str, int] = {
    "vse32.v": op.VWIDTH_32, "vse64.v": op.VWIDTH_64,
}


def encode_vtype(sew: int, lmul: int = 1) -> int:
    """Encode a vtype immediate for ``vsetvli`` (ta/ma semantics fixed)."""
    if sew not in op.VSEW_CODES:
        raise EncodingError(f"unsupported SEW {sew}")
    if lmul != 1:
        raise EncodingError("only LMUL=1 is implemented")
    return op.VSEW_CODES[sew] << 3


def decode_vtype(vtype: int) -> int:
    """Return the SEW encoded in a vtype immediate."""
    code = bits(vtype, 5, 3)
    if code not in op.VSEW_FROM_CODE:
        raise EncodingError(f"unsupported vtype {vtype:#x}")
    return op.VSEW_FROM_CODE[code]


# ---------------------------------------------------------------------------
# 16-bit (RVC) packers
# ---------------------------------------------------------------------------

def _ci(funct3: int, quadrant: int, rd: int, imm6: int) -> int:
    """Pack a CI-format parcel (imm split as imm[5] | rd | imm[4:0])."""
    return (
        (funct3 << 13) | (bit(imm6, 5) << 12) | (rd << 7)
        | (bits(imm6, 4, 0) << 2) | quadrant
    )


def _encode_c(instr: Instruction) -> int:
    """Encode one compressed instruction to its 16-bit parcel."""
    m = instr.mnemonic
    rd, rs1, rs2, imm = instr.rd, instr.rs1, instr.rs2, instr.imm
    if m == "c.nop":
        return _ci(0b000, op.C_Q1, 0, 0)
    if m == "c.addi":
        if rd == 0:
            raise EncodingError("c.addi needs rd != x0 (use c.nop)")
        check_signed(imm, 6, "c.addi imm")
        return _ci(0b000, op.C_Q1, rd, imm & 0x3F)
    if m == "c.addiw":
        if rd == 0:
            raise EncodingError("c.addiw with rd=x0 is reserved")
        check_signed(imm, 6, "c.addiw imm")
        return _ci(0b001, op.C_Q1, rd, imm & 0x3F)
    if m == "c.li":
        if rd == 0:
            raise EncodingError("c.li needs rd != x0")
        check_signed(imm, 6, "c.li imm")
        return _ci(0b010, op.C_Q1, rd, imm & 0x3F)
    if m == "c.lui":
        if rd in (0, 2):
            raise EncodingError("c.lui needs rd != x0, x2")
        if imm == 0 or not (-32 <= imm < 32):
            raise EncodingError("c.lui imm out of range or zero")
        return _ci(0b011, op.C_Q1, rd, imm & 0x3F)
    if m == "c.slli":
        if rd == 0 or imm == 0:
            raise EncodingError("c.slli needs rd != x0 and shamt != 0")
        check_unsigned(imm, 6, "c.slli shamt")
        return _ci(0b000, op.C_Q2, rd, imm)
    if m in ("c.srli", "c.srai", "c.andi"):
        funct2 = {"c.srli": 0b00, "c.srai": 0b01, "c.andi": 0b10}[m]
        if m == "c.andi":
            check_signed(imm, 6, "c.andi imm")
        else:
            if imm == 0:
                raise EncodingError(f"{m} shamt must be nonzero")
            check_unsigned(imm, 6, f"{m} shamt")
        rdc = rvc_encode_reg(rd)
        imm &= 0x3F
        return (
            (0b100 << 13) | (bit(imm, 5) << 12) | (funct2 << 10) | (rdc << 7)
            | (bits(imm, 4, 0) << 2) | op.C_Q1
        )
    if m in ("c.sub", "c.xor", "c.or", "c.and", "c.subw", "c.addw"):
        word = m in ("c.subw", "c.addw")
        funct2 = {
            "c.sub": 0b00, "c.xor": 0b01, "c.or": 0b10, "c.and": 0b11,
            "c.subw": 0b00, "c.addw": 0b01,
        }[m]
        rdc = rvc_encode_reg(rd)
        rs2c = rvc_encode_reg(rs2)
        return (
            (0b100 << 13) | ((1 if word else 0) << 12) | (0b11 << 10)
            | (rdc << 7) | (funct2 << 5) | (rs2c << 2) | op.C_Q1
        )
    if m == "c.mv":
        if rd == 0 or rs2 == 0:
            raise EncodingError("c.mv needs rd, rs2 != x0")
        return (0b100 << 13) | (0 << 12) | (rd << 7) | (rs2 << 2) | op.C_Q2
    if m == "c.add":
        if rd == 0 or rs2 == 0:
            raise EncodingError("c.add needs rd, rs2 != x0")
        return (0b100 << 13) | (1 << 12) | (rd << 7) | (rs2 << 2) | op.C_Q2
    if m == "c.jr":
        if rs1 == 0:
            raise EncodingError("c.jr with rs1=x0 is reserved")
        return (0b100 << 13) | (0 << 12) | (rs1 << 7) | op.C_Q2
    if m == "c.jalr":
        if rs1 == 0:
            raise EncodingError("c.jalr needs rs1 != x0")
        return (0b100 << 13) | (1 << 12) | (rs1 << 7) | op.C_Q2
    if m == "c.ebreak":
        return (0b100 << 13) | (1 << 12) | op.C_Q2
    if m == "c.j":
        check_signed(imm, 12, "c.j imm")
        check_aligned(imm, 2, "c.j imm")
        i = imm & 0xFFF
        return (
            (0b101 << 13) | (bit(i, 11) << 12) | (bit(i, 4) << 11)
            | (bits(i, 9, 8) << 9) | (bit(i, 10) << 8) | (bit(i, 6) << 7)
            | (bit(i, 7) << 6) | (bits(i, 3, 1) << 3) | (bit(i, 5) << 2)
            | op.C_Q1
        )
    if m in ("c.beqz", "c.bnez"):
        funct3 = 0b110 if m == "c.beqz" else 0b111
        check_signed(imm, 9, f"{m} imm")
        check_aligned(imm, 2, f"{m} imm")
        rs1c = rvc_encode_reg(rs1)
        i = imm & 0x1FF
        return (
            (funct3 << 13) | (bit(i, 8) << 12) | (bits(i, 4, 3) << 10)
            | (rs1c << 7) | (bits(i, 7, 6) << 5) | (bits(i, 2, 1) << 3)
            | (bit(i, 5) << 2) | op.C_Q1
        )
    if m in ("c.lw", "c.ld", "c.sw", "c.sd"):
        is_load = m in ("c.lw", "c.ld")
        is_word = m in ("c.lw", "c.sw")
        funct3 = {"c.lw": 0b010, "c.ld": 0b011, "c.sw": 0b110, "c.sd": 0b111}[m]
        rs1c = rvc_encode_reg(rs1)
        other = rvc_encode_reg(rd if is_load else rs2)
        if is_word:
            check_unsigned(imm, 7, f"{m} offset")
            check_aligned(imm, 4, f"{m} offset")
            mid = (bit(imm, 2) << 6) | (bit(imm, 6) << 5)
        else:
            check_unsigned(imm, 8, f"{m} offset")
            check_aligned(imm, 8, f"{m} offset")
            mid = bits(imm, 7, 6) << 5
        return (
            (funct3 << 13) | (bits(imm, 5, 3) << 10) | (rs1c << 7)
            | mid | (other << 2) | op.C_Q0
        )
    if m in ("c.lwsp", "c.ldsp"):
        if rd == 0:
            raise EncodingError(f"{m} with rd=x0 is reserved")
        if m == "c.lwsp":
            check_unsigned(imm, 8, "c.lwsp offset")
            check_aligned(imm, 4, "c.lwsp offset")
            low = (bits(imm, 4, 2) << 4) | (bits(imm, 7, 6) << 2)
        else:
            check_unsigned(imm, 9, "c.ldsp offset")
            check_aligned(imm, 8, "c.ldsp offset")
            low = (bits(imm, 4, 3) << 5) | (bits(imm, 8, 6) << 2)
        funct3 = 0b010 if m == "c.lwsp" else 0b011
        return (funct3 << 13) | (bit(imm, 5) << 12) | (rd << 7) | low | op.C_Q2
    if m in ("c.swsp", "c.sdsp"):
        if m == "c.swsp":
            check_unsigned(imm, 8, "c.swsp offset")
            check_aligned(imm, 4, "c.swsp offset")
            field = (bits(imm, 5, 2) << 9) | (bits(imm, 7, 6) << 7)
        else:
            check_unsigned(imm, 9, "c.sdsp offset")
            check_aligned(imm, 8, "c.sdsp offset")
            field = (bits(imm, 5, 3) << 10) | (bits(imm, 8, 6) << 7)
        funct3 = 0b110 if m == "c.swsp" else 0b111
        return (funct3 << 13) | field | (rs2 << 2) | op.C_Q2
    if m == "c.addi4spn":
        if imm == 0:
            raise EncodingError("c.addi4spn nzuimm=0 is reserved")
        check_unsigned(imm, 10, "c.addi4spn imm")
        check_aligned(imm, 4, "c.addi4spn imm")
        rdc = rvc_encode_reg(rd)
        return (
            (0b000 << 13) | (bits(imm, 5, 4) << 11) | (bits(imm, 9, 6) << 7)
            | (bit(imm, 2) << 6) | (bit(imm, 3) << 5) | (rdc << 2) | op.C_Q0
        )
    raise EncodingError(f"no compressed encoder for {m!r}")


# ---------------------------------------------------------------------------
# Top-level encode
# ---------------------------------------------------------------------------

def _encode32(instr: Instruction) -> int:
    """Encode one 32-bit instruction to its word."""
    m = instr.mnemonic
    rd = instr.rd if instr.rd is not None else 0
    rs1 = instr.rs1 if instr.rs1 is not None else 0
    rs2 = instr.rs2 if instr.rs2 is not None else 0
    imm = instr.imm if instr.imm is not None else 0

    if m in _OP_TABLE:
        f3, f7 = _OP_TABLE[m]
        return r_type(op.OP, f3, f7, rd, rs1, rs2)
    if m in _OP32_TABLE:
        f3, f7 = _OP32_TABLE[m]
        return r_type(op.OP_32, f3, f7, rd, rs1, rs2)
    if m in _OPIMM_TABLE:
        return i_type(op.OP_IMM, _OPIMM_TABLE[m], rd, rs1, imm)
    if m == "slli":
        check_unsigned(imm, 6, "slli shamt")
        return i_type(op.OP_IMM, op.F3_SLL, rd, rs1, imm)
    if m == "srli":
        check_unsigned(imm, 6, "srli shamt")
        return i_type(op.OP_IMM, op.F3_SRL_SRA, rd, rs1, imm)
    if m == "srai":
        check_unsigned(imm, 6, "srai shamt")
        return i_type(op.OP_IMM, op.F3_SRL_SRA, rd, rs1, imm | (op.F7_SUB_SRA << 5))
    if m == "addiw":
        return i_type(op.OP_IMM_32, op.F3_ADD_SUB, rd, rs1, imm)
    if m == "slliw":
        check_unsigned(imm, 5, "slliw shamt")
        return i_type(op.OP_IMM_32, op.F3_SLL, rd, rs1, imm)
    if m == "srliw":
        check_unsigned(imm, 5, "srliw shamt")
        return i_type(op.OP_IMM_32, op.F3_SRL_SRA, rd, rs1, imm)
    if m == "sraiw":
        check_unsigned(imm, 5, "sraiw shamt")
        return i_type(op.OP_IMM_32, op.F3_SRL_SRA, rd, rs1, imm | (op.F7_SUB_SRA << 5))
    if m in _LOAD_TABLE:
        return i_type(op.LOAD, _LOAD_TABLE[m], rd, rs1, imm)
    if m in _STORE_TABLE:
        return s_type(op.STORE, _STORE_TABLE[m], rs1, rs2, imm)
    if m in _BRANCH_TABLE:
        return b_type(op.BRANCH, _BRANCH_TABLE[m], rs1, rs2, imm)
    if m == "lui":
        # imm is the raw 20-bit field value (the value placed in bits 31:12).
        return u_type(op.LUI, rd, imm & 0xFFFFF)
    if m == "auipc":
        return u_type(op.AUIPC, rd, imm & 0xFFFFF)
    if m == "jal":
        return j_type(op.JAL, rd, imm)
    if m == "jalr":
        return i_type(op.JALR, 0b000, rd, rs1, imm)
    if m == "ecall":
        return i_type(op.SYSTEM, 0b000, 0, 0, 0)
    if m == "ebreak":
        return i_type(op.SYSTEM, 0b000, 0, 0, 1)
    if m == "fence":
        return i_type(op.MISC_MEM, 0b000, 0, 0, 0)
    # -- vector --------------------------------------------------------
    if m == "vsetvli":
        check_unsigned(imm, 11, "vsetvli vtype")
        return (imm << 20) | (rs1 << 15) | (op.OPCFG << 12) | (rd << 7) | op.OP_V
    if m in _VARITH_TABLE:
        funct6, cat = _VARITH_TABLE[m]
        # vmv.x.s writes an INTEGER register through the vd field slot.
        vd = instr.rd if m == "vmv.x.s" else (instr.vd if instr.vd is not None else 0)
        vs2 = instr.vs2 if instr.vs2 is not None else 0
        if cat in (op.OPIVV, op.OPMVV):
            mid = instr.vs1 if instr.vs1 is not None else 0
        elif cat == op.OPIVI:
            check_signed(imm, 5, f"{m} imm")
            mid = imm & 0x1F
        else:  # OPIVX / OPMVX
            mid = rs1
        return (
            (funct6 << 26) | ((instr.vm & 1) << 25) | (vs2 << 20)
            | (mid << 15) | (cat << 12) | (vd << 7) | op.OP_V
        )
    if m in _VLOAD_WIDTH:
        vd = instr.vd if instr.vd is not None else 0
        return (
            (0 << 29) | (0 << 26) | ((instr.vm & 1) << 25) | (0 << 20)
            | (rs1 << 15) | (_VLOAD_WIDTH[m] << 12) | (vd << 7) | op.LOAD_FP
        )
    if m in _VSTORE_WIDTH:
        vs3 = instr.vd if instr.vd is not None else 0
        return (
            (0 << 29) | (0 << 26) | ((instr.vm & 1) << 25) | (0 << 20)
            | (rs1 << 15) | (_VSTORE_WIDTH[m] << 12) | (vs3 << 7) | op.STORE_FP
        )
    raise EncodingError(f"no encoder for mnemonic {instr.mnemonic!r}")


def encode(instr: Instruction) -> bytes:
    """Encode *instr* to its little-endian machine bytes (2 or 4)."""
    if instr.mnemonic.startswith("c."):
        parcel = _encode_c(instr)
        if parcel & 0b11 == 0b11:
            raise EncodingError(f"compressed encoding of {instr.mnemonic} has 32-bit low bits")
        return p16(parcel)
    word = _encode32(instr)
    if word & 0b11 != 0b11:
        raise EncodingError(f"32-bit encoding of {instr.mnemonic} lacks 0b11 low bits")
    return p32(word)
