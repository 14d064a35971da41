"""Decoder: machine bytes -> ``Instruction`` IR.

Besides decoding the implemented subset, this module is the reproduction
of the *fault surface* the paper's SMILE trampoline is built on
(§3.3, Fig. 7).  Two classes of encodings must raise deterministic
illegal-instruction conditions:

* **reserved long-encoding prefix** — any parcel whose low five bits are
  ``11111`` announces a >=48-bit instruction; no such extension exists,
  so real cores fault.  SMILE pins bits 16–20 of its ``auipc`` to
  ``11111`` so a mid-trampoline jump (P2) lands on this prefix.
* **reserved compressed encodings** — e.g. the all-zero parcel, or
  ``c.addiw`` with ``rd=x0``.  SMILE chooses the ``jalr`` immediate so
  the parcel at its bit 16 (P3) decodes to one of these.

``decode`` raises :class:`IllegalEncodingError` (with a ``kind``) for
all of these, and the simulated CPU converts that into a SIGILL.
"""

from __future__ import annotations

import functools

from repro.isa import opcodes as op
from repro.isa.encoding import _BRANCH_TABLE, _LOAD_TABLE, _OP32_TABLE, _OP_TABLE, _OPIMM_TABLE, _STORE_TABLE
from repro.isa.extensions import Extension
from repro.isa.fields import bit, bits, sign_extend, u16, u32
from repro.isa.instructions import Instruction, encoding_fields
from repro.isa.registers import rvc_decode_reg


class IllegalEncodingError(ValueError):
    """The bytes do not decode to any implemented/legal instruction.

    ``kind`` distinguishes the architectural reason:

    * ``"long-prefix"`` — reserved >=48-bit length prefix (low5 = 11111);
    * ``"reserved-compressed"`` — a reserved RVC encoding;
    * ``"unknown"`` — an encoding outside the implemented subset (on a
      real core this may be a legal instruction of an extension we do
      not model; the scanner treats it as unrecognized).
    * ``"truncated"`` — fewer bytes available than the encoding needs.
    """

    def __init__(self, message: str, kind: str = "unknown"):
        super().__init__(message)
        self.kind = kind


def instruction_length(first_parcel: int) -> int:
    """Return the byte length implied by the low bits of a 16-bit parcel.

    Raises :class:`IllegalEncodingError` for the reserved >=48-bit prefix.
    """
    if first_parcel & 0b11 != 0b11:
        return 2
    if first_parcel & 0b11111 == 0b11111:
        raise IllegalEncodingError(
            f"reserved long-encoding prefix in parcel {first_parcel:#06x}",
            kind="long-prefix",
        )
    return 4


# -- inverse tables built from the encoder's forward tables ----------------

_OP_INV = {v: k for k, v in _OP_TABLE.items()}
_OP32_INV = {v: k for k, v in _OP32_TABLE.items()}
_OPIMM_INV = {v: k for k, v in _OPIMM_TABLE.items()}
_LOAD_INV = {v: k for k, v in _LOAD_TABLE.items()}
_STORE_INV = {v: k for k, v in _STORE_TABLE.items()}
_BRANCH_INV = {v: k for k, v in _BRANCH_TABLE.items()}

_VARITH_INV = {
    (op.V_ADD, op.OPIVV): "vadd.vv",
    (op.V_ADD, op.OPIVX): "vadd.vx",
    (op.V_ADD, op.OPIVI): "vadd.vi",
    (op.V_SUB, op.OPIVV): "vsub.vv",
    (op.V_SUB, op.OPIVX): "vsub.vx",
    (op.V_MIN, op.OPIVV): "vmin.vv",
    (op.V_MINU, op.OPIVV): "vminu.vv",
    (op.V_MAX, op.OPIVV): "vmax.vv",
    (op.V_MAXU, op.OPIVV): "vmaxu.vv",
    (op.V_AND, op.OPIVV): "vand.vv",
    (op.V_OR, op.OPIVV): "vor.vv",
    (op.V_XOR, op.OPIVV): "vxor.vv",
    (op.V_SLL, op.OPIVV): "vsll.vv",
    (op.V_SLL, op.OPIVX): "vsll.vx",
    (op.V_SRL, op.OPIVV): "vsrl.vv",
    (op.V_SRL, op.OPIVX): "vsrl.vx",
    (op.V_SRA, op.OPIVV): "vsra.vv",
    (op.V_SRA, op.OPIVX): "vsra.vx",
    (op.V_MUL, op.OPMVV): "vmul.vv",
    (op.V_MUL, op.OPMVX): "vmul.vx",
    (op.V_MACC, op.OPMVV): "vmacc.vv",
    (op.V_MV, op.OPIVX): "vmv.v.x",
    (op.V_MV, op.OPIVI): "vmv.v.i",
    (op.V_WXUNARY, op.OPMVV): "vmv.x.s",
    (op.V_ADD, op.OPMVV): "vredsum.vs",
}

_VWIDTH_INV = {op.VWIDTH_32: "32", op.VWIDTH_64: "64"}

_MULDIV_MNEMONICS = frozenset(
    {"mul", "mulh", "mulhsu", "mulhu", "div", "divu", "rem", "remu",
     "mulw", "divw", "divuw", "remw", "remuw"}
)
_ZBA_MNEMONICS = frozenset({"sh1add", "sh2add", "sh3add"})


def _ext_for(mnemonic: str) -> Extension:
    if mnemonic in _MULDIV_MNEMONICS:
        return Extension.M
    if mnemonic in _ZBA_MNEMONICS:
        return Extension.ZBA
    return Extension.I


def _decode32(word: int) -> Instruction:
    """Decode a 32-bit instruction word."""
    opcode = word & 0x7F
    rd = bits(word, 11, 7)
    funct3 = bits(word, 14, 12)
    rs1 = bits(word, 19, 15)
    rs2 = bits(word, 24, 20)
    funct7 = bits(word, 31, 25)

    if opcode == op.LUI:
        return Instruction("lui", rd=rd, imm=bits(word, 31, 12), encoding=word)
    if opcode == op.AUIPC:
        return Instruction("auipc", rd=rd, imm=bits(word, 31, 12), encoding=word)
    if opcode == op.JAL:
        imm = (
            (bit(word, 31) << 20) | (bits(word, 19, 12) << 12)
            | (bit(word, 20) << 11) | (bits(word, 30, 21) << 1)
        )
        return Instruction("jal", rd=rd, imm=sign_extend(imm, 21), encoding=word)
    if opcode == op.JALR and funct3 == 0:
        return Instruction("jalr", rd=rd, rs1=rs1, imm=sign_extend(bits(word, 31, 20), 12), encoding=word)
    if opcode == op.BRANCH:
        if funct3 not in _BRANCH_INV:
            raise IllegalEncodingError(f"bad branch funct3 {funct3:#b}")
        imm = (
            (bit(word, 31) << 12) | (bit(word, 7) << 11)
            | (bits(word, 30, 25) << 5) | (bits(word, 11, 8) << 1)
        )
        return Instruction(_BRANCH_INV[funct3], rs1=rs1, rs2=rs2, imm=sign_extend(imm, 13), encoding=word)
    if opcode == op.LOAD:
        if funct3 not in _LOAD_INV:
            raise IllegalEncodingError(f"bad load funct3 {funct3:#b}")
        return Instruction(_LOAD_INV[funct3], rd=rd, rs1=rs1, imm=sign_extend(bits(word, 31, 20), 12), encoding=word)
    if opcode == op.STORE:
        if funct3 not in _STORE_INV:
            raise IllegalEncodingError(f"bad store funct3 {funct3:#b}")
        imm = (bits(word, 31, 25) << 5) | bits(word, 11, 7)
        return Instruction(_STORE_INV[funct3], rs1=rs1, rs2=rs2, imm=sign_extend(imm, 12), encoding=word)
    if opcode == op.OP_IMM:
        if funct3 == op.F3_SLL:
            if bits(word, 31, 26) != 0:
                raise IllegalEncodingError("bad slli funct6")
            return Instruction("slli", rd=rd, rs1=rs1, imm=bits(word, 25, 20), encoding=word)
        if funct3 == op.F3_SRL_SRA:
            f6 = bits(word, 31, 26)
            shamt = bits(word, 25, 20)
            if f6 == 0:
                return Instruction("srli", rd=rd, rs1=rs1, imm=shamt, encoding=word)
            if f6 == 0b010000:
                return Instruction("srai", rd=rd, rs1=rs1, imm=shamt, encoding=word)
            raise IllegalEncodingError("bad shift-right funct6")
        mnem = _OPIMM_INV[funct3]
        return Instruction(mnem, rd=rd, rs1=rs1, imm=sign_extend(bits(word, 31, 20), 12), encoding=word)
    if opcode == op.OP_IMM_32:
        shamt = bits(word, 24, 20)
        if funct3 == op.F3_ADD_SUB:
            return Instruction("addiw", rd=rd, rs1=rs1, imm=sign_extend(bits(word, 31, 20), 12), encoding=word)
        if funct3 == op.F3_SLL and funct7 == 0:
            return Instruction("slliw", rd=rd, rs1=rs1, imm=shamt, encoding=word)
        if funct3 == op.F3_SRL_SRA and funct7 == 0:
            return Instruction("srliw", rd=rd, rs1=rs1, imm=shamt, encoding=word)
        if funct3 == op.F3_SRL_SRA and funct7 == op.F7_SUB_SRA:
            return Instruction("sraiw", rd=rd, rs1=rs1, imm=shamt, encoding=word)
        raise IllegalEncodingError("bad OP-IMM-32 encoding")
    if opcode == op.OP:
        key = (funct3, funct7)
        if key not in _OP_INV:
            raise IllegalEncodingError(f"bad OP funct3/funct7 {funct3:#b}/{funct7:#b}")
        mnem = _OP_INV[key]
        return Instruction(mnem, rd=rd, rs1=rs1, rs2=rs2, encoding=word, extension=_ext_for(mnem))
    if opcode == op.OP_32:
        key = (funct3, funct7)
        if key not in _OP32_INV:
            raise IllegalEncodingError(f"bad OP-32 funct3/funct7 {funct3:#b}/{funct7:#b}")
        mnem = _OP32_INV[key]
        return Instruction(mnem, rd=rd, rs1=rs1, rs2=rs2, encoding=word, extension=_ext_for(mnem))
    if opcode == op.SYSTEM and funct3 == 0:
        imm12 = bits(word, 31, 20)
        if imm12 == 0:
            return Instruction("ecall", encoding=word)
        if imm12 == 1:
            return Instruction("ebreak", encoding=word)
        raise IllegalEncodingError("bad SYSTEM encoding")
    if opcode == op.MISC_MEM:
        return Instruction("fence", encoding=word)
    # -- vector --------------------------------------------------------
    if opcode == op.OP_V:
        if funct3 == op.OPCFG:
            if bit(word, 31) != 0:
                raise IllegalEncodingError("only vsetvli is implemented")
            return Instruction(
                "vsetvli", rd=rd, rs1=rs1, imm=bits(word, 30, 20),
                encoding=word, extension=Extension.V,
            )
        funct6 = bits(word, 31, 26)
        vm = bit(word, 25)
        key = (funct6, funct3)
        if key not in _VARITH_INV:
            raise IllegalEncodingError(f"unimplemented OP-V funct6/cat {funct6:#b}/{funct3:#b}")
        mnem = _VARITH_INV[key]
        if mnem == "vmv.x.s":
            if rs1 != 0:
                raise IllegalEncodingError("unimplemented VWXUNARY0 variant")
            return Instruction("vmv.x.s", rd=rd, vs2=rs2, vm=vm, encoding=word, extension=Extension.V)
        instr = Instruction(mnem, vd=rd, vs2=rs2, vm=vm, encoding=word, extension=Extension.V)
        if funct3 in (op.OPIVV, op.OPMVV):
            instr.vs1 = rs1
        elif funct3 == op.OPIVI:
            instr.imm = sign_extend(rs1, 5)
        else:
            instr.rs1 = rs1
        return instr
    if opcode in (op.LOAD_FP, op.STORE_FP):
        if bits(word, 28, 26) != 0 or bits(word, 31, 29) != 0:
            raise IllegalEncodingError("only unit-stride vector memory ops are implemented")
        if funct3 not in _VWIDTH_INV:
            raise IllegalEncodingError(f"unimplemented vector element width {funct3:#b}")
        if rs2 != 0:
            raise IllegalEncodingError("bad lumop/sumop")
        width = _VWIDTH_INV[funct3]
        vm = bit(word, 25)
        if opcode == op.LOAD_FP:
            return Instruction(f"vle{width}.v", vd=rd, rs1=rs1, vm=vm, encoding=word, extension=Extension.V)
        return Instruction(f"vse{width}.v", vd=rd, rs1=rs1, vm=vm, encoding=word, extension=Extension.V)
    raise IllegalEncodingError(f"unknown major opcode {opcode:#09b}")


def _decode_c(parcel: int) -> Instruction:
    """Decode a 16-bit compressed parcel."""
    if parcel == 0:
        raise IllegalEncodingError("all-zero parcel is defined illegal", kind="reserved-compressed")
    quadrant = parcel & 0b11
    funct3 = bits(parcel, 15, 13)
    ext = Extension.C

    if quadrant == op.C_Q0:
        rs1 = rvc_decode_reg(bits(parcel, 9, 7))
        rdrs2 = rvc_decode_reg(bits(parcel, 4, 2))
        if funct3 == 0b000:
            imm = (
                (bits(parcel, 12, 11) << 4) | (bits(parcel, 10, 7) << 6)
                | (bit(parcel, 6) << 2) | (bit(parcel, 5) << 3)
            )
            if imm == 0:
                raise IllegalEncodingError("c.addi4spn nzuimm=0 reserved", kind="reserved-compressed")
            return Instruction("c.addi4spn", rd=rdrs2, rs1=2, imm=imm, length=2, encoding=parcel, extension=ext)
        if funct3 in (0b010, 0b011, 0b110, 0b111):
            is_word = funct3 in (0b010, 0b110)
            if is_word:
                imm = (bits(parcel, 12, 10) << 3) | (bit(parcel, 6) << 2) | (bit(parcel, 5) << 6)
            else:
                imm = (bits(parcel, 12, 10) << 3) | (bits(parcel, 6, 5) << 6)
            mnem = {0b010: "c.lw", 0b011: "c.ld", 0b110: "c.sw", 0b111: "c.sd"}[funct3]
            if funct3 in (0b010, 0b011):
                return Instruction(mnem, rd=rdrs2, rs1=rs1, imm=imm, length=2, encoding=parcel, extension=ext)
            return Instruction(mnem, rs1=rs1, rs2=rdrs2, imm=imm, length=2, encoding=parcel, extension=ext)
        raise IllegalEncodingError(f"unimplemented Q0 funct3 {funct3:#b}", kind="reserved-compressed")

    if quadrant == op.C_Q1:
        rd = bits(parcel, 11, 7)
        imm6 = sign_extend((bit(parcel, 12) << 5) | bits(parcel, 6, 2), 6)
        if funct3 == 0b000:
            if rd == 0:
                return Instruction("c.nop", length=2, encoding=parcel, extension=ext)
            return Instruction("c.addi", rd=rd, rs1=rd, imm=imm6, length=2, encoding=parcel, extension=ext)
        if funct3 == 0b001:
            if rd == 0:
                # This is the reserved encoding SMILE's jalr parcel maps to.
                raise IllegalEncodingError("c.addiw rd=x0 reserved", kind="reserved-compressed")
            return Instruction("c.addiw", rd=rd, rs1=rd, imm=imm6, length=2, encoding=parcel, extension=ext)
        if funct3 == 0b010:
            if rd == 0:
                raise IllegalEncodingError("c.li rd=x0 is a hint", kind="reserved-compressed")
            return Instruction("c.li", rd=rd, imm=imm6, length=2, encoding=parcel, extension=ext)
        if funct3 == 0b011:
            if imm6 == 0:
                raise IllegalEncodingError("c.lui/addi16sp imm=0 reserved", kind="reserved-compressed")
            if rd == 2:
                imm = sign_extend(
                    (bit(parcel, 12) << 9) | (bit(parcel, 6) << 4) | (bit(parcel, 5) << 6)
                    | (bits(parcel, 4, 3) << 7) | (bit(parcel, 2) << 5),
                    10,
                )
                return Instruction("c.addi16sp", rd=2, rs1=2, imm=imm, length=2, encoding=parcel, extension=ext)
            if rd == 0:
                raise IllegalEncodingError("c.lui rd=x0 is a hint", kind="reserved-compressed")
            return Instruction("c.lui", rd=rd, imm=imm6, length=2, encoding=parcel, extension=ext)
        if funct3 == 0b100:
            funct2 = bits(parcel, 11, 10)
            rdc = rvc_decode_reg(bits(parcel, 9, 7))
            if funct2 == 0b00 or funct2 == 0b01:
                shamt = (bit(parcel, 12) << 5) | bits(parcel, 6, 2)
                if shamt == 0:
                    raise IllegalEncodingError("c.srli/c.srai shamt=0 reserved", kind="reserved-compressed")
                mnem = "c.srli" if funct2 == 0b00 else "c.srai"
                return Instruction(mnem, rd=rdc, rs1=rdc, imm=shamt, length=2, encoding=parcel, extension=ext)
            if funct2 == 0b10:
                return Instruction("c.andi", rd=rdc, rs1=rdc, imm=imm6, length=2, encoding=parcel, extension=ext)
            rs2c = rvc_decode_reg(bits(parcel, 4, 2))
            sel = bits(parcel, 6, 5)
            if bit(parcel, 12) == 0:
                mnem = ("c.sub", "c.xor", "c.or", "c.and")[sel]
            else:
                if sel == 0b00:
                    mnem = "c.subw"
                elif sel == 0b01:
                    mnem = "c.addw"
                else:
                    raise IllegalEncodingError("reserved Q1 misc-alu", kind="reserved-compressed")
            return Instruction(mnem, rd=rdc, rs1=rdc, rs2=rs2c, length=2, encoding=parcel, extension=ext)
        if funct3 == 0b101:
            imm = sign_extend(
                (bit(parcel, 12) << 11) | (bit(parcel, 11) << 4) | (bits(parcel, 10, 9) << 8)
                | (bit(parcel, 8) << 10) | (bit(parcel, 7) << 6) | (bit(parcel, 6) << 7)
                | (bits(parcel, 5, 3) << 1) | (bit(parcel, 2) << 5),
                12,
            )
            return Instruction("c.j", imm=imm, length=2, encoding=parcel, extension=ext)
        # funct3 110/111: c.beqz / c.bnez
        rs1c = rvc_decode_reg(bits(parcel, 9, 7))
        imm = sign_extend(
            (bit(parcel, 12) << 8) | (bits(parcel, 11, 10) << 3) | (bits(parcel, 6, 5) << 6)
            | (bits(parcel, 4, 3) << 1) | (bit(parcel, 2) << 5),
            9,
        )
        mnem = "c.beqz" if funct3 == 0b110 else "c.bnez"
        return Instruction(mnem, rs1=rs1c, imm=imm, length=2, encoding=parcel, extension=ext)

    # quadrant 2
    rd = bits(parcel, 11, 7)
    if funct3 == 0b000:
        shamt = (bit(parcel, 12) << 5) | bits(parcel, 6, 2)
        if rd == 0 or shamt == 0:
            raise IllegalEncodingError("c.slli rd=0/shamt=0 hint or reserved", kind="reserved-compressed")
        return Instruction("c.slli", rd=rd, rs1=rd, imm=shamt, length=2, encoding=parcel, extension=ext)
    if funct3 == 0b010:
        if rd == 0:
            raise IllegalEncodingError("c.lwsp rd=x0 reserved", kind="reserved-compressed")
        imm = (bit(parcel, 12) << 5) | (bits(parcel, 6, 4) << 2) | (bits(parcel, 3, 2) << 6)
        return Instruction("c.lwsp", rd=rd, rs1=2, imm=imm, length=2, encoding=parcel, extension=ext)
    if funct3 == 0b011:
        if rd == 0:
            raise IllegalEncodingError("c.ldsp rd=x0 reserved", kind="reserved-compressed")
        imm = (bit(parcel, 12) << 5) | (bits(parcel, 6, 5) << 3) | (bits(parcel, 4, 2) << 6)
        return Instruction("c.ldsp", rd=rd, rs1=2, imm=imm, length=2, encoding=parcel, extension=ext)
    if funct3 == 0b100:
        rs2 = bits(parcel, 6, 2)
        if bit(parcel, 12) == 0:
            if rs2 == 0:
                if rd == 0:
                    raise IllegalEncodingError("c.jr rs1=x0 reserved", kind="reserved-compressed")
                return Instruction("c.jr", rs1=rd, length=2, encoding=parcel, extension=ext)
            if rd == 0:
                raise IllegalEncodingError("c.mv rd=x0 is a hint", kind="reserved-compressed")
            return Instruction("c.mv", rd=rd, rs2=rs2, length=2, encoding=parcel, extension=ext)
        if rs2 == 0:
            if rd == 0:
                return Instruction("c.ebreak", length=2, encoding=parcel, extension=ext)
            return Instruction("c.jalr", rd=1, rs1=rd, length=2, encoding=parcel, extension=ext)
        if rd == 0:
            raise IllegalEncodingError("c.add rd=x0 is a hint", kind="reserved-compressed")
        return Instruction("c.add", rd=rd, rs1=rd, rs2=rs2, length=2, encoding=parcel, extension=ext)
    if funct3 == 0b110:
        rs2 = bits(parcel, 6, 2)
        imm = (bits(parcel, 12, 9) << 2) | (bits(parcel, 8, 7) << 6)
        return Instruction("c.swsp", rs1=2, rs2=rs2, imm=imm, length=2, encoding=parcel, extension=ext)
    if funct3 == 0b111:
        rs2 = bits(parcel, 6, 2)
        imm = (bits(parcel, 12, 10) << 3) | (bits(parcel, 9, 7) << 6)
        return Instruction("c.sdsp", rs1=2, rs2=rs2, imm=imm, length=2, encoding=parcel, extension=ext)
    raise IllegalEncodingError(f"unimplemented Q2 funct3 {funct3:#b}", kind="reserved-compressed")


@functools.lru_cache(maxsize=16384)
def _decoded_fields(word: int) -> tuple:
    """The decoded fields of one 16-bit parcel or 32-bit word.

    The two never collide: a parcel's low two bits are not ``11`` and a
    32-bit word's are.  An illegal encoding raises, and ``lru_cache``
    stores no entry for a call that raised.
    """
    instr = _decode32(word) if word & 0b11 == 0b11 else _decode_c(word)
    return encoding_fields(instr)


def decode(data: bytes | bytearray | memoryview, offset: int = 0, addr: int | None = None) -> Instruction:
    """Decode one instruction starting at *offset* in *data*.

    ``addr`` (if given) is recorded on the returned instruction so
    pc-relative targets can be resolved.  Raises
    :class:`IllegalEncodingError` for truncated input, reserved
    encodings, and encodings outside the implemented subset.

    Decoding is memoized per instruction word: a binary repeats a few
    thousand distinct words across hundreds of thousands of decodes
    (scan, static checks, every simulated core).  Each call still
    returns a fresh ``Instruction``, because callers mutate what they
    get back; illegal encodings are never cached and raise every time.
    """
    if offset + 2 > len(data):
        raise IllegalEncodingError("truncated instruction stream", kind="truncated")
    word = u16(data, offset)
    if instruction_length(word) == 4:
        if offset + 4 > len(data):
            raise IllegalEncodingError("truncated 32-bit instruction", kind="truncated")
        word = u32(data, offset)
    return Instruction(*_decoded_fields(word), addr)
