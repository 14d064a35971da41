"""A two-pass textual assembler for the implemented RISC-V subset.

The workload builders (:mod:`repro.workloads`) and many tests express
programs as assembly text; this module turns that text into
``Instruction`` lists and machine bytes with label resolution.  The
rewriter never emits text: it builds its code from ``Instruction``
objects with :mod:`repro.isa.block`.

Supported syntax::

    loop:                       # labels
        addi a0, a0, -1         # register/immediate operands
        lw   t0, 8(a1)          # memory operands
        beq  a0, zero, done     # branch to label
        vsetvli t0, a1, e64     # vector config (e32/e64)
        vle64.v v1, (a0)        # unit-stride vector load
        .align 4                # directives: .align/.byte/.word/.dword/.space
    done:
        ret

Pseudo-instructions: ``nop``, ``mv``, ``li``, ``la``, ``not``, ``neg``,
``seqz``, ``snez``, ``beqz``, ``bnez``, ``j``, ``jr``, ``call``, ``ret``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.isa.block import expand_li
from repro.isa.encoding import encode, encode_vtype
from repro.isa.fields import split_hi_lo
from repro.isa.instructions import Instruction
from repro.isa.registers import NAME_TO_REG, NAME_TO_VREG, Reg


class AssemblyError(ValueError):
    """Raised for syntax errors, unknown mnemonics, or bad operands."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


_MEM_RE = re.compile(r"^(?P<off>[^()]*)\((?P<base>[a-z0-9]+)\)$")

#: Mnemonics taking "rd, rs1, rs2".
_RRR = frozenset(
    {"add", "sub", "sll", "slt", "sltu", "xor", "srl", "sra", "or", "and",
     "addw", "subw", "sllw", "srlw", "sraw",
     "mul", "mulh", "mulhsu", "mulhu", "div", "divu", "rem", "remu",
     "mulw", "divw", "divuw", "remw", "remuw",
     "sh1add", "sh2add", "sh3add"}
)

#: Mnemonics taking "rd, rs1, imm".
_RRI = frozenset(
    {"addi", "slti", "sltiu", "xori", "ori", "andi", "slli", "srli", "srai",
     "addiw", "slliw", "srliw", "sraiw"}
)

_LOADS = frozenset({"lb", "lh", "lw", "ld", "lbu", "lhu", "lwu"})
_STORES = frozenset({"sb", "sh", "sw", "sd"})
_BRANCHES = frozenset({"beq", "bne", "blt", "bge", "bltu", "bgeu"})
_VVV = frozenset({
    "vadd.vv", "vsub.vv", "vmul.vv", "vmacc.vv", "vand.vv", "vor.vv",
    "vxor.vv", "vmin.vv", "vminu.vv", "vmax.vv", "vmaxu.vv",
    "vsll.vv", "vsrl.vv", "vsra.vv", "vredsum.vs",
})
_VVX = frozenset({"vadd.vx", "vsub.vx", "vmul.vx", "vsll.vx", "vsrl.vx", "vsra.vx"})

_C_RRI = frozenset({"c.addi", "c.addiw", "c.slli", "c.srli", "c.srai", "c.andi"})
_C_RR = frozenset({"c.sub", "c.xor", "c.or", "c.and", "c.subw", "c.addw", "c.mv", "c.add"})
_C_MEM = frozenset({"c.lw", "c.ld", "c.sw", "c.sd", "c.lwsp", "c.ldsp", "c.swsp", "c.sdsp"})


def _parse_int(text: str, line_no: int) -> int:
    text = text.strip()
    try:
        return int(text, 0)
    except ValueError as exc:
        raise AssemblyError(f"bad integer {text!r}", line_no) from exc


def _reg(text: str, line_no: int) -> int:
    try:
        return int(NAME_TO_REG[text.strip().lower()])
    except KeyError as exc:
        raise AssemblyError(f"unknown register {text!r}", line_no) from exc


def _vreg(text: str, line_no: int) -> int:
    try:
        return int(NAME_TO_VREG[text.strip().lower()])
    except KeyError as exc:
        raise AssemblyError(f"unknown vector register {text!r}", line_no) from exc


@dataclass
class _Item:
    """One assembled item before label resolution."""

    kind: str  # "instr" | "bytes" | "align"
    line_no: int
    size: int
    mnemonic: str = ""
    operands: list[str] = field(default_factory=list)
    data: bytes = b""
    align: int = 0
    addr: int = 0


@dataclass
class AssembledProgram:
    """Result of assembling a unit: bytes, instructions, labels."""

    code: bytes
    instructions: list[Instruction]
    labels: dict[str, int]
    base: int

    def label(self, name: str) -> int:
        """Absolute address of label *name*."""
        return self.labels[name]


class Assembler:
    """Two-pass assembler; construct once, call :meth:`assemble`."""

    def __init__(self, base: int = 0):
        self.base = base

    # -- pass 1 ----------------------------------------------------------

    def _pseudo_size(self, mnem: str, ops: list[str], line_no: int) -> int:
        """Size in bytes of a pseudo-instruction expansion."""
        if mnem == "li":
            imm = _parse_int(ops[1], line_no)
            return 4 * len(expand_li(0, imm))
        if mnem == "la":
            return 8
        return 4

    def _scan(self, source: str) -> tuple[list[_Item], dict[str, int]]:
        items: list[_Item] = []
        labels: dict[str, int] = {}
        pc = self.base
        for line_no, raw in enumerate(source.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            while True:
                m = re.match(r"^([A-Za-z_.$][\w.$]*):\s*(.*)$", line)
                if not m:
                    break
                label, line = m.group(1), m.group(2).strip()
                if label in labels:
                    raise AssemblyError(f"duplicate label {label!r}", line_no)
                labels[label] = pc
                if not line:
                    break
            if not line:
                continue
            parts = line.split(None, 1)
            mnem = parts[0].lower()
            ops = [o.strip() for o in parts[1].split(",")] if len(parts) > 1 else []
            if mnem.startswith("."):
                item = self._directive(mnem, ops, pc, line_no)
            else:
                size = 2 if mnem.startswith("c.") else self._pseudo_size(mnem, ops, line_no)
                item = _Item("instr", line_no, size, mnemonic=mnem, operands=ops)
            item.addr = pc
            pc += item.size
            items.append(item)
        return items, labels

    def _directive(self, mnem: str, ops: list[str], pc: int, line_no: int) -> _Item:
        if mnem == ".align":
            align = 1 << _parse_int(ops[0], line_no)
            pad = (-pc) % align
            return _Item("bytes", line_no, pad, data=bytes(pad))
        if mnem == ".space":
            n = _parse_int(ops[0], line_no)
            return _Item("bytes", line_no, n, data=bytes(n))
        if mnem == ".byte":
            data = bytes(_parse_int(o, line_no) & 0xFF for o in ops)
            return _Item("bytes", line_no, len(data), data=data)
        if mnem == ".half":
            data = b"".join((_parse_int(o, line_no) & 0xFFFF).to_bytes(2, "little") for o in ops)
            return _Item("bytes", line_no, len(data), data=data)
        if mnem == ".word":
            data = b"".join((_parse_int(o, line_no) & 0xFFFFFFFF).to_bytes(4, "little") for o in ops)
            return _Item("bytes", line_no, len(data), data=data)
        if mnem == ".dword":
            data = b"".join((_parse_int(o, line_no) & (2**64 - 1)).to_bytes(8, "little") for o in ops)
            return _Item("bytes", line_no, len(data), data=data)
        raise AssemblyError(f"unknown directive {mnem!r}", line_no)

    # -- pass 2 ----------------------------------------------------------

    def _imm_or_label(self, text: str, labels: dict[str, int], pc: int, line_no: int, *, relative: bool) -> int:
        text = text.strip()
        if text in labels:
            return labels[text] - pc if relative else labels[text]
        return _parse_int(text, line_no)

    def _expand(self, item: _Item, labels: dict[str, int]) -> list[Instruction]:
        mnem, ops, pc, ln = item.mnemonic, item.operands, item.addr, item.line_no
        out: list[Instruction] = []

        def imm_rel(text: str) -> int:
            return self._imm_or_label(text, labels, pc, ln, relative=True)

        def imm_abs(text: str) -> int:
            return self._imm_or_label(text, labels, pc, ln, relative=False)

        # pseudo-instructions -------------------------------------------
        if mnem == "nop":
            return [Instruction("addi", rd=0, rs1=0, imm=0)]
        if mnem == "mv":
            return [Instruction("addi", rd=_reg(ops[0], ln), rs1=_reg(ops[1], ln), imm=0)]
        if mnem == "not":
            return [Instruction("xori", rd=_reg(ops[0], ln), rs1=_reg(ops[1], ln), imm=-1)]
        if mnem == "neg":
            return [Instruction("sub", rd=_reg(ops[0], ln), rs1=0, rs2=_reg(ops[1], ln))]
        if mnem == "seqz":
            return [Instruction("sltiu", rd=_reg(ops[0], ln), rs1=_reg(ops[1], ln), imm=1)]
        if mnem == "snez":
            return [Instruction("sltu", rd=_reg(ops[0], ln), rs1=0, rs2=_reg(ops[1], ln))]
        if mnem == "beqz":
            return [Instruction("beq", rs1=_reg(ops[0], ln), rs2=0, imm=imm_rel(ops[1]))]
        if mnem == "bnez":
            return [Instruction("bne", rs1=_reg(ops[0], ln), rs2=0, imm=imm_rel(ops[1]))]
        if mnem == "j":
            return [Instruction("jal", rd=0, imm=imm_rel(ops[0]))]
        if mnem == "jr":
            return [Instruction("jalr", rd=0, rs1=_reg(ops[0], ln), imm=0)]
        if mnem == "call":
            return [Instruction("jal", rd=int(Reg.RA), imm=imm_rel(ops[0]))]
        if mnem == "ret":
            return [Instruction("jalr", rd=0, rs1=int(Reg.RA), imm=0)]
        if mnem == "li":
            rd = _reg(ops[0], ln)
            value = _parse_int(ops[1], ln)
            return expand_li(rd, value)
        if mnem == "la":
            rd = _reg(ops[0], ln)
            offset = imm_abs(ops[1]) - pc
            hi, lo = split_hi_lo(offset)
            return [
                Instruction("auipc", rd=rd, imm=hi),
                Instruction("addi", rd=rd, rs1=rd, imm=lo),
            ]

        # real instructions ---------------------------------------------
        if mnem in _RRR:
            return [Instruction(mnem, rd=_reg(ops[0], ln), rs1=_reg(ops[1], ln), rs2=_reg(ops[2], ln))]
        if mnem in _RRI:
            return [Instruction(mnem, rd=_reg(ops[0], ln), rs1=_reg(ops[1], ln), imm=_parse_int(ops[2], ln))]
        if mnem in _LOADS or mnem in ("c.lw", "c.ld", "c.lwsp", "c.ldsp"):
            rd = _reg(ops[0], ln)
            off, base = _split_mem(ops[1], ln)
            return [Instruction(mnem, rd=rd, rs1=base, imm=off, length=2 if mnem.startswith("c.") else 4)]
        if mnem in _STORES or mnem in ("c.sw", "c.sd", "c.swsp", "c.sdsp"):
            rs2 = _reg(ops[0], ln)
            off, base = _split_mem(ops[1], ln)
            return [Instruction(mnem, rs1=base, rs2=rs2, imm=off, length=2 if mnem.startswith("c.") else 4)]
        if mnem in _BRANCHES:
            return [Instruction(mnem, rs1=_reg(ops[0], ln), rs2=_reg(ops[1], ln), imm=imm_rel(ops[2]))]
        if mnem == "lui":
            return [Instruction("lui", rd=_reg(ops[0], ln), imm=_parse_int(ops[1], ln))]
        if mnem == "auipc":
            return [Instruction("auipc", rd=_reg(ops[0], ln), imm=_parse_int(ops[1], ln))]
        if mnem == "jal":
            if len(ops) == 1:
                return [Instruction("jal", rd=int(Reg.RA), imm=imm_rel(ops[0]))]
            return [Instruction("jal", rd=_reg(ops[0], ln), imm=imm_rel(ops[1]))]
        if mnem == "jalr":
            if len(ops) == 1:
                return [Instruction("jalr", rd=int(Reg.RA), rs1=_reg(ops[0], ln), imm=0)]
            off, base = _split_mem(ops[1], ln)
            return [Instruction("jalr", rd=_reg(ops[0], ln), rs1=base, imm=off)]
        if mnem in ("ecall", "ebreak", "fence"):
            return [Instruction(mnem)]
        # compressed ------------------------------------------------------
        if mnem == "c.nop":
            return [Instruction("c.nop", length=2)]
        if mnem == "c.ebreak":
            return [Instruction("c.ebreak", length=2)]
        if mnem == "c.li" or mnem == "c.lui":
            return [Instruction(mnem, rd=_reg(ops[0], ln), imm=_parse_int(ops[1], ln), length=2)]
        if mnem in _C_RRI:
            rd = _reg(ops[0], ln)
            return [Instruction(mnem, rd=rd, rs1=rd, imm=_parse_int(ops[-1], ln), length=2)]
        if mnem in _C_RR:
            rd = _reg(ops[0], ln)
            # Accept both the two-operand alias (c.add rd, rs2) and the
            # canonical three-operand disassembly (c.add rd, rd, rs2).
            rs2 = _reg(ops[-1], ln)
            rs1 = None if mnem == "c.mv" else rd
            if len(ops) == 3 and mnem != "c.mv" and _reg(ops[1], ln) != rd:
                raise AssemblyError(f"{mnem} requires rd == rs1", ln)
            return [Instruction(mnem, rd=rd, rs1=rs1, rs2=rs2, length=2)]
        if mnem == "c.addi4spn":
            return [Instruction(mnem, rd=_reg(ops[0], ln), rs1=2, imm=_parse_int(ops[1], ln), length=2)]
        if mnem == "c.j":
            return [Instruction("c.j", imm=imm_rel(ops[0]), length=2)]
        if mnem in ("c.beqz", "c.bnez"):
            return [Instruction(mnem, rs1=_reg(ops[0], ln), imm=imm_rel(ops[1]), length=2)]
        if mnem == "c.jr":
            return [Instruction("c.jr", rs1=_reg(ops[0], ln), length=2)]
        if mnem == "c.jalr":
            return [Instruction("c.jalr", rd=1, rs1=_reg(ops[0], ln), length=2)]
        # vector ----------------------------------------------------------
        if mnem == "vsetvli":
            sew = {"e8": 8, "e16": 16, "e32": 32, "e64": 64}.get(ops[2].lower())
            if sew is not None:
                vtype = encode_vtype(sew)
            else:
                vtype = _parse_int(ops[2], ln)  # raw vtype immediate
            return [Instruction("vsetvli", rd=_reg(ops[0], ln), rs1=_reg(ops[1], ln), imm=vtype)]
        if mnem in _VVV:
            return [Instruction(mnem, vd=_vreg(ops[0], ln), vs2=_vreg(ops[1], ln), vs1=_vreg(ops[2], ln))]
        if mnem in _VVX:
            return [Instruction(mnem, vd=_vreg(ops[0], ln), vs2=_vreg(ops[1], ln), rs1=_reg(ops[2], ln))]
        if mnem == "vmv.x.s":
            return [Instruction(mnem, rd=_reg(ops[0], ln), vs2=_vreg(ops[1], ln))]
        if mnem in ("vadd.vi", "vmv.v.i"):
            if mnem == "vmv.v.i":
                return [Instruction(mnem, vd=_vreg(ops[0], ln), vs2=0, imm=_parse_int(ops[1], ln))]
            return [Instruction(mnem, vd=_vreg(ops[0], ln), vs2=_vreg(ops[1], ln), imm=_parse_int(ops[2], ln))]
        if mnem == "vmv.v.x":
            return [Instruction(mnem, vd=_vreg(ops[0], ln), vs2=0, rs1=_reg(ops[1], ln))]
        if mnem in ("vle32.v", "vle64.v", "vse32.v", "vse64.v"):
            off, base = _split_mem(ops[1], ln)
            if off != 0:
                raise AssemblyError("vector memory ops take (reg) with no offset", ln)
            return [Instruction(mnem, vd=_vreg(ops[0], ln), rs1=base)]
        raise AssemblyError(f"unknown mnemonic {mnem!r}", ln)

    def assemble(self, source: str) -> AssembledProgram:
        """Assemble *source* text, returning code bytes + metadata."""
        items, labels = self._scan(source)
        code = bytearray()
        instructions: list[Instruction] = []
        for item in items:
            if item.kind == "bytes":
                code.extend(item.data)
                continue
            expanded = self._expand(item, labels)
            total = 0
            for instr in expanded:
                instr.addr = item.addr + total
                encoded = encode(instr)
                instr.encoding = int.from_bytes(encoded, "little")
                total += len(encoded)
                code.extend(encoded)
                instructions.append(instr)
            if total != item.size:
                raise AssemblyError(
                    f"{item.mnemonic}: pass-1 size {item.size} != pass-2 size {total}",
                    item.line_no,
                )
        return AssembledProgram(bytes(code), instructions, labels, self.base)


def _split_mem(text: str, line_no: int) -> tuple[int, int]:
    """Parse a memory operand ``off(base)`` into (offset, base register)."""
    m = _MEM_RE.match(text.strip())
    if not m:
        raise AssemblyError(f"bad memory operand {text!r}", line_no)
    off_text = m.group("off").strip()
    offset = _parse_int(off_text, line_no) if off_text else 0
    return offset, _reg(m.group("base"), line_no)


def assemble(source: str, base: int = 0) -> AssembledProgram:
    """Module-level convenience wrapper around :class:`Assembler`."""
    return Assembler(base=base).assemble(source)
