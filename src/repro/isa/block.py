"""Code blocks built from ``Instruction`` objects, encoded once.

Every piece of code the rewriter adds — a CHBP target block, a
trap-fallback block, a heal block, a relocated translation — is built as
a :class:`Block`: a list of instructions, labels, pc-relative branch and
``jal`` fixups, and ``.space`` slots.  Every label reference is
pc-relative, so :meth:`Block.encode` yields bytes that are valid at any
base: the caller sizes the block, places it and copies the bytes in one
step, with no assembly text in between.  Text exists only for humans
(:func:`repro.isa.disassembler.format_instruction`).

``li`` expansion lives here too; the textual assembler imports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Hashable

from repro.isa.encoding import encode
from repro.isa.fields import fits_signed
from repro.isa.instructions import ENCODING_FIELDS, Instruction, encoding_fields


class Label:
    """A position in a :class:`Block`, unique by identity."""

    __slots__ = ()


@dataclass(frozen=True)
class Encoded:
    """A block's base-independent bytes and the offset of each label."""

    code: bytes
    labels: dict[Hashable, int]


class Block:
    """Instructions, labels, fixups and slots, in layout order.

    Labels are any hashable key bound once per block: template-local
    :class:`Label` objects, or the original addresses a CHBP block maps
    its entries from.
    """

    __slots__ = ("items",)

    def __init__(self, *instrs: Instruction):
        #: Instruction | ("bind", key) | ("space", size) | ("fix", Instruction, key)
        self.items: list = list(instrs)

    # -- content ------------------------------------------------------------

    def emit(self, *instrs: Instruction) -> None:
        self.items.extend(instrs)

    def extend(self, other: "Block") -> None:
        self.items.extend(other.items)

    def bind(self, key: Hashable) -> None:
        """Bind *key* to the current position."""
        self.items.append(("bind", key))

    def space(self, size: int) -> None:
        """A zero-filled slot of *size* bytes (patched after placement)."""
        self.items.append(("space", size))

    def op(self, mnemonic: str, rd: int, rs1: int, rs2: int) -> None:
        self.items.append(Instruction(mnemonic, rd=rd, rs1=rs1, rs2=rs2))

    def opi(self, mnemonic: str, rd: int, rs1: int, imm: int) -> None:
        self.items.append(Instruction(mnemonic, rd=rd, rs1=rs1, imm=imm))

    def load(self, mnemonic: str, rd: int, offset: int, base: int) -> None:
        self.items.append(Instruction(mnemonic, rd=rd, rs1=base, imm=offset))

    def store(self, mnemonic: str, src: int, offset: int, base: int) -> None:
        self.items.append(Instruction(mnemonic, rs1=base, rs2=src, imm=offset))

    def mv(self, rd: int, rs: int) -> None:
        self.opi("addi", rd, rs, 0)

    def li(self, rd: int, value: int) -> None:
        self.items.extend(expand_li(rd, value))

    def branch(self, mnemonic: str, rs1: int, rs2: int, target: Hashable) -> None:
        self.items.append(("fix", Instruction(mnemonic, rs1=rs1, rs2=rs2), target))

    def beqz(self, rs: int, target: Hashable) -> None:
        self.branch("beq", rs, 0, target)

    def bnez(self, rs: int, target: Hashable) -> None:
        self.branch("bne", rs, 0, target)

    def j(self, target: Hashable) -> None:
        self.items.append(("fix", Instruction("jal", rd=0), target))

    # -- encoding -------------------------------------------------------------

    def encode(self) -> Encoded:
        """Resolve labels and encode every item once."""
        labels: dict[Hashable, int] = {}
        offset = 0
        for item in self.items:
            if type(item) is Instruction:
                offset += item.length
            elif item[0] == "bind":
                if item[1] in labels:
                    raise ValueError(f"label {item[1]!r} bound twice")
                labels[item[1]] = offset
            elif item[0] == "space":
                offset += item[1]
            else:
                offset += item[1].length
        code = bytearray()
        for item in self.items:
            if type(item) is Instruction:
                code += _encoded(encoding_fields(item))
            elif item[0] == "space":
                code += bytes(item[1])
            elif item[0] == "fix":
                fields = encoding_fields(item[1])
                imm = labels[item[2]] - len(code)
                code += _encoded(fields[:_IMM] + (imm,) + fields[_IMM + 1:])
        return Encoded(bytes(code), labels)


_IMM = ENCODING_FIELDS.index("imm")


@lru_cache(maxsize=16384)
def _encoded(fields: tuple) -> bytes:
    """``encode`` of the instruction with these fields.

    Rewritten code repeats a few thousand instruction shapes (template
    prologues, ``li`` sequences, translation bodies) across every block.
    """
    return encode(Instruction(*fields))


def expand_li(rd: int, value: int) -> list[Instruction]:
    """Expand ``li rd, value`` (any 64-bit constant) recursively.

    Mirrors the standard toolchain algorithm: peel the low 12 bits,
    materialize the (arithmetically shifted) remainder, then
    ``slli``/``addi`` the low part back in.
    """
    if fits_signed(value, 12):
        return [Instruction("addi", rd=rd, rs1=0, imm=value)]
    if fits_signed(value, 32):
        lo = value & 0xFFF
        if lo >= 0x800:
            lo -= 0x1000
        hi = ((value - lo) >> 12) & 0xFFFFF
        out = [Instruction("lui", rd=rd, imm=hi)]
        if lo:
            out.append(Instruction("addiw", rd=rd, rs1=rd, imm=lo))
        return out
    lo = value & 0xFFF
    if lo >= 0x800:
        lo -= 0x1000
    out = expand_li(rd, (value - lo) >> 12)
    out.append(Instruction("slli", rd=rd, rs1=rd, imm=12))
    if lo:
        out.append(Instruction("addi", rd=rd, rs1=rd, imm=lo))
    return out


# -- trap fallback ------------------------------------------------------------

_EBREAK = encode(Instruction("ebreak"))
_C_EBREAK = encode(Instruction("c.ebreak", length=2))


def trap_parcel(length: int) -> bytes:
    """The breakpoint that overwrites a *length*-byte source in place."""
    return _C_EBREAK if length == 2 else _EBREAK


@dataclass(frozen=True)
class TrapBlock:
    """A fallback block: a body followed by ``ebreak``, placed at ``addr``.

    The trap at the source jumps here; the closing ``ebreak`` resumes
    original code after the source.
    """

    addr: int
    code: bytes

    @classmethod
    def place(cls, body: Block, place: Callable[[int], int]) -> "TrapBlock":
        """Encode *body* plus ``ebreak`` once; *place* maps size -> address."""
        code = body.encode().code + _EBREAK
        return cls(place(len(code)), code)

    @property
    def ebreak_addr(self) -> int:
        return self.addr + len(self.code) - len(_EBREAK)

    def trap_entries(self, source: int, resume: int) -> tuple[tuple[int, int], ...]:
        """(trap addr, target) for the source trap and the closing ``ebreak``."""
        return (source, self.addr), (self.ebreak_addr, resume)
