"""The ``Instruction`` IR shared by assembler, decoder, rewriter and CPU.

An ``Instruction`` is a decoded, architecture-level view of one machine
instruction: mnemonic plus register/immediate operands, its byte length
(2 for compressed, 4 otherwise), its raw encoding, and the extension it
belongs to.  The rewriter manipulates lists of these; the CPU executes
them via a mnemonic-keyed dispatch table.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from operator import attrgetter
from typing import Optional

from repro.isa.extensions import Extension
from repro.isa.registers import reg_name, vreg_name

#: Mnemonics that unconditionally transfer control.
JUMP_MNEMONICS = frozenset({"jal", "jalr", "c.j", "c.jr", "c.jalr", "ret"})

#: Conditional branch mnemonics.
BRANCH_MNEMONICS = frozenset(
    {"beq", "bne", "blt", "bge", "bltu", "bgeu", "c.beqz", "c.bnez"}
)

#: Mnemonics that terminate a basic block.
TERMINATORS = JUMP_MNEMONICS | BRANCH_MNEMONICS | frozenset({"ecall", "ebreak", "c.ebreak"})


@dataclass(slots=True)
class Instruction:
    """One decoded instruction.

    Integer operands are register *numbers*; ``imm`` is a plain signed
    Python int.  Vector operands live in ``vd``/``vs1``/``vs2``; ``vm``
    is the RVV mask bit (1 = unmasked).  ``addr`` is filled in by the
    disassembler/scanner when the instruction came from a binary.
    """

    mnemonic: str
    rd: Optional[int] = None
    rs1: Optional[int] = None
    rs2: Optional[int] = None
    imm: Optional[int] = None
    vd: Optional[int] = None
    vs1: Optional[int] = None
    vs2: Optional[int] = None
    vm: int = 1
    length: int = 4
    encoding: Optional[int] = None
    extension: Extension = Extension.I
    addr: Optional[int] = None

    # -- classification ------------------------------------------------

    def is_jump(self) -> bool:
        """True for unconditional control transfers."""
        return self.mnemonic in JUMP_MNEMONICS

    def is_branch(self) -> bool:
        """True for conditional branches."""
        return self.mnemonic in BRANCH_MNEMONICS

    def is_terminator(self) -> bool:
        """True if this instruction ends a basic block."""
        return self.mnemonic in TERMINATORS

    def is_direct_control(self) -> bool:
        """True for control transfers whose target is pc-relative."""
        return self.is_branch() or self.mnemonic in ("jal", "c.j")

    def is_indirect_jump(self) -> bool:
        """True for register-target jumps (the control-flow-recovery pain)."""
        return self.mnemonic in ("jalr", "c.jr", "c.jalr")

    def is_vector(self) -> bool:
        """True for RVV instructions."""
        return self.extension is Extension.V

    def target(self) -> Optional[int]:
        """Absolute target address for direct control transfers.

        Requires ``addr`` to be set; returns ``None`` for indirect jumps.
        """
        if self.addr is None or self.imm is None or not self.is_direct_control():
            return None
        return self.addr + self.imm

    def regs_read(self) -> frozenset[int]:
        """Integer registers this instruction reads (best effort, used by liveness)."""
        out: set[int] = set()
        if self.rs1 is not None:
            out.add(self.rs1)
        if self.rs2 is not None:
            out.add(self.rs2)
        return frozenset(out)

    def regs_written(self) -> frozenset[int]:
        """Integer registers this instruction writes."""
        if self.rd is not None and self.rd != 0:
            return frozenset({self.rd})
        return frozenset()

    def with_addr(self, addr: int) -> "Instruction":
        """Return a copy of this instruction bound to *addr*."""
        return replace(self, addr=addr)

    def copy(self) -> "Instruction":
        """Return a shallow copy."""
        return replace(self)

    # -- formatting ----------------------------------------------------

    def __str__(self) -> str:
        parts = []
        if self.vd is not None:
            parts.append(vreg_name(self.vd))
        if self.rd is not None:
            parts.append(reg_name(self.rd))
        if self.vs2 is not None:
            parts.append(vreg_name(self.vs2))
        if self.vs1 is not None:
            parts.append(vreg_name(self.vs1))
        if self.rs1 is not None:
            parts.append(reg_name(self.rs1))
        if self.rs2 is not None:
            parts.append(reg_name(self.rs2))
        if self.imm is not None:
            parts.append(hex(self.imm) if abs(self.imm) > 255 else str(self.imm))
        body = f"{self.mnemonic} {', '.join(parts)}".rstrip()
        if self.addr is not None:
            return f"{self.addr:#x}: {body}"
        return body


#: The ``Instruction`` fields its encoding determines: every constructor
#: argument but the last, ``addr``.
ENCODING_FIELDS = tuple(f.name for f in fields(Instruction))[:-1]

#: An instruction's values of :data:`ENCODING_FIELDS`, as one tuple.
encoding_fields = attrgetter(*ENCODING_FIELDS)


@dataclass(slots=True)
class RawBytes:
    """Opaque bytes in an instruction stream (data islands, padding).

    The scanner emits these for regions it could not prove are code;
    the patcher refuses to place trampolines over them.
    """

    data: bytes
    addr: Optional[int] = None

    @property
    def length(self) -> int:
        return len(self.data)

    def __str__(self) -> str:
        prefix = f"{self.addr:#x}: " if self.addr is not None else ""
        return f"{prefix}.bytes {self.data.hex()}"
