"""RISC-V ISA model: registers, encodings, assembler, disassembler.

This package implements the architectural substrate the Chimera
reproduction is built on: real RV64I/M/Zba/C-subset/V-subset instruction
encodings (including the compressed-parcel rules and the reserved/illegal
encodings that the SMILE trampoline relies on), an ``Instruction`` IR,
the block builder rewritten code is encoded with (:mod:`repro.isa.block`),
a two-pass textual assembler for workloads and tests, and a decoder
usable both linearly and from the recursive-descent scanner in
:mod:`repro.analysis`.
"""

from repro.isa.registers import Reg, VReg, ABI_NAMES, reg_name
from repro.isa.instructions import Instruction
from repro.isa.extensions import Extension, IsaProfile, RV64GC, RV64GCV
from repro.isa.encoding import encode
from repro.isa.decoding import decode, IllegalEncodingError
from repro.isa.assembler import Assembler, AssemblyError
from repro.isa.disassembler import disassemble, format_instruction

__all__ = [
    "Reg",
    "VReg",
    "ABI_NAMES",
    "reg_name",
    "Instruction",
    "Extension",
    "IsaProfile",
    "RV64GC",
    "RV64GCV",
    "encode",
    "decode",
    "IllegalEncodingError",
    "Assembler",
    "AssemblyError",
    "disassemble",
    "format_instruction",
]
