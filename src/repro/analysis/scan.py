"""Recursive-descent instruction recovery over a Binary's text section.

Follows control flow from the entry point and every function symbol,
decoding as it goes.  Soundness: everything recovered decodes at a real
instruction boundary on some path.  Completeness is *not* guaranteed —
code reachable only via indirect jumps whose targets the scanner cannot
enumerate stays unrecognized, exactly the gap Chimera's runtime
rewriting covers (§4.1/§4.3).

Jump tables may be declared in ``binary.metadata["jump_tables"]`` as a
mapping ``{jump_addr: [target, ...]}`` — the analog of the metadata
heuristics (relocations, IDA switch recovery) the paper mentions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.elf.binary import Binary, Perm
from repro.isa.decoding import IllegalEncodingError, decode
from repro.isa.instructions import TERMINATORS, Instruction
from repro.telemetry import current as telemetry_current
from repro.telemetry.exec_trace import instruction_class


@dataclass
class ScanResult:
    """Recovered instructions and derived index structures."""

    instructions: dict[int, Instruction]
    entry_points: set[int]
    #: Addresses that are targets of *direct* control transfers.
    direct_targets: set[int]
    #: Addresses of indirect jumps whose target sets are unknown.
    unresolved_indirect: set[int]
    #: Text bytes never proven to be code.
    unrecognized_ranges: list[tuple[int, int]]

    def sorted_addrs(self) -> list[int]:
        """Recovered instruction addresses in ascending order."""
        return sorted(self.instructions)

    def at(self, addr: int) -> Instruction:
        """The recovered instruction at *addr* (KeyError if unrecovered)."""
        return self.instructions[addr]

    def coverage(self, text_size: int) -> float:
        """Fraction of text bytes proven to be code."""
        covered = sum(i.length for i in self.instructions.values())
        return covered / text_size if text_size else 1.0


class RecursiveScanner:
    """Recursive-descent scanner with optional symbol/jump-table seeds.

    ``seed_address_taken`` additionally treats code addresses that the
    program *materializes as constants* (``auipc+addi`` pairs and
    ``lui+addiw`` immediates landing in the text) as entry points —
    the address-taken heuristic real recovery tools use for function
    pointers.  Off by default: the incompleteness it papers over is
    exactly what Chimera's lazy runtime rewriting handles (§4.1).
    """

    def __init__(self, *, follow_calls: bool = True, seed_symbols: bool = True,
                 seed_address_taken: bool = False):
        self.follow_calls = follow_calls
        self.seed_symbols = seed_symbols
        self.seed_address_taken = seed_address_taken

    def scan(self, binary: Binary, extra_entries: list[int] | None = None) -> ScanResult:
        """Recover instructions of every executable section of *binary*."""
        telemetry = telemetry_current()
        with telemetry.span("analysis.scan", binary=binary.name):
            result = self._scan(binary, extra_entries)
        if telemetry.enabled:
            metrics = telemetry.metrics
            for instr in result.instructions.values():
                metrics.inc("scan.instructions", **{"class": instruction_class(instr)})
            metrics.inc("scan.entry_points", len(result.entry_points))
            metrics.inc("scan.unresolved_indirect", len(result.unresolved_indirect))
            metrics.inc("scan.unrecognized_gaps", len(result.unrecognized_ranges))
        return result

    def _scan(self, binary: Binary, extra_entries: list[int] | None = None) -> ScanResult:
        text_sections = [s for s in binary.sections if Perm.X in s.perm]
        bounds = [(s.addr, s.end) for s in text_sections]

        def in_text(addr: int) -> bool:
            return any(lo <= addr < hi for lo, hi in bounds)

        jump_tables: dict[int, list[int]] = dict(binary.metadata.get("jump_tables", {}))  # type: ignore[arg-type]

        worklist: list[int] = [binary.entry]
        entry_points = {binary.entry}
        if self.seed_symbols:
            for sym in binary.symbols.values():
                if sym.kind == "func" and in_text(sym.addr):
                    worklist.append(sym.addr)
                    entry_points.add(sym.addr)
        worklist.extend(extra_entries or [])
        entry_points.update(extra_entries or [])

        instructions: dict[int, Instruction] = {}
        direct_targets: set[int] = set()
        unresolved: set[int] = set()

        def drain() -> None:
            self._drain(worklist, instructions, direct_targets, unresolved,
                        jump_tables, text_sections, in_text)

        drain()
        if self.seed_address_taken:
            # Iterate: materialized code constants reveal new entries,
            # whose code may materialize further constants.
            for _ in range(16):
                fresh = [
                    addr for addr in _address_taken_targets(instructions, in_text)
                    if addr not in instructions
                ]
                if not fresh:
                    break
                worklist.extend(fresh)
                entry_points.update(fresh)
                drain()

        unrecognized = _gaps(instructions, bounds)
        return ScanResult(instructions, entry_points, direct_targets, unresolved, unrecognized)

    def _drain(self, worklist, instructions, direct_targets, unresolved,
               jump_tables, text_sections, in_text) -> None:
        # The section the last address fell in: a run of addresses, and
        # most branch targets, stay inside it.
        lo = hi = 0
        data = b""
        while worklist:
            addr = worklist.pop()
            while addr not in instructions:
                if not lo <= addr < hi:
                    section = next((s for s in text_sections if s.contains(addr)), None)
                    if section is None:
                        break
                    lo, hi, data = section.addr, section.end, section.data
                try:
                    instr = decode(data, addr - lo, addr=addr)
                except IllegalEncodingError:
                    break  # sound: stop at anything that is not provably code
                instructions[addr] = instr
                if instr.mnemonic not in TERMINATORS:
                    addr += instr.length
                    continue
                target = instr.target()
                if target is not None:
                    direct_targets.add(target)
                    if lo <= target < hi or in_text(target):
                        worklist.append(target)
                if instr.is_indirect_jump():
                    if addr in jump_tables:
                        for t in jump_tables[addr]:
                            direct_targets.add(t)
                            if in_text(t):
                                worklist.append(t)
                    else:
                        unresolved.add(addr)
                    if instr.mnemonic == "jalr" and instr.rd == 1 and self.follow_calls:
                        addr += instr.length  # call returns to fall-through
                        continue
                    if instr.mnemonic == "c.jalr" and self.follow_calls:
                        addr += instr.length
                        continue
                    break
                if instr.is_jump():
                    is_call = (instr.mnemonic == "jal" and instr.rd == 1)
                    if is_call and self.follow_calls:
                        addr += instr.length
                        continue
                    break
                addr += instr.length


def _address_taken_targets(instructions: dict[int, Instruction], in_text) -> set[int]:
    """Code addresses the program materializes as register constants.

    Recognizes the two idioms our toolchain (and compilers generally)
    emit for code pointers: pc-relative ``auipc rd + addi rd, rd, lo``
    (the ``la`` expansion) and absolute ``lui rd + addiw rd, rd, lo``.
    """
    from repro.isa.fields import sign_extend

    out: set[int] = set()
    for addr, instr in instructions.items():
        if instr.mnemonic not in ("auipc", "lui"):
            continue
        nxt = instructions.get(addr + instr.length)
        if nxt is None or nxt.rs1 != instr.rd or nxt.rd != instr.rd:
            continue
        if instr.mnemonic == "auipc" and nxt.mnemonic == "addi":
            value = addr + sign_extend(instr.imm << 12, 32) + nxt.imm
        elif instr.mnemonic == "lui" and nxt.mnemonic == "addiw":
            value = sign_extend((instr.imm << 12) & 0xFFFFFFFF, 32) + nxt.imm
        else:
            continue
        if in_text(value) and value % 2 == 0:
            out.add(value)
    return out


def _gaps(instructions: dict[int, Instruction], bounds: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Compute [start, end) text ranges not covered by recovered code."""
    covered = sorted((a, a + i.length) for a, i in instructions.items())
    gaps: list[tuple[int, int]] = []
    for lo, hi in sorted(bounds):
        cursor = lo
        for start, end in covered:
            if end <= lo or start >= hi:
                continue
            if start > cursor:
                gaps.append((cursor, start))
            cursor = max(cursor, end)
        if cursor < hi:
            gaps.append((cursor, hi))
    return gaps
