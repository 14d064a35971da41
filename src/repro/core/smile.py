"""SMILE trampoline construction (paper §4.2, Fig. 2/4/7).

A SMILE trampoline is the pair::

    auipc gp, U      # gp <- pc + sext(U << 12)
    jalr  gp, J(gp)  # jump to gp + sext(J); gp <- return address

Normal execution lands on the ``auipc`` and reaches the target block.
Any erroneous jump into the interior must raise a deterministic fault:

* **P1** (start of the ``jalr``): gp still holds its ABI value, which
  points into the non-executable data segment, so the jump raises a
  SIGSEGV whose ``access="exec"`` address is in the data segment.  The
  fault pc is recovered from the return address jalr wrote into gp.
* **P2** (byte 2, when the binary has compressed instructions): the
  16-bit parcel there is the upper half of the ``auipc``.  We pin
  instruction bits 16-20 — i.e. bits 4-8 of the U field — to ``11111``
  so that parcel announces a reserved >=48-bit encoding: SIGILL.
* **P3** (byte 6): the parcel is the upper half of the ``jalr``.  With
  ``rs1 = gp = x3`` its low bits are already ``01`` (quadrant 1), and we
  choose J so the parcel decodes as the *reserved* ``c.addiw rd=x0``
  encoding: funct3 (J[11:9]) = ``001`` and rd (J[7:3]) = 0: SIGILL.

Those constraints restrict which addresses one trampoline can reach, so
the patcher *places* each target block at an address the constraints
allow (the achievable-residue math below) instead of bending the
trampoline to an arbitrary address.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Optional

from repro.isa.decoding import IllegalEncodingError, decode
from repro.isa.encoding import encode
from repro.isa.fields import p16, sign_extend
from repro.isa.instructions import Instruction
from repro.isa.registers import Reg
from repro.telemetry import current as telemetry_current

#: With the P3 constraint, sext(J) ranges over these two windows.
_J_BASES = (0x200, 0x300)  # J[9]=1 required; J[8] free
_J_LOW_SPAN = 8            # J[2:0] free

#: Reserved 16-bit parcel used to pad trampoline windows whose padding
#: bytes coincide with an original instruction boundary: quadrant 1,
#: funct3=001 (c.addiw), rd=0 -- reserved, raises SIGILL deterministically.
RESERVED_C_PARCEL = (0b001 << 13) | 0b01

#: A plain c.nop parcel for padding positions no jump can target.
C_NOP_PARCEL = (0b000 << 13) | 0b01


class SmilePlacementError(ValueError):
    """No legal (U, J) pair reaches the requested target."""


#: Registers usable as the SMILE jump register: their low encoding bits
#: place the jalr's upper parcel in quadrant 1, where the reserved
#: c.addiw rd=0 pattern lives (gp = x3 is the canonical member; the
#: Fig. 5 data-pointer variant may use any other member, e.g. a0/a1).
SMILE_CAPABLE_REGS: frozenset[int] = frozenset(
    r for r in range(1, 32) if (r & 0b110) == 0b010
)


@dataclass(frozen=True)
class SmileTrampoline:
    """A concrete, encodable SMILE trampoline."""

    addr: int
    target: int
    u_field: int
    j_field: int
    compressed_safe: bool
    reg: int = int(Reg.GP)

    def encode(self) -> bytes:
        """The 8 trampoline bytes."""
        auipc = Instruction("auipc", rd=self.reg, imm=self.u_field)
        jalr = Instruction("jalr", rd=self.reg, rs1=self.reg, imm=sign_extend(self.j_field, 12))
        return encode(auipc) + encode(jalr)

    @property
    def p1(self) -> int:
        """Address of the jalr (partial-execution entry)."""
        return self.addr + 4

    @property
    def return_address(self) -> int:
        """Value jalr leaves in gp (pc + 4 of the jalr)."""
        return self.addr + 8


def achievable_targets(tramp_addr: int, *, compressed: bool) -> tuple[int, ...]:
    """Residues mod 4096 a SMILE trampoline at *tramp_addr* can reach.

    Without the compressed extension there are no interior parcels to
    pin and every residue is reachable (returns empty tuple meaning
    "unconstrained").  With it, gp after ``auipc`` is congruent to
    ``tramp_addr`` mod 4096 and J is confined to the two windows above.
    """
    if not compressed:
        return ()
    residues = []
    for base in _J_BASES:
        for low in range(_J_LOW_SPAN):
            residues.append((tramp_addr + base + low) % 4096)
    return tuple(residues)


def _record_trampoline(tramp: "SmileTrampoline") -> None:
    """Count a successfully encoded SMILE trampoline in the telemetry."""
    telemetry = telemetry_current()
    if telemetry.enabled:
        telemetry.metrics.inc(
            "smile.trampolines",
            variant="compressed" if tramp.compressed_safe else "unconstrained",
            reg=f"x{tramp.reg}",
        )


def build_smile(tramp_addr: int, target: int, *, compressed: bool,
                reg: int = int(Reg.GP)) -> SmileTrampoline:
    """Construct the SMILE trampoline at *tramp_addr* reaching *target*.

    *reg* is the jump register — ``gp`` for the main design, or a
    data-pointer register for the Fig. 5 variant; it must belong to
    :data:`SMILE_CAPABLE_REGS` so the P3 parcel stays reserved.

    Raises :class:`SmilePlacementError` if the compressed-mode bit
    constraints cannot reach *target*; the patcher avoids this by
    choosing target-block addresses with :func:`achievable_targets`.
    """
    if reg not in SMILE_CAPABLE_REGS:
        raise SmilePlacementError(f"register x{reg} cannot anchor a SMILE trampoline")
    offset = target - tramp_addr
    if not compressed:
        # Unconstrained: split offset into auipc hi20 + jalr lo12.
        lo = sign_extend(offset & 0xFFF, 12)
        hi = ((offset - lo) >> 12) & 0xFFFFF
        tramp = SmileTrampoline(tramp_addr, target, hi, lo & 0xFFF,
                                compressed_safe=False, reg=reg)
        _verify(tramp, compressed=False)
        _record_trampoline(tramp)
        return tramp
    for base in _J_BASES:
        for low in range(_J_LOW_SPAN):
            j = base + low
            rest = offset - j  # must equal sext(U << 12)
            if rest % 4096:
                continue
            u = (rest >> 12) & 0xFFFFF
            if (u >> 4) & 0x1F != 0x1F:
                continue  # P2 pin: U bits 4-8 must read 11111
            if sign_extend(u << 12, 32) != rest:
                continue  # out of auipc range
            tramp = SmileTrampoline(tramp_addr, target, u, j,
                                    compressed_safe=True, reg=reg)
            _verify(tramp, compressed=True)
            _record_trampoline(tramp)
            return tramp
    raise SmilePlacementError(
        f"no SMILE encoding from {tramp_addr:#x} to {target:#x} under compressed constraints"
    )


#: All within-period reachable offsets, sorted: ``(0x1F0|low4)<<12 + J``
#: with J restricted to even values (parcel alignment).
_PERIOD = 1 << 21
_PERIOD_OFFSETS: tuple[int, ...] = tuple(sorted(
    ((0x1F0 | low4) << 12) + j
    for low4 in range(16)
    for base in _J_BASES
    for j in range(base, base + _J_LOW_SPAN, 2)
))


def next_achievable(tramp_addr: int, cursor: int) -> int:
    """Smallest compressed-safe SMILE target >= *cursor* from *tramp_addr*.

    Reachable offsets form the lattice ``hi<<21 | (0x1F0|low4)<<12 | J``
    (the P2 pin fixes offset bits 16-20 to 11111; J is confined by the
    P3 pin; low4/hi are the free auipc immediate bits).  Only even J
    values are considered so targets stay parcel-aligned.
    """
    d = max(0, cursor - tramp_addr)
    hi, rem = divmod(d, _PERIOD)
    idx = bisect_left(_PERIOD_OFFSETS, rem)
    if idx < len(_PERIOD_OFFSETS):
        candidate = tramp_addr + hi * _PERIOD + _PERIOD_OFFSETS[idx]
    else:
        candidate = tramp_addr + (hi + 1) * _PERIOD + _PERIOD_OFFSETS[0]
    if candidate - tramp_addr >= (1 << 31):
        raise SmilePlacementError(f"no reachable SMILE target from {tramp_addr:#x}")
    return candidate


class SmileTextAllocator:
    """First-fit allocator for ``.chimera.text`` target blocks.

    The compressed-mode SMILE constraints make each trampoline's
    reachable-address set sparse (128 targets in 32 windows per 2 MB),
    so a monotonic cursor would waste tens of KB per block.  Because
    trampolines sit at diverse addresses, their lattices interleave: a
    free-list first-fit keeps the section dense.  Unconstrained
    placements (trap-fallback blocks, non-compressed binaries) fill gaps
    greedily.

    The free gaps are indexed twice: an insertion-ordered ``{start:
    end}`` dict, whose order is the first-fit order of unconstrained
    placements, and a sorted list of starts, which :meth:`place` bisects
    while it walks a trampoline's lattice and the gaps together.
    """

    def __init__(self, base: int, *, compressed: bool):
        self.base = base
        self.compressed = compressed
        self.cursor = base
        #: [start, end) gaps below the cursor, in the order they were made.
        self._gaps: dict[int, int] = {}
        #: The keys of ``_gaps``, sorted.
        self._starts: list[int] = []
        #: Bytes of gaps too small to keep (they count as padding).
        self._dropped = 0

    @property
    def free(self) -> tuple[tuple[int, int], ...]:
        """The free ``(start, end)`` gaps, in the order they were made."""
        return tuple(self._gaps.items())

    def place(self, tramp_addr: int, size: int) -> int:
        """Reserve *size* bytes reachable from a SMILE at *tramp_addr*.

        Takes the lowest reachable target that fits in a free gap, else
        the lowest reachable target at or past the cursor.  Gaps are
        disjoint and a gap's lowest reachable target is >= its start,
        so the first gap in address order that fits holds that target.
        """
        if not self.compressed:
            return self._place_anywhere(size)
        tail = next_achievable(tramp_addr, self.cursor)
        starts, gaps = self._starts, self._gaps
        i = 0
        while i < len(starts):
            t = next_achievable(tramp_addr, starts[i])
            # No target lies in [starts[i], t): skip to the gap holding t,
            # or to the last gap starting below it.
            i = bisect_right(starts, t, i) - 1
            if t + size <= gaps[starts[i]]:
                self._take(i, t, size)
                return t
            i += 1
        self._add_gap(self.cursor, tail)
        self.cursor = tail + size
        return tail

    def place_unconstrained(self, size: int) -> int:
        """Reserve *size* bytes anywhere (trap-fallback blocks)."""
        return self._place_anywhere(size)

    def _place_anywhere(self, size: int, align: int = 2) -> int:
        for gs, ge in self._gaps.items():
            addr = (gs + align - 1) & ~(align - 1)
            if addr + size <= ge:
                self._take(bisect_left(self._starts, gs), addr, size)
                return addr
        addr = (self.cursor + align - 1) & ~(align - 1)
        if addr > self.cursor:
            self._insert(self.cursor, addr)
        self.cursor = addr + size
        return addr

    def _take(self, i: int, addr: int, size: int) -> None:
        """Carve [addr, addr + size) out of the gap at ``_starts[i]``."""
        gs = self._starts.pop(i)
        ge = self._gaps.pop(gs)
        self._add_gap(gs, addr)
        self._add_gap(addr + size, ge)

    def _add_gap(self, start: int, end: int) -> None:
        # Gaps below 16 bytes can't hold a useful block; dropping them
        # bounds the free list (their bytes count as padding).
        if end - start >= 16:
            self._insert(start, end)
        elif end > start:
            self._dropped += end - start

    def _insert(self, start: int, end: int) -> None:
        self._gaps[start] = end
        insort(self._starts, start)

    @property
    def gap_bytes(self) -> int:
        """Bytes lost to placement constraints (still-free gaps)."""
        return sum(ge - gs for gs, ge in self._gaps.items()) + self._dropped


def _verify(tramp: SmileTrampoline, *, compressed: bool) -> None:
    """Self-check: decode semantics and (in compressed mode) fault parcels."""
    data = tramp.encode()
    auipc = decode(data, 0, addr=tramp.addr)
    jalr = decode(data, 4, addr=tramp.addr + 4)
    gp_after = tramp.addr + sign_extend(auipc.imm << 12, 32)
    reached = gp_after + jalr.imm
    if reached != tramp.target:
        raise SmilePlacementError(
            f"SMILE at {tramp.addr:#x} reaches {reached:#x}, wanted {tramp.target:#x}"
        )
    if not compressed:
        return
    for mid in (2, 6):  # P2 / P3 parcels must not decode
        try:
            decode(data, mid)
        except IllegalEncodingError:
            continue
        raise SmilePlacementError(f"parcel at +{mid} of SMILE decodes as a legal instruction")


def vanilla_trampoline(addr: int, target: int, reg: int) -> bytes:
    """Encode ``auipc reg, hi ; jalr x0, lo(reg)`` from *addr* to *target*.

    The exit trampoline of every target block (paper Fig. 8); *reg* must
    be dead at *target*.
    """
    offset = target - addr
    lo = sign_extend(offset & 0xFFF, 12)
    hi = ((offset - lo) >> 12) & 0xFFFFF
    auipc = Instruction("auipc", rd=reg, imm=hi)
    jalr = Instruction("jalr", rd=0, rs1=reg, imm=lo)
    return encode(auipc) + encode(jalr)


def smile_offset_label(offset: int) -> str:
    """Name the attack surface *offset* bytes into a SMILE window.

    The chaos sweeper labels each enumerated entry point with the
    paper's taxonomy: ``head`` (the auipc — the one legal entry),
    ``P1`` (the jalr, partial execution through a data pointer),
    ``P2``/``P3`` (the pinned reserved mid-instruction parcels),
    ``padding`` (parcels past the 8-byte trampoline), ``misaligned``
    (odd offsets no RVC jump can target).
    """
    if offset < 0:
        raise ValueError("offset must be non-negative")
    if offset % 2:
        return "misaligned"
    return {0: "head", 2: "P2", 4: "P1", 6: "P3"}.get(offset, "padding")


def smile_window_violations(data: bytes, addr: int, *, compressed: bool,
                            reg: Optional[int] = None) -> list[str]:
    """Check the SMILE bit-pinning invariants over live window bytes.

    Returns a list of human-readable violations (empty = the 8-byte
    trampoline at *addr* upholds every invariant the runtime's recovery
    relies on).  Used by the admission gate before release and by the
    rollback journal's re-verification before re-admission.
    """
    out: list[str] = []
    if len(data) < 8:
        return [f"window is {len(data)} bytes, need 8"]
    try:
        auipc = decode(data, 0, addr=addr)
    except IllegalEncodingError as exc:
        return [f"head does not decode: {exc}"]
    try:
        jalr = decode(data, 4, addr=addr + 4)
    except IllegalEncodingError as exc:
        return [f"jalr slot does not decode: {exc}"]
    if auipc.mnemonic != "auipc":
        out.append(f"head is {auipc.mnemonic}, not auipc")
    if jalr.mnemonic != "jalr":
        out.append(f"+4 is {jalr.mnemonic}, not jalr")
    if out:
        return out
    if not (auipc.rd == jalr.rd == jalr.rs1):
        out.append(
            f"jump register mismatch: auipc rd=x{auipc.rd}, "
            f"jalr rd=x{jalr.rd} rs1=x{jalr.rs1}")
    if auipc.rd not in SMILE_CAPABLE_REGS:
        out.append(f"x{auipc.rd} cannot anchor a SMILE trampoline")
    if reg is not None and auipc.rd != reg:
        out.append(f"jump register is x{auipc.rd}, recorded x{reg}")
    if compressed:
        u = auipc.imm & 0xFFFFF
        if (u >> 4) & 0x1F != 0x1F:
            out.append(
                f"P2 pin broken: auipc U bits 4-8 are "
                f"{(u >> 4) & 0x1F:#07b}, must be 0b11111")
        for mid, label in ((2, "P2"), (6, "P3")):
            try:
                parcel = decode(data, mid)
            except IllegalEncodingError:
                continue
            out.append(
                f"{label} parcel decodes as legal {parcel.mnemonic}: "
                "a mid-trampoline jump would not fault")
    return out


def smile_window_target(data: bytes, addr: int) -> Optional[int]:
    """Computed jump target of the SMILE trampoline bytes at *addr*.

    None when the window no longer decodes as an auipc+jalr pair.
    """
    try:
        auipc = decode(data, 0, addr=addr)
        jalr = decode(data, 4, addr=addr + 4)
    except IllegalEncodingError:
        return None
    if auipc.mnemonic != "auipc" or jalr.mnemonic != "jalr":
        return None
    return addr + sign_extend(auipc.imm << 12, 32) + jalr.imm


def padding_parcels(n_bytes: int, *, boundary_in_padding: bool) -> bytes:
    """Padding for trampoline windows longer than 8 bytes.

    Uses c.nop when no original boundary falls inside the padding (the
    paper's choice, Fig. 4) and the reserved parcel when one does, so a
    jump to that boundary still faults deterministically.
    """
    if n_bytes % 2:
        raise ValueError("padding must be parcel-aligned")
    parcel = RESERVED_C_PARCEL if boundary_in_padding else C_NOP_PARCEL
    return p16(parcel) * (n_bytes // 2)
