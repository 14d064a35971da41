"""Where the rewriters place the sections they add to an image.

One definition for every rewriter (CHBP, ARMore, SAFER), so moving an
added section is a change in one place.
"""

from __future__ import annotations

from repro.core.translate import VREGS_REGION_SIZE
from repro.elf.binary import Binary, Perm, Section


def add_vregs_section(out: Binary) -> int:
    """Add the zeroed ``.chimera.vregs`` spill region to *out*, 16-byte
    aligned directly after its last writable section; returns its base."""
    data_end = max(s.end for s in out.sections if Perm.W in s.perm)
    base = (data_end + 0xF) & ~0xF
    out.add_section(Section(".chimera.vregs", base,
                            bytearray(VREGS_REGION_SIZE), Perm.RW))
    return base
