"""Static quarantine-and-degrade: re-admit a region on the trap fallback.

When a region exhausts its verification retry budget the pipeline must
still release *something* with an honest ledger.  For smile/smile-dp
regions the answer is the same degradation the runtime
:class:`~repro.verify.rollback.PatchHealer` performs on a live process,
applied statically to the released image:

1. restore ``original_bytes`` over the window and drop the record's
   fault-table entries (and data-pointer register pins);
2. re-trap every extension source the restore resurrects with a freshly
   translated, ``ebreak``-terminated fallback block appended to
   ``.chimera.text`` (sources native to the target need no trap);
3. replace the region's :class:`~repro.verify.records.PatchRecord` with
   the trap records, keeping ``patched_regions`` / ``migration_unsafe``
   aligned.

The caller then verifies the replacement records through a fresh
admission gate — a degraded region re-enters the release only through
the same four checks as everything else, just on the slow encoding.

Trap regions cannot degrade (they *are* the fallback); the pipeline
excludes them instead.
"""

from __future__ import annotations

from repro.core.translate import TranslationContext, TranslationError, Translator
from repro.elf.binary import Binary
from repro.isa.block import Block, TrapBlock, trap_parcel
from repro.isa.decoding import IllegalEncodingError, decode
from repro.isa.extensions import PROFILES
from repro.isa.instructions import Instruction
from repro.isa.registers import Reg
from repro.verify.records import PatchRecord


class DegradeError(Exception):
    """The region cannot be re-admitted on the trap fallback."""


def degrade_region_to_trap(
    rewritten: Binary, rec: PatchRecord
) -> tuple[PatchRecord, ...]:
    """Degrade one quarantined region in place; returns the replacement
    trap records (possibly empty when every source is target-native).

    Mutates *rewritten* (text bytes, ``.chimera.text``, and the chimera
    metadata tables) only after every fallback block translated — a
    translation failure raises :class:`DegradeError` with the binary
    untouched.
    """
    if rec.kind == "trap":
        raise DegradeError(
            f"region {rec.start:#x} is already the trap-fallback encoding")
    meta = rewritten.metadata.get("chimera")
    if meta is None:
        raise DegradeError(f"{rewritten.name} carries no chimera metadata")
    target = PROFILES[meta["target_profile"]]
    translator = Translator(
        TranslationContext(meta["vregs_base"], meta["gp"]), mode="full")
    ct = rewritten.section(".chimera.text")

    # Translate every non-native source up front: all-or-nothing.
    planned: list[tuple[int, Instruction, Block]] = []
    try:
        for saddr, shex in rec.sources:
            src = bytes.fromhex(shex)
            instr = decode(src, 0, addr=saddr)
            if instr.extension in target.extensions:
                continue  # runs natively on the target core: no trap needed
            planned.append((saddr, instr, translator.translate(instr)))
    except (TranslationError, IllegalEncodingError) as exc:
        raise DegradeError(
            f"cannot build trap fallback for region {rec.start:#x}: {exc}"
        ) from exc

    text = rewritten.text
    text.write(rec.start, rec.original_bytes)
    fault_table = meta["fault_table"]
    smile_regs = meta["smile_regs"]
    # A neighbouring site whose resume point landed inside this window had
    # its block exit statically re-routed to fault_table[resume] — the
    # relocated copy of that boundary.  Those redirects must survive the
    # restore: the neighbour's exit jump is baked into its block, and the
    # admission oracle derives the neighbour's sync pc from this entry.
    # The kept redirect lands past the window's translated sources (it is
    # the copy of a boundary the neighbour architecturally reaches), and
    # the neighbour re-verifies through it on re-admission.
    shared_resumes = {
        r.resume for r in meta["patch_records"] if r.start != rec.start}
    for key, _ in rec.fault_entries:
        if key in shared_resumes:
            continue
        fault_table.entries.pop(key, None)
        smile_regs.pop(key, None)

    trap_table = meta["trap_table"]
    new_records: list[PatchRecord] = []
    for saddr, instr, body in planned:
        block = TrapBlock.place(body, lambda size: (ct.end + 0xF) & ~0xF)
        ct.data.extend(bytes(block.addr - ct.end))
        ct.data.extend(block.code)
        resume = saddr + instr.length
        trap_entries = block.trap_entries(saddr, resume)
        trap_table.update(trap_entries)
        trap = trap_parcel(instr.length)
        text.write(saddr, trap)
        new_records.append(PatchRecord(
            start=saddr,
            end=saddr + instr.length,
            kind="trap",
            original_bytes=rec.source_bytes(saddr),
            patched_bytes=trap,
            block_addr=block.addr,
            resume=resume,
            smile_reg=int(Reg.GP),
            fault_entries=(),
            trap_entries=trap_entries,
            sources=(),
        ))

    records = [r for r in meta["patch_records"] if r.start != rec.start]
    records.extend(new_records)
    meta["patch_records"] = tuple(sorted(records, key=lambda r: r.start))
    meta["patched_regions"] = sorted(
        [(lo, hi, kind) for lo, hi, kind in meta["patched_regions"]
         if not rec.start <= lo < rec.end]
        + [(r.start, r.end, "trap") for r in new_records])
    meta["migration_unsafe"] = sorted(
        [(lo, hi) for lo, hi in meta["migration_unsafe"]
         if not rec.start <= lo < rec.end]
        + [(r.start, r.resume) for r in new_records])
    return tuple(new_records)
