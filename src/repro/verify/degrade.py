"""Re-trap one patch: the rollback both degrade paths share.

:func:`retrap` undoes one smile/smile-dp patch and keeps its extension
sources runnable on the trap fallback:

1. translate every source the target core lacks (all-or-nothing: a
   failure raises before anything changes);
2. restore ``original_bytes`` over the window and retract the record's
   table entries;
3. place one ``ebreak``-terminated fallback block per translated source,
   overwrite the source with a trap parcel, and install the resulting
   trap :class:`~repro.verify.records.PatchRecord`.

Two callers differ only in where bytes and blocks go.  The runtime
:class:`~repro.verify.rollback.PatchHealer` patches a live process and
maps each block into a private heal segment.
:func:`degrade_region_to_trap` is the static path: when a region
exhausts its verification retry budget the pipeline still releases
*something* with an honest ledger, so the region is re-trapped in the
released image (blocks appended to ``.chimera.text``) and its record is
replaced by the trap records.  The caller then verifies the replacement
records through a fresh admission gate — a degraded region re-enters
the release only through the same four checks as everything else, just
on the slow encoding.

Trap regions cannot degrade (they *are* the fallback); the pipeline
excludes them instead.
"""

from __future__ import annotations

from typing import Callable

from repro.core.translate import TranslationContext, TranslationError, Translator
from repro.elf.binary import Binary
from repro.isa.block import Block, TrapBlock, trap_parcel
from repro.isa.decoding import IllegalEncodingError, decode
from repro.isa.extensions import PROFILES, IsaProfile
from repro.isa.registers import Reg
from repro.verify.records import PatchRecord, install, retract


class DegradeError(Exception):
    """The region cannot be re-admitted on the trap fallback."""


def retrap(
    rec: PatchRecord,
    translator: Translator,
    target: IsaProfile,
    *,
    write: Callable[[int, bytes], None],
    emit: Callable[[Block], TrapBlock],
    fault_table,
    trap_table: dict,
    keep=frozenset(),
) -> tuple[PatchRecord, ...]:
    """Roll *rec* back and re-trap the sources the restore resurrects.

    *write(addr, data)* patches original text, *emit(body)* places and
    maps one fallback block.  Fault keys in *keep* survive the retract.
    Raises :class:`TranslationError` / :class:`IllegalEncodingError`
    with nothing changed when a source cannot be translated.  Returns
    the installed trap records (empty when every source is native).
    """
    planned = []
    for saddr, shex in rec.sources:
        instr = decode(bytes.fromhex(shex), 0, addr=saddr)
        if instr.extension in target.extensions:
            continue  # runs natively on the target core: no trap needed
        planned.append((instr, translator.translate(instr)))

    write(rec.start, rec.original_bytes)
    retract(rec, fault_table, trap_table, keep)
    traps = []
    for instr, body in planned:
        block = emit(body)
        resume = instr.addr + instr.length
        trap = PatchRecord(
            start=instr.addr,
            end=resume,
            kind="trap",
            original_bytes=rec.source_bytes(instr.addr),
            patched_bytes=trap_parcel(instr.length),
            block_addr=block.addr,
            resume=resume,
            smile_reg=int(Reg.GP),
            trap_entries=block.trap_entries(instr.addr, resume),
        )
        write(trap.start, trap.patched_bytes)
        install(trap, fault_table, trap_table)
        traps.append(trap)
    return tuple(traps)


def degrade_region_to_trap(
    rewritten: Binary, rec: PatchRecord
) -> tuple[PatchRecord, ...]:
    """Degrade one quarantined region in place; returns the replacement
    trap records (possibly empty when every source is target-native).

    Mutates *rewritten* (text bytes, ``.chimera.text``, and the chimera
    metadata) only after every fallback block translated — a translation
    failure raises :class:`DegradeError` with the binary untouched.
    """
    if rec.kind == "trap":
        raise DegradeError(
            f"region {rec.start:#x} is already the trap-fallback encoding")
    meta = rewritten.metadata.get("chimera")
    if meta is None:
        raise DegradeError(f"{rewritten.name} carries no chimera metadata")
    ct = rewritten.section(".chimera.text")

    def emit(body: Block) -> TrapBlock:
        block = TrapBlock.place(body, lambda size: (ct.end + 0xF) & ~0xF)
        ct.data.extend(bytes(block.addr - ct.end))
        ct.data.extend(block.code)
        return block

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
    try:
        new_records = retrap(
            rec,
            Translator(TranslationContext(meta["vregs_base"], meta["gp"]),
                       mode="full"),
            PROFILES[meta["target_profile"]],
            write=rewritten.text.write, emit=emit,
            fault_table=meta["fault_table"], trap_table=meta["trap_table"],
            keep=shared_resumes)
    except (TranslationError, IllegalEncodingError) as exc:
        raise DegradeError(
            f"cannot build trap fallback for region {rec.start:#x}: {exc}"
        ) from exc

    records = [r for r in meta["patch_records"] if r.start != rec.start]
    records.extend(new_records)
    meta["patch_records"] = tuple(sorted(records, key=lambda r: r.start))
    meta["migration_unsafe"] = sorted(
        [(lo, hi) for lo, hi in meta["migration_unsafe"]
         if not rec.start <= lo < rec.end]
        + [(r.start, r.resume) for r in new_records])
    return new_records
