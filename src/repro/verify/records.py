"""Per-patch provenance records: the one ledger of patch state.

A :class:`PatchRecord` is what the patcher did to one region, byte for
byte, and it *owns* that region's fault-table and trap-table entries
(DESIGN.md "Verified patching").  Every change to those tables goes
through :func:`install` and :func:`retract`, so the tables never drift
from the records that explain them.  Everything else about a patch is
derived from the records, never stored beside them:

* :func:`patched_regions` — the ``(start, end, kind)`` spans the chaos
  sweeper attacks;
* :func:`p1_registers` — the Fig. 5 P1 address -> jump register map the
  runtime probes on a data-pointer SMILE fault.

Both halves of verified patching operate on the records: the static
admission gate re-checks each record's invariants against the released
bytes, and the runtime rollback journal undoes exactly one patch (see
:func:`repro.verify.degrade.retrap`).

Records are frozen and serialize to primitive tuples (hex strings for
byte fields) so they survive checkpoint digests and JSON report export
unchanged.  This module must stay import-light: the patcher imports it,
so it cannot pull in analysis/runtime code.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PatchRecord:
    """One patched region of original text and everything needed to
    verify or undo it."""

    #: Original-address span [start, end) the patch overwrote.
    start: int
    end: int
    #: "smile" (gp trampoline), "smile-dp" (Fig. 5 data-pointer
    #: trampoline) or "trap" (ebreak fallback).
    kind: str
    #: Text bytes of [start, end) before / after patching.
    original_bytes: bytes
    patched_bytes: bytes
    #: Entry address of the target block in .chimera.text.
    block_addr: int
    #: First original pc where normal flow rejoins original text (the
    #: exit position for trampolines, ``addr + length`` for traps).
    resume: int
    #: SMILE jump register (gp, or the Fig. 5 data-pointer register).
    smile_reg: int
    #: (boundary addr, redirect) fault-table entries this patch owns.
    fault_entries: tuple[tuple[int, int], ...] = ()
    #: (trap addr, target) trap-table entries this patch owns.
    trap_entries: tuple[tuple[int, int], ...] = ()
    #: (addr, encoding hex) of extension sources a rollback resurrects;
    #: each needs a trap-fallback re-patch to stay runnable on the
    #: target core.  Empty for "trap" records (golden restore suffices).
    sources: tuple[tuple[int, str], ...] = ()

    def contains(self, addr: int) -> bool:
        return self.start <= addr < self.end

    def source_bytes(self, addr: int) -> bytes:
        for saddr, shex in self.sources:
            if saddr == addr:
                return bytes.fromhex(shex)
        raise KeyError(hex(addr))

    # -- serialization ------------------------------------------------------

    def as_state(self) -> tuple:
        """Deterministic primitive form (checkpoint/JSON safe)."""
        return (
            self.start,
            self.end,
            self.kind,
            self.original_bytes.hex(),
            self.patched_bytes.hex(),
            self.block_addr,
            self.resume,
            self.smile_reg,
            tuple(tuple(e) for e in self.fault_entries),
            tuple(tuple(e) for e in self.trap_entries),
            tuple(tuple(s) for s in self.sources),
        )

    @classmethod
    def from_state(cls, state) -> "PatchRecord":
        (start, end, kind, orig, patched, block, resume, reg,
         faults, traps, sources) = state
        return cls(
            start=start, end=end, kind=kind,
            original_bytes=bytes.fromhex(orig),
            patched_bytes=bytes.fromhex(patched),
            block_addr=block, resume=resume, smile_reg=reg,
            fault_entries=tuple(tuple(e) for e in faults),
            trap_entries=tuple(tuple(e) for e in traps),
            sources=tuple(tuple(s) for s in sources),
        )


def record_for(records, addr) -> "PatchRecord | None":
    """The record whose span contains *addr*, if any."""
    if addr is None:
        return None
    for rec in records:
        if rec.contains(addr):
            return rec
    return None


def patched_regions(records) -> list[tuple[int, int, str]]:
    """``(start, end, kind)`` of every overwritten span, in address order."""
    return sorted((r.start, r.end, r.kind) for r in records)


def p1_registers(records) -> dict[int, int]:
    """Fig. 5 data-pointer trampolines: P1 address -> jump register."""
    return {r.fault_entries[0][0]: r.smile_reg for r in records
            if r.kind == "smile-dp" and r.fault_entries}


def install(rec: PatchRecord, fault_table, trap_table: dict) -> None:
    """Write exactly the fault- and trap-table entries *rec* owns."""
    for key, target in rec.fault_entries:
        fault_table.add(key, target)
    trap_table.update(rec.trap_entries)


def retract(rec: PatchRecord, fault_table, trap_table: dict,
            keep=frozenset()) -> None:
    """Drop exactly the entries *rec* owns; fault keys in *keep* stay
    (a neighbour's exit was statically routed through them)."""
    for key, _ in rec.fault_entries:
        if key not in keep:
            fault_table.entries.pop(key, None)
    for key, _ in rec.trap_entries:
        trap_table.pop(key, None)
