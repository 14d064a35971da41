"""CHBP: Correct and High-performance Binary Patching (paper §4.2).

Pipeline for one (binary, target profile) pair:

1. recursive scan + CFG + liveness (:mod:`repro.analysis`);
2. find *source instructions* — extension instructions the target core
   lacks (downgrade) or upgradeable idioms (:mod:`repro.core.upgrade`) —
   and group same-block source runs into batches (§4.2's optimization);
3. for each site choose a **trampoline window**: a run of whole original
   instructions covering >= 8 bytes that includes the first source and
   whose overwritten neighbors can be copied (no pc-relative semantics);
4. pick an **exit register**: provably dead at the exit position,
   shifting the exit forward (and copying the skipped instructions into
   the target block) when plain liveness fails (Fig. 8);
5. emit the **target block** into ``.chimera.text`` — gp restore, copied
   neighbors, translated sources, exit trampoline — placed at an address
   the SMILE encoding constraints can reach;
6. overwrite the window with the SMILE trampoline (+ padding parcels)
   and record every interior original instruction boundary in the
   fault-handling table.

Sites where no safe window or exit register exists fall back to
trap-based trampolines, mirroring the paper's ~1% residue.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Optional

from repro.analysis.cfg import build_cfg
from repro.analysis.liveness import LivenessAnalysis
from repro.analysis.scan import RecursiveScanner
from repro.core.fault_table import FaultTable
from repro.core.layout import add_vregs_section
from repro.core.smile import (
    SmilePlacementError,
    SmileTextAllocator,
    build_smile,
    padding_parcels,
    vanilla_trampoline,
)
from repro.core.translate import (
    TranslationContext,
    TranslationError,
    Translator,
    VREGS_REGION_SIZE,
)
from repro.core.upgrade import UpgradeSite, find_upgrade_sites
from repro.elf.binary import Binary, Perm, Section
from repro.isa.block import Block, TrapBlock, trap_parcel
from repro.isa.extensions import IsaProfile
from repro.isa.instructions import Instruction
from repro.isa.registers import Reg
from repro.sim.cost import ArchParams, DEFAULT_ARCH
from repro.telemetry import current as telemetry_current
from repro.verify.records import PatchRecord, install, patched_regions

#: Registers never usable as exit registers (ABI-pinned or special).
_EXIT_FORBIDDEN = frozenset({int(Reg.ZERO), int(Reg.SP), int(Reg.GP), int(Reg.TP), int(Reg.RA)})

#: Mnemonics that cannot be copied verbatim to a new address.
_UNCOPYABLE = frozenset({"auipc"})

#: How many instructions the exit-shifting walk may extend past the window.
_MAX_EXIT_SHIFT = 8

#: Registers the data-pointer SMILE variant may anchor on (see
#: :data:`repro.core.smile.SMILE_CAPABLE_REGS`, minus sp/gp themselves).
from repro.core.smile import SMILE_CAPABLE_REGS as _SMILE_CAPABLE

_DP_SMILE_REGS = frozenset(_SMILE_CAPABLE) - {int(Reg.SP), int(Reg.GP)}


@dataclass
class PatchStats:
    """Static rewriting statistics (these rows feed Table 3)."""

    source_instructions: int = 0
    trampolines: int = 0
    trap_fallbacks: int = 0
    batches: int = 0
    batched_sources: int = 0
    table_entries: int = 0
    padding_bytes: int = 0
    target_block_bytes: int = 0
    traditional_liveness_failures: int = 0
    exit_shift_rescues: int = 0
    dead_reg_not_found: int = 0
    exit_candidates: int = 0
    upgrade_sites: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(vars(self))


@dataclass
class _Site:
    """One patch site.

    ``elements`` is the main-path recipe, in original layout order:
    ``("source", Instruction)`` — translate; ``("copy", Instruction)`` —
    copy verbatim; ``("upgrade", UpgradeSite)`` — splice the replacement.
    ``secondary`` marks the preserved per-source trampolines of a batch.
    """

    elements: list[tuple[str, object]]
    first_addr: int
    secondary: bool = False

    @property
    def sources(self) -> list[Instruction]:
        out: list[Instruction] = []
        for kind, payload in self.elements:
            if kind == "source":
                out.append(payload)
            elif kind == "upgrade":
                out.extend(payload.instructions)
        return out

    def end(self) -> int:
        kind, payload = self.elements[-1]
        if kind == "upgrade":
            return payload.end
        return payload.addr + payload.length


class ChbpPatcher:
    """Run CHBP over one binary.

    Prefer :class:`repro.core.rewriter.ChimeraRewriter` as the public
    API; this class exposes the knobs the ablation benchmarks need
    (``batch_blocks``, ``shift_exits``, ``mode="empty"``).
    """

    def __init__(
        self,
        binary: Binary,
        target_profile: IsaProfile,
        *,
        arch: ArchParams = DEFAULT_ARCH,
        mode: str = "full",
        batch_blocks: bool = True,
        shift_exits: bool = True,
        enable_upgrades: bool = True,
        scan_entries: Optional[list[int]] = None,
        scan_address_taken: bool = False,
        smile_register: str = "gp",
        use_smile: bool = True,
    ):
        if smile_register not in ("gp", "data-pointer"):
            raise ValueError("smile_register must be 'gp' or 'data-pointer'")
        self.binary = binary
        self.target_profile = target_profile
        self.arch = arch
        self.mode = mode
        self.batch_blocks = batch_blocks
        self.shift_exits = shift_exits
        self.enable_upgrades = enable_upgrades
        self.scan_entries = scan_entries
        self.scan_address_taken = scan_address_taken
        #: "gp" uses the psABI global pointer (the paper's main design);
        #: "data-pointer" is the Fig. 5 fallback for ISAs without a
        #: gp-like register: the trampoline overwrites a lui+load pair
        #: whose register provably holds a data-segment address.
        self.smile_register = smile_register
        #: False forces every site onto trap-based trampolines — the
        #: all-fallback configuration the chaos harness sweeps alongside
        #: the SMILE design (the paper's baselines live here full-time).
        self.use_smile = use_smile
        self.compressed = bool(binary.metadata.get("has_rvc", True))
        self.stats = PatchStats()
        self.fault_table = FaultTable()
        self.trap_table: dict[int, int] = {}
        self._covered: set[int] = set()
        #: Original-address ranges whose semantics no longer align across
        #: rewritten variants (patched regions); migration must be delayed
        #: while the pc is inside one (paper §4.3).
        self.migration_unsafe: list[tuple[int, int]] = []
        #: One :class:`PatchRecord` per patched region, in patching order;
        #: each owns the table entries it installed (``_resolve_exits``
        #: re-points the trap records' resume addresses).
        self.patch_records: list[PatchRecord] = []
        #: (ebreak addr, window end) of upgrade epilogues: erroneous
        #: entries trap back to the window end.  No record owns these.
        self._epilogue_exits: list[tuple[int, int]] = []

    @property
    def patched_regions(self) -> list[tuple[int, int, str]]:
        """(start, end, kind) of every overwritten span (from the records)."""
        return patched_regions(self.patch_records)

    # -- top level --------------------------------------------------------

    def patch(self) -> Binary:
        """Produce the rewritten binary for the target profile."""
        telemetry = telemetry_current()
        with telemetry.span("patch", binary=self.binary.name,
                            target=self.target_profile.name):
            out = self.binary.clone(f"{self.binary.name}@{self.target_profile.name}")
            with telemetry.span("patch.analyze"):
                self.scan = RecursiveScanner(
                    seed_address_taken=self.scan_address_taken
                ).scan(self.binary, extra_entries=self.scan_entries)
                self.cfg = build_cfg(self.scan)
                self.liveness = LivenessAnalysis(self.cfg).run()

            vregs_base = self._add_vregs_section(out)
            self.translator = Translator(
                TranslationContext(vregs_base, self.binary.global_pointer), mode=self.mode
            )

            with telemetry.span("patch.collect_sites"):
                sites = self._collect_sites()
            ct_base = self._chimera_text_base(out)
            self._alloc = SmileTextAllocator(ct_base, compressed=self.compressed)
            self._blocks: dict[int, bytearray] = {}
            #: (block addr, trampoline offset, exit addr, exit reg) to resolve
            #: once every window is known.
            self._exit_fixups: list[tuple[int, int, int, int]] = []
            text = out.text

            with telemetry.span("patch.rewrite_sites", sites=len(sites)):
                for site in sites:
                    if site.first_addr in self._covered:
                        continue  # already overwritten as an earlier window's neighbor
                    if not self.use_smile:
                        patched = False
                    elif self.smile_register == "data-pointer":
                        patched = self._patch_site_data_pointer(site, text)
                    else:
                        patched = self._patch_site(site, text)
                    if not patched:
                        self._trap_fallback(site, text)

            with telemetry.span("patch.resolve_exits"):
                self._resolve_exits()

        if self._blocks:
            section_base = min(self._blocks) & ~0xF
            ct_data = bytearray(self._alloc.cursor - section_base)
            for addr, blob in self._blocks.items():
                off = addr - section_base
                ct_data[off:off + len(blob)] = blob
            out.add_section(Section(".chimera.text", section_base, ct_data, Perm.RX))
            out.add_symbol("__chimera_text", section_base, len(ct_data), kind="object")
            self.stats.target_block_bytes = len(ct_data)
            # Placement-constraint waste: gaps inside the emitted section
            # (the lead-in from the nominal base is never materialized).
            self.stats.padding_bytes += sum(
                min(ge, self._alloc.cursor) - max(gs, section_base)
                for gs, ge in self._alloc.free
                if ge > section_base and gs < self._alloc.cursor
            )
        out.metadata["chimera"] = {
            "fault_table": self.fault_table,
            "trap_table": dict(self.trap_table),
            "stats": self.stats,
            "gp": self.binary.global_pointer,
            "vregs_base": vregs_base,
            "target_profile": self.target_profile.name,
            "migration_unsafe": sorted(self.migration_unsafe),
            "patch_records": tuple(sorted(self.patch_records, key=lambda r: r.start)),
        }
        if telemetry.enabled:
            self._record_metrics(telemetry.metrics)
        return out

    def _finish(self, rec: PatchRecord) -> None:
        """Adopt a finished patch: install its table entries."""
        install(rec, self.fault_table, self.trap_table)
        self.stats.table_entries += len(rec.fault_entries)
        self.patch_records.append(rec)

    def _record_metrics(self, metrics) -> None:
        """Publish the patch ledger as ``patch.*`` metric series."""
        kinds = Counter(rec.kind for rec in self.patch_records)
        for kind, count in kinds.items():
            metrics.inc("patch.trampolines", count, kind=kind,
                        target=self.target_profile.name)
        for rec in self.patch_records:
            metrics.observe("patch.region_bytes", rec.end - rec.start)
        for name, value in self.stats.as_dict().items():
            if name == "trampolines":
                continue  # covered by the kind-labeled series above
            metrics.inc(f"patch.{name}", value, target=self.target_profile.name)

    # -- setup helpers ---------------------------------------------------

    def _add_vregs_section(self, out: Binary) -> int:
        base = add_vregs_section(out)
        out.add_symbol("__chimera_vregs", base, VREGS_REGION_SIZE, kind="object")
        return base

    def _chimera_text_base(self, out: Binary) -> int:
        top = max(s.end for s in out.sections)
        return (top + 0xFFFF) & ~0xFFFF

    # -- site discovery ----------------------------------------------------

    def _needs_downgrade(self, instr: Instruction) -> bool:
        if instr.extension in self.target_profile.extensions:
            return False
        if self.mode == "empty":
            return True
        return self.translator.can_translate(instr)

    def _collect_sites(self) -> list[_Site]:
        downgrades = [
            instr for _, instr in sorted(self.scan.instructions.items())
            if self._needs_downgrade(instr)
        ]
        pattern_sites: list[UpgradeSite] = []
        if self.enable_upgrades and self.mode == "full":
            pattern_sites = find_upgrade_sites(self.scan, self.cfg, self.liveness, self.target_profile)
        if self.mode == "full":
            from repro.core.downgrade_loops import find_downgrade_loop_sites

            pattern_sites += find_downgrade_loop_sites(
                self.scan, self.cfg, self.liveness, self.target_profile
            )
        upgrade_sites = pattern_sites
        upgraded_addrs = {i.addr for u in upgrade_sites for i in u.instructions}
        downgrades = [i for i in downgrades if i.addr not in upgraded_addrs]
        self.stats.source_instructions = len(downgrades) + sum(
            len(u.instructions) for u in upgrade_sites
        )
        self.stats.upgrade_sites = len(upgrade_sites)

        sites: list[_Site] = []
        if self.batch_blocks:
            sites.extend(self._batch_downgrades(downgrades))
        else:
            sites.extend(_Site([("source", i)], i.addr) for i in downgrades)
        sites.extend(_Site([("upgrade", u)], u.start) for u in upgrade_sites)
        sites.sort(key=lambda s: (s.first_addr, s.secondary))
        return sites

    def _batch_downgrades(self, downgrades: list[Instruction]) -> list[_Site]:
        """Merge same-block source runs; emit preserved secondary sites."""
        sites: list[_Site] = []
        i = 0
        while i < len(downgrades):
            first = downgrades[i]
            block = self.cfg.block_containing(first.addr)
            elements: list[tuple[str, object]] = [("source", first)]
            j = i + 1
            last = first
            while j < len(downgrades):
                nxt = downgrades[j]
                if block is None or self.cfg.block_containing(nxt.addr) is not block:
                    break
                between = self._instructions_between(last, nxt)
                if between is None or any(not self._copyable(b) for b in between):
                    break
                elements.extend(("copy", b) for b in between)
                elements.append(("source", nxt))
                last = nxt
                j += 1
            sites.append(_Site(elements, first.addr))
            if j > i + 1:
                self.stats.batches += 1
                self.stats.batched_sources += j - i
                # Preserve per-source trampolines for external jumps into
                # the block ("all original trampolines ... are preserved").
                # Each is the tail batch starting at that source, so its
                # window may legitimately cover the following sources.
                source_positions = [
                    pos for pos, (kind, _) in enumerate(elements) if kind == "source"
                ]
                for pos in source_positions[1:]:
                    tail = elements[pos:]
                    sites.append(_Site(tail, tail[0][1].addr, secondary=True))
            i = j
        return sites

    def _instructions_between(self, a: Instruction, b: Instruction) -> Optional[list[Instruction]]:
        out: list[Instruction] = []
        addr = a.addr + a.length
        while addr < b.addr:
            instr = self.scan.instructions.get(addr)
            if instr is None:
                return None
            out.append(instr)
            addr += instr.length
        return out if addr == b.addr else None

    def _copyable(self, instr: Instruction) -> bool:
        """True if *instr* keeps its semantics at a different pc."""
        if instr.mnemonic in _UNCOPYABLE:
            return False
        if instr.is_direct_control() or instr.is_terminator():
            return False
        return True

    # -- window selection ----------------------------------------------------

    def _build_window(self, site: _Site) -> Optional[list[Instruction]]:
        first = site.first_addr
        starts = [first]
        if first not in self.scan.direct_targets:
            # Shifting the window start left is only acceptable when no
            # direct jump targets the source (each such jump would fault).
            prev1 = self._prev_instr(first)
            if prev1 is not None and self._copyable(prev1):
                starts.append(prev1.addr)
                prev2 = self._prev_instr(prev1.addr)
                if prev2 is not None and self._copyable(prev2):
                    starts.append(prev2.addr)
        special = self._site_addr_map(site)
        for start in starts:
            window = self._window_from(start, special)
            if window is not None:
                return window
        return None

    def _site_addr_map(self, site: _Site) -> dict[int, tuple[str, object]]:
        """Map original addresses handled specially by this site."""
        out: dict[int, tuple[str, object]] = {}
        for kind, payload in site.elements:
            if kind == "upgrade":
                for instr in payload.instructions:
                    out[instr.addr] = ("upgrade-member", payload)
                out[payload.start] = ("upgrade", payload)
            else:
                out[payload.addr] = (kind, payload)
        return out

    def _prev_instr(self, addr: int) -> Optional[Instruction]:
        for length in (2, 4):
            instr = self.scan.instructions.get(addr - length)
            if instr is not None and instr.addr + instr.length == addr:
                return instr
        return None

    def _window_from(self, start: int, special: dict[int, tuple[str, object]]) -> Optional[list[Instruction]]:
        window: list[Instruction] = []
        span = 0
        addr = start
        while span < 8:
            instr = self.scan.instructions.get(addr)
            if instr is None or instr.addr in self._covered:
                return None
            if addr != start and addr in self.scan.direct_targets:
                # A static branch targets this neighbor: overwriting it
                # would make that branch fault on every execution.
                return None
            if instr.addr not in special:
                if not self._copyable(instr) or self._needs_downgrade(instr):
                    return None
            window.append(instr)
            span += instr.length
            addr += instr.length
        return window

    # -- exit selection ----------------------------------------------------

    def _select_exit(self, natural_exit: int) -> tuple[Optional[int], Optional[int], list[Instruction]]:
        """(exit address, dead register, extra copies) — §4.2 challenge 2."""
        self.stats.exit_candidates += 1
        reg = self._dead_reg_at(natural_exit)
        if reg is not None:
            return natural_exit, reg, []
        self.stats.traditional_liveness_failures += 1
        if not self.shift_exits:
            self.stats.dead_reg_not_found += 1
            return None, None, []
        copies: list[Instruction] = []
        addr = natural_exit
        for _ in range(_MAX_EXIT_SHIFT):
            instr = self.scan.instructions.get(addr)
            if instr is None or not self._copyable(instr) or self._needs_downgrade(instr):
                break
            copies.append(instr)
            addr += instr.length
            reg = self._dead_reg_at(addr)
            if reg is not None:
                self.stats.exit_shift_rescues += 1
                return addr, reg, copies
        self.stats.dead_reg_not_found += 1
        return None, None, []

    def _dead_reg_at(self, addr: int) -> Optional[int]:
        dead = self.liveness.dead_before(addr) - _EXIT_FORBIDDEN
        return min(dead) if dead else None

    # -- patching one site -----------------------------------------------------

    def _patch_site(self, site: _Site, text: Section) -> bool:
        window = self._build_window(site)
        if window is None:
            return False
        window_start = window[0].addr
        window_end = window[-1].addr + window[-1].length
        span = window_end - window_start

        main, epilogue = self._main_path(site, window, window_end)
        if main is None:
            return False

        natural_exit = max(window_end, site.end())
        exit_addr, exit_reg, exit_copies = self._select_exit(natural_exit)
        if exit_addr is None:
            return False
        main = main + [("copy", c) for c in exit_copies]

        try:
            block_addr, block_bytes, entries = self._emit_block(
                main, epilogue, window_start, window_end, exit_addr, exit_reg
            )
        except (TranslationError, SmilePlacementError):
            return False

        self._blocks[block_addr] = block_bytes

        tramp = build_smile(window_start, block_addr, compressed=self.compressed)
        patch = bytearray(tramp.encode())
        if span > 8:
            boundaries = [i.addr for i in window[1:]]
            pad_has_boundary = any(b >= window_start + 8 for b in boundaries)
            patch.extend(padding_parcels(span - 8, boundary_in_padding=pad_has_boundary))
        original_bytes = text.read(window_start, span)
        text.write(window_start, bytes(patch))
        self.stats.trampolines += 1

        restart_head = any(
            kind == "upgrade" and payload.entry_policy == "restart-head"
            for kind, payload in site.elements
        )
        fault_entries: list[tuple[int, int]] = []
        for baddr in (i.addr for i in window[1:]):
            target = entries.get(baddr)
            if target is None and restart_head:
                # Idempotent-loop replacement: erroneous entries restart
                # at the trampoline head (see downgrade_loops docstring).
                target = window_start
            if target is not None:
                fault_entries.append((baddr, target))
        self._covered.update(i.addr for i in window)
        self.migration_unsafe.append((window_start, max(window_end, site.end())))
        self._finish(PatchRecord(
            start=window_start,
            end=window_end,
            kind="smile",
            original_bytes=original_bytes,
            patched_bytes=bytes(patch),
            block_addr=block_addr,
            resume=exit_addr,
            smile_reg=int(Reg.GP),
            fault_entries=tuple(fault_entries),
            sources=tuple(
                (i.addr, original_bytes[i.addr - window_start:
                                        i.addr - window_start + i.length].hex())
                for i in site.sources
                if window_start <= i.addr < window_end
            ),
        ))
        return True

    # -- Fig. 5: SMILE via a general data-pointer register ------------------

    def _patch_site_data_pointer(self, site: _Site, text: Section) -> bool:
        """Patch using the general-register SMILE variant (paper Fig. 5).

        Instead of overwriting the source's neighbors, the trampoline
        replaces a preceding ``lui rX, hi ; <load/store> ..(rX)`` pair
        whose register provably holds a data-segment address — so a
        partial execution (P1) jumps through that stale data pointer and
        faults deterministically.  Sites without such a pair fall back
        to trap trampolines, which is exactly the increased reliance the
        paper predicts for gp-less ISAs (§3.3).
        """
        from repro.elf.binary import Perm
        from repro.isa.fields import sign_extend as _sext

        if any(kind == "upgrade" for kind, _ in site.elements):
            return False  # keep the variant focused on plain downgrades
        first = site.first_addr
        block = self.cfg.block_containing(first)
        if block is None:
            return False
        instrs = block.instructions
        idx = next((i for i, ins in enumerate(instrs) if ins.addr == first), None)
        if idx is None:
            return False
        # Search backwards for the lui/data-access pair.
        pair = None
        for k in range(idx - 2, -1, -1):
            lui, mem = instrs[k], instrs[k + 1]
            if lui.mnemonic != "lui" or lui.length != 4 or mem.length != 4:
                continue
            if mem.mnemonic not in ("lb", "lh", "lw", "ld", "lbu", "lhu", "lwu",
                                    "sb", "sh", "sw", "sd"):
                continue
            if mem.rs1 != lui.rd or lui.rd not in _DP_SMILE_REGS:
                continue
            target = _sext((lui.imm << 12) & 0xFFFFFFFF, 32) + (mem.imm or 0)
            seg = self.binary.section_at(target)
            if seg is None or Perm.X in seg.perm:
                continue  # pointer must land in non-executable data
            if mem.rd == lui.rd:
                continue  # load clobbers the pointer: P1 gp-analog breaks
            # Nothing between the pair and the source may redefine rX or
            # be uncopyable; nothing may be a direct branch target.
            between = instrs[k + 2: idx]
            if any(not self._copyable(i) or lui.rd in i.regs_written() for i in between):
                continue
            if any(i.addr in self.scan.direct_targets for i in instrs[k + 1: idx + 1]):
                continue
            if any(i.addr in self._covered for i in instrs[k:idx + 1]):
                continue
            pair = (lui, mem, between)
            break
        if pair is None:
            return False
        lui, mem, between = pair
        reg = lui.rd

        window = [lui, mem]
        window_start = lui.addr
        window_end = mem.addr + mem.length
        # Main path: reconstructed pair (the lui naturally restores rX
        # after jalr clobbered it), intervening copies, then the site.
        main: list[tuple[str, object]] = [("copy", lui), ("copy", mem)]
        main += [("copy", i) for i in between]
        main += list(site.elements)

        natural_exit = site.end()
        exit_addr, exit_reg, exit_copies = self._select_exit(natural_exit)
        if exit_addr is None:
            return False
        main += [("copy", c) for c in exit_copies]

        try:
            block_addr, block_bytes, entries = self._emit_block(
                main, [], window_start, window_end, exit_addr, exit_reg,
                smile_reg=reg,
            )
            tramp = build_smile(window_start, block_addr,
                                compressed=self.compressed, reg=reg)
        except (TranslationError, SmilePlacementError):
            return False
        self._blocks[block_addr] = block_bytes
        original_bytes = text.read(window_start, window_end - window_start)
        # The sources themselves stay original in text (only the pointer
        # pair is overwritten) — capture them for rollback re-trapping.
        sources = tuple(
            (i.addr, text.read(i.addr, i.length).hex()) for i in site.sources
        )
        text.write(window_start, tramp.encode())
        self.stats.trampolines += 1
        self._covered.update(i.addr for i in window)
        self._covered.update(i.addr for i in site.sources)
        self.migration_unsafe.append((window_start, max(window_end, site.end())))
        self._finish(PatchRecord(
            start=window_start,
            end=window_end,
            kind="smile-dp",
            original_bytes=original_bytes,
            patched_bytes=tramp.encode(),
            block_addr=block_addr,
            resume=exit_addr,
            smile_reg=reg,
            # P1 = the mem slot; its copied reconstruction is the redirect.
            fault_entries=((mem.addr, entries[mem.addr]),),
            sources=sources,
        ))
        return True

    def _main_path(
        self, site: _Site, window: list[Instruction], window_end: int
    ) -> tuple[Optional[list], list]:
        """Split the site into (main-path elements, erroneous-entry epilogue).

        Main path is what normal execution runs inside the target block;
        the epilogue holds duplicate copies of upgrade-pattern members
        that fall inside the window (Fig. 6b) — normal flow skips them,
        erroneous entries land on them and trap back to the window end.
        """
        special = self._site_addr_map(site)
        main: list[tuple[str, object]] = []
        epilogue: list[Instruction] = []
        emitted_upgrades: set[int] = set()
        for instr in window:
            tag = special.get(instr.addr)
            if tag is None:
                main.append(("copy", instr))
                continue
            kind, payload = tag
            if kind == "upgrade":
                main.append(("upgrade", payload))
                emitted_upgrades.add(id(payload))
            elif kind == "upgrade-member":
                if id(payload) not in emitted_upgrades:
                    return None, []  # window starts mid-pattern; unsupported
                if payload.entry_policy == "restart-head":
                    continue  # boundary maps back to the trampoline head
                if not self._copyable(instr):
                    return None, []
                epilogue.append(instr)
            else:
                main.append((kind, payload))
        # Batched elements beyond the window.
        window_addrs = {i.addr for i in window}
        for kind, payload in site.elements:
            if kind == "upgrade":
                continue
            if payload.addr not in window_addrs and payload.addr >= window_end:
                main.append((kind, payload))
        return main, epilogue

    def _emit_block(
        self,
        main: list[tuple[str, object]],
        epilogue: list[Instruction],
        window_start: int,
        window_end: int,
        exit_addr: int,
        exit_reg: int,
        smile_reg: Optional[int] = None,
    ) -> tuple[int, bytearray, dict[int, int]]:
        """Build and place one target block; returns (addr, bytes,
        original boundary -> block address).

        With the default gp-based SMILE the prologue restores gp; the
        data-pointer variant needs no restore — its jump register is
        redefined by the reconstructed ``lui`` at the block head.
        """
        block = Block()
        if smile_reg is None:
            block.li(int(Reg.GP), self.binary.global_pointer)
        entry_addrs: list[int] = []
        for kind, payload in main:
            addr = payload.start if kind == "upgrade" else payload.addr
            entry_addrs.append(addr)
            block.bind(addr)
            if kind == "copy":
                block.emit(self._copy(payload))
            elif kind == "source":
                block.extend(self.translator.translate(payload))
            else:
                block.extend(payload.replacement)
        block.bind("exit")
        block.space(8)
        if epilogue:
            for instr in epilogue:
                entry_addrs.append(instr.addr)
                block.bind(instr.addr)
                block.emit(self._copy(instr))
            block.bind("epilogue-exit")
            block.emit(Instruction("ebreak"))

        encoded = block.encode()
        labels = encoded.labels
        block_addr = self._alloc.place(window_start, len(encoded.code))
        # Deferred: the exit target may later be overwritten by another
        # site's window; _resolve_exits patches the final trampoline.
        self._exit_fixups.append((block_addr, labels["exit"], exit_addr, exit_reg))
        if epilogue:
            # Cold path: erroneous entries resume at the window end via a trap.
            self._epilogue_exits.append(
                (block_addr + labels["epilogue-exit"], window_end))
        entries = {addr: block_addr + labels[addr] for addr in entry_addrs}
        return block_addr, bytearray(encoded.code), entries

    def _resolve_exits(self) -> None:
        """Finalize exit trampolines and trap resume addresses.

        An exit position recorded while patching site *i* may since have
        become the interior of site *j*'s trampoline window (j > i);
        jumping there would fault on every execution.  Re-route such
        exits through the fault table: jump straight to the copied
        instruction in *j*'s target block instead.
        """
        def resolve(addr: int) -> int:
            return self.fault_table.lookup(addr) or addr

        for block_addr, tramp_off, exit_addr, exit_reg in self._exit_fixups:
            data = self._blocks[block_addr]
            data[tramp_off:tramp_off + 8] = vanilla_trampoline(
                block_addr + tramp_off, resolve(exit_addr), exit_reg
            )
        for key, resume in self._epilogue_exits:
            self.trap_table[key] = resolve(resume)
        for idx, rec in enumerate(self.patch_records):
            if rec.trap_entries:
                rec = replace(rec, trap_entries=tuple(
                    (key, resolve(target)) for key, target in rec.trap_entries))
                install(rec, self.fault_table, self.trap_table)
                self.patch_records[idx] = rec

    def _copy(self, instr: Instruction) -> Instruction:
        if not self._copyable(instr):
            raise TranslationError(f"cannot copy {instr.mnemonic} to a new pc")
        return instr

    # -- trap fallback -------------------------------------------------------

    def _trap_fallback(self, site: _Site, text: Section) -> None:
        """Patch each source with a trap-based trampoline (paper's residue)."""
        for kind, payload in site.elements:
            if kind == "copy":
                continue
            if kind == "upgrade":
                instr = payload.instructions[0]
                body = payload.replacement
                resume = payload.end
            else:
                instr = payload
                if instr.addr in self._covered:
                    continue
                body = self.translator.translate(instr)
                resume = instr.addr + instr.length
            block = TrapBlock.place(body, self._alloc.place_unconstrained)
            self._blocks[block.addr] = block.code
            trap = trap_parcel(instr.length)
            original_bytes = text.read(instr.addr, instr.length)
            text.write(instr.addr, trap)
            self.stats.trap_fallbacks += 1
            self._covered.add(instr.addr)
            self.migration_unsafe.append((instr.addr, resume))
            self._finish(PatchRecord(
                start=instr.addr,
                end=instr.addr + instr.length,
                kind="trap",
                original_bytes=original_bytes,
                patched_bytes=trap,
                block_addr=block.addr,
                resume=resume,
                smile_reg=int(Reg.GP),
                trap_entries=block.trap_entries(instr.addr, resume),
            ))
