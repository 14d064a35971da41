"""Public static-rewriting API.

``ChimeraRewriter`` wraps :class:`~repro.core.patcher.ChbpPatcher` and
produces one rewritten binary per target ISA profile (the per-core
images an MMView process loads).  A deliberate *scan gap* can be
injected to exercise the runtime-rewriting path for unrecognized
instructions (§4.1: recursive disassembly "does not ensure
completeness").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.patcher import ChbpPatcher, PatchStats
from repro.elf.binary import Binary
from repro.isa.extensions import IsaProfile
from repro.sim.cost import ArchParams, DEFAULT_ARCH
from repro.telemetry import current as telemetry_current


@dataclass
class RewriteResult:
    """One rewritten binary plus its rewriting metadata."""

    binary: Binary
    target_profile: IsaProfile
    stats: PatchStats
    #: Liveness analysis of the *source* binary, as computed by the
    #: patcher for its exit-register proofs.  The admission gate's
    #: differential oracle needs the same analysis; handing it over
    #: avoids recomputing scan+cfg+dataflow during verification.
    liveness: object = None

    @property
    def fault_table(self):
        return self.binary.metadata["chimera"]["fault_table"]

    @property
    def trap_table(self) -> dict[int, int]:
        return self.binary.metadata["chimera"]["trap_table"]


class ChimeraRewriter:
    """Rewrite a binary for one or many target ISA profiles.

    Parameters mirror the ablation axes of the evaluation:

    * ``mode`` — ``"full"`` (real translation) or ``"empty"``
      (empty-patching, §6.2: targets replicate the sources; isolates
      rewriting overhead);
    * ``batch_blocks`` — §4.2's same-basic-block batching optimization;
    * ``shift_exits`` — exit-position shifting when liveness fails;
    * ``enable_upgrades`` — idiom upgrading (Zba fusion, vectorization).
    """

    def __init__(
        self,
        *,
        arch: ArchParams = DEFAULT_ARCH,
        mode: str = "full",
        batch_blocks: bool = True,
        shift_exits: bool = True,
        enable_upgrades: bool = True,
        scan_address_taken: bool = False,
        smile_register: str = "gp",
        use_smile: bool = True,
    ):
        self.arch = arch
        self.mode = mode
        self.batch_blocks = batch_blocks
        self.shift_exits = shift_exits
        self.enable_upgrades = enable_upgrades
        self.scan_address_taken = scan_address_taken
        self.smile_register = smile_register
        self.use_smile = use_smile

    def rewrite(
        self,
        binary: Binary,
        target_profile: IsaProfile,
        *,
        scan_entries: Optional[list[int]] = None,
    ) -> RewriteResult:
        """Rewrite *binary* so it runs correctly on *target_profile* cores."""
        patcher = ChbpPatcher(
            binary,
            target_profile,
            arch=self.arch,
            mode=self.mode,
            batch_blocks=self.batch_blocks,
            shift_exits=self.shift_exits,
            enable_upgrades=self.enable_upgrades,
            scan_entries=scan_entries,
            scan_address_taken=self.scan_address_taken,
            smile_register=self.smile_register,
            use_smile=self.use_smile,
        )
        with telemetry_current().span("rewrite", binary=binary.name,
                                      target=target_profile.name):
            rewritten = patcher.patch()
        return RewriteResult(rewritten, target_profile, patcher.stats,
                             liveness=getattr(patcher, "liveness", None))
