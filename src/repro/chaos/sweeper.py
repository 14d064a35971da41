"""Trampoline attack sweeper: force a jump to every patched byte.

The paper's determinism argument (§3.2, Fig. 2/4) is quantified over
*every* erroneous entry point: any indirect jump into a SMILE trampoline
— head, the jalr (P1), the pinned mid-parcels (P2/P3), padding,
relocated-neighbor boundaries — must either execute correctly (head) or
raise a fault the runtime recovers or kills deterministically.  The
sweeper checks that claim exhaustively: for each byte offset of each
patched region it builds a fresh process from the rewritten binary,
sets the pc there (the most adversarial indirect jump possible), and
classifies what happens under the real kernel + runtime.

Classification rules (see :mod:`repro.chaos.outcomes`):

* an entry that reaches ``.chimera.text`` or whose fault the runtime
  redirects is ``recovered-redirect``;
* a *modified original instruction boundary* must fault within
  ``GRACE_STEPS`` retired instructions — the P1 jalr legally retires
  once before its fetch faults, hence a grace window rather than zero;
  later (or never) means unintended instructions ran: ``silent-divergence``;
* a prompt fault the runtime declines is a ``deterministic-kill``
  (the kernel's default action), as is a structured
  :class:`~repro.sim.faults.UnrecoverableFault`;
* offsets that are not original boundaries (odd parcels,
  mid-instruction bytes) or whose bytes the rewriter never touched are
  architecturally unreachable / unchanged — ``benign-undefined`` unless
  the simulator crashes, which is always ``python-crash``.
"""

from __future__ import annotations

from typing import Optional

from repro.chaos.outcomes import (
    ADMISSION_ESCAPE,
    BENIGN_UNDEFINED,
    DETERMINISTIC_KILL,
    PYTHON_CRASH,
    RECOVERED_REDIRECT,
    SILENT_DIVERGENCE,
    AttackResult,
    SweepReport,
)
from repro.core.runtime import ChimeraRuntime
from repro.core.smile import smile_offset_label
from repro.elf.binary import Binary
from repro.elf.loader import make_process
from repro.isa.decoding import IllegalEncodingError, decode
from repro.isa.extensions import PROFILES
from repro.sim.faults import (
    EcallTrap,
    ExitRequest,
    SimFault,
    UnrecoverableFault,
)
from repro.sim.machine import Core, Kernel
from repro.sim.syscalls import handle_syscall
from repro.telemetry import current as telemetry_current
from repro.verify.records import patched_regions


class TrampolineAttackSweeper:
    """Sweep every patched byte of one rewritten binary."""

    #: Retired instructions a modified boundary may legally execute
    #: before its deterministic fault (the P1 jalr retires, then the
    #: fetch at its data-pointer target faults).
    GRACE_STEPS = 4
    #: Step budget per attack; entries that run this long without a
    #: fault are classified by the boundary/modified rules.
    MAX_STEPS = 64

    def __init__(
        self,
        original: Binary,
        rewritten: Binary,
        *,
        rewriter=None,
        max_regions: int = 0,
        injector=None,
        admitted: Optional[frozenset[int]] = None,
    ):
        meta = rewritten.metadata.get("chimera")
        if meta is None:
            raise ValueError(f"{rewritten.name} was not produced by ChimeraRewriter")
        self.original = original
        self.rewritten = rewritten
        self.rewriter = rewriter
        self.max_regions = max_regions
        #: Optional observer installed on every attack's CPU (e.g.
        #: PcAssertionInjector, which asserts fault.pc propagation on
        #: each of the thousands of faults a sweep raises).
        self.injector = injector
        #: Region starts the static admission gate admitted.  A hard
        #: failure inside an admitted region escalates to
        #: ``admission-escape``: every admitted region must survive the
        #: full P1/P2/P3 sweep, or the verifier's invariants are wrong.
        self.admitted = admitted
        self.regions = patched_regions(meta.get("patch_records", ()))
        self.core_profile = PROFILES[meta["target_profile"]]
        self._ct_range: Optional[tuple[int, int]] = None
        if rewritten.has_section(".chimera.text"):
            ct = rewritten.section(".chimera.text")
            self._ct_range = (ct.addr, ct.end)

    # -- enumeration -------------------------------------------------------

    def sweep(self, mode: str = "smile") -> SweepReport:
        """Attack every byte offset of every patched region."""
        report = SweepReport(binary=self.rewritten.name, mode=mode)
        regions = self.regions
        if self.max_regions > 0 and len(regions) > self.max_regions:
            report.skipped_regions = len(regions) - self.max_regions
            regions = regions[: self.max_regions]
        telemetry = telemetry_current()
        if self.admitted is not None:
            swept_starts = {start for start, _, _ in regions}
            report.verified_regions = len(self.admitted & swept_starts)
            report.rejected_regions = len(swept_starts - self.admitted)
        for start, end, kind in regions:
            boundaries = self._original_boundaries(start, end)
            for addr in range(start, end):
                result = self._attack(addr, start, end, kind, boundaries)
                if (self.admitted is not None and start in self.admitted
                        and result.outcome in (SILENT_DIVERGENCE, PYTHON_CRASH)):
                    result.outcome = ADMISSION_ESCAPE
                    result.detail = ("verifier admitted this region; "
                                     + result.detail)
                report.results.append(result)
                if telemetry.enabled:
                    telemetry.metrics.inc(
                        "chaos.outcomes", mode=mode, outcome=result.outcome)
        if telemetry.enabled and report.skipped_regions:
            telemetry.metrics.inc(
                "chaos.skipped_regions", report.skipped_regions, mode=mode)
        return report

    def _original_boundaries(self, start: int, end: int) -> dict[int, int]:
        """addr -> original instruction length for boundaries in [start, end).

        A patched region always starts at an original boundary; walking
        the *original* bytes from there recovers every interior one.
        """
        text = self.original.text
        bounds: dict[int, int] = {}
        addr = start
        while addr < end:
            try:
                instr = decode(text.data, addr - text.addr, addr=addr)
                length = instr.length
            except IllegalEncodingError:
                length = 2
            bounds[addr] = length
            addr += length
        return bounds

    def _bytes_modified(self, addr: int, length: int) -> bool:
        o, r = self.original.text, self.rewritten.text
        span = min(length, o.end - addr, r.end - addr)
        return o.read(addr, span) != r.read(addr, span)

    # -- one attack --------------------------------------------------------

    def _attack(
        self,
        addr: int,
        start: int,
        end: int,
        kind: str,
        boundaries: dict[int, int],
    ) -> AttackResult:
        offset = addr - start
        boundary = addr in boundaries
        modified = self._bytes_modified(addr, boundaries.get(addr, 1))
        if kind == "trap":
            label = "trap-site" if boundary else "trap-interior"
        else:
            label = smile_offset_label(offset)

        recovered = False
        entered_ct = False
        killed: Optional[SimFault] = None
        exited = False
        first_fault_step: Optional[int] = None
        steps = 0
        detail = ""
        try:
            kernel = Kernel()
            runtime = ChimeraRuntime(
                self.rewritten, rewriter=self.rewriter, original=self.original
            )
            runtime.install(kernel)
            process = make_process(self.rewritten)
            cpu = kernel.make_cpu(process, Core(0, self.core_profile))
            if self.injector is not None:
                self.injector.install(kernel=kernel, runtime=runtime, cpu=cpu)
            cpu.pc = addr  # the forced indirect jump
            while steps < self.MAX_STEPS:
                try:
                    cpu.step()
                except ExitRequest:
                    exited = True
                    break
                except EcallTrap:
                    try:
                        handle_syscall(kernel, process, cpu)
                    except ExitRequest:
                        exited = True
                        break
                    except UnrecoverableFault as unrec:
                        killed = unrec
                        detail = f"structured: {unrec.args[0]}"
                        break
                except SimFault as fault:
                    if first_fault_step is None:
                        first_fault_step = steps
                    try:
                        handled = kernel.dispatch_fault(process, cpu, fault)
                    except UnrecoverableFault as unrec:
                        killed = unrec
                        detail = f"structured: {unrec.args[0]}"
                        break
                    if handled:
                        recovered = True
                        detail = f"{type(fault).__name__} redirected"
                        break
                    killed = fault
                    detail = f"unhandled {type(fault).__name__}"
                    break
                steps += 1
                if self._ct_range and self._ct_range[0] <= cpu.pc < self._ct_range[1]:
                    entered_ct = True
                    detail = "flowed into .chimera.text"
                    break
        except Exception as exc:  # the one place a broad except is the point
            return AttackResult(
                addr, start, end, kind, offset, label, boundary, modified,
                PYTHON_CRASH, f"{type(exc).__name__}: {exc}",
            )

        outcome = self._classify(
            boundary, modified, recovered or entered_ct, killed, exited,
            first_fault_step,
        )
        return AttackResult(
            addr, start, end, kind, offset, label, boundary, modified,
            outcome, detail,
        )

    def _classify(
        self,
        boundary: bool,
        modified: bool,
        recovered: bool,
        killed: Optional[SimFault],
        exited: bool,
        first_fault_step: Optional[int],
    ) -> str:
        must_fault = boundary and modified
        late = first_fault_step is not None and first_fault_step > self.GRACE_STEPS
        if recovered:
            # Legal head entry, or a fault the runtime redirected.  A
            # *late* recovery still ran unintended instructions first.
            return SILENT_DIVERGENCE if (must_fault and late) else RECOVERED_REDIRECT
        if must_fault and (first_fault_step is None or late):
            # Ran unintended instructions: the hazard the paper rules out.
            return SILENT_DIVERGENCE
        if killed is not None:
            return DETERMINISTIC_KILL
        # No fault at all: step budget ran out or the program exited.
        del exited  # both are benign for non-promised entry points
        return BENIGN_UNDEFINED
