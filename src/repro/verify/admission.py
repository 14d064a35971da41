"""Static admission gate: verify every patched region before release.

Four checks per :class:`~repro.verify.records.PatchRecord` (DESIGN.md
"Verified patching"):

* **encoding** — the released text bytes equal the record's golden
  patch, the SMILE bit-pinning invariants hold on those live bytes
  (bits 16-20 of the auipc U field pinned to ``11111``, reserved P2/P3
  parcels), padding parcels that cover an original boundary stay
  reserved, and trap patches are real ebreaks;
* **target** — the trampoline's computed target lands inside
  ``.chimera.text`` and decodes, and the P1 data pointer (gp, or the
  Fig. 5 register's reconstructed value) points into non-executable
  memory so partial execution faults;
* **cfg** — every interior original boundary is either redirected by
  the fault table (to a legal, executable target) or sits on a parcel
  that faults deterministically; a bounded walk of the relocated block
  re-resolves every copied branch and refuses unresolvable indirect
  jumps the original window never had;
* **oracle** — the bounded differential oracle
  (:mod:`repro.verify.oracle`) co-executes the window against the
  original under randomized state.

A region is *admitted* iff every check passes.  ``python -m repro
verify`` drives the gate; the chaos sweeper cross-checks admitted
regions against the full P1/P2/P3 attack sweep (any hard failure in an
admitted region is an ``admission-escape``).
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro.core.procpool import (
    FaultIsolatedPool,
    PoolBrokenError,
    RegionWorkItem,
)
from repro.core.smile import smile_window_target, smile_window_violations
from repro.elf.binary import Binary, Perm
from repro.isa.decoding import IllegalEncodingError, decode
from repro.isa.fields import sign_extend
from repro.resilience.failures import (
    POOL_BROKEN,
    RESOLVED_QUARANTINED,
    RESOLVED_RETRIED,
    VERIFY_ERROR,
    WORKER_CRASH,
    WORKER_HANG,
    DeadlineExceededError,
    RegionFault,
)
from repro.resilience.policy import PIPELINE_RETRY_POLICY, RetryPolicy
from repro.resilience.seeds import resolve_seed
from repro.telemetry import current as telemetry_current
from repro.verify.oracle import DifferentialOracle
from repro.verify.records import PatchRecord
from repro.verify.report import CheckResult, RegionVerdict, VerifyReport

#: Bounded relocated-block walk length (instructions).
_WALK_BUDGET = 96

EXECUTORS = ("serial", "process")


class AdmissionGate:
    """Verify one (original, rewritten) pair region by region."""

    def __init__(
        self,
        original: Binary,
        rewritten: Binary,
        *,
        seed: Optional[int] = None,
        oracle_trials: int = 2,
        oracle_max_steps: int = 512,
        max_oracle_regions: int = 0,
        jobs: int = 1,
        liveness=None,
        executor: str = "serial",
        region_timeout: Optional[float] = None,
        retry_policy: Optional[RetryPolicy] = None,
        injector=None,
        slots=None,
        job_id=None,
        deadline: Optional[float] = None,
    ):
        meta = rewritten.metadata.get("chimera")
        if meta is None:
            raise ValueError(f"{rewritten.name} was not produced by ChimeraRewriter")
        records = meta.get("patch_records")
        if records is None:
            raise ValueError(
                f"{rewritten.name} carries no patch records; re-rewrite with a "
                "current patcher before verification")
        self.original = original
        self.rewritten = rewritten
        self.meta = meta
        self.records: tuple[PatchRecord, ...] = tuple(records)
        self.seed = resolve_seed(seed)
        self.compressed = bool(original.metadata.get("has_rvc", True))
        #: 0 = run the oracle on every region; a positive cap bounds the
        #: expensive co-execution on large synthetic binaries (static
        #: checks always run on all regions; the skip is reported).
        self.max_oracle_regions = max_oracle_regions
        #: Worker processes for the per-region fan-out.  Each trial's RNG
        #: is derived from (seed, region, trial) alone, so results are
        #: identical for any job count; only the wall-clock changes.
        self.jobs = max(1, jobs)
        #: Execution substrate for the fan-out: "serial" runs in-line,
        #: "process" dispatches picklable work items to a
        #: :class:`~repro.core.procpool.FaultIsolatedPool` so a crashed
        #: or hung region can never take down the release verification.
        if executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; choose from {EXECUTORS}")
        self.executor = executor
        #: Wall-clock watchdog per region (process executor only; an
        #: in-line region cannot be killed).  None disables the watchdog.
        self.region_timeout = region_timeout
        self.retry_policy = retry_policy or PIPELINE_RETRY_POLICY
        #: Optional chaos hook (``before_region(idx, attempt, record)``)
        #: consulted before every verification attempt.
        self.injector = injector
        #: Optional :class:`~repro.core.procpool.WorkerSlotArbiter` the
        #: batch service shares across concurrent jobs (process
        #: executor only): the pool sizes itself to its fair share.
        self.slots = slots
        self.job_id = job_id
        #: Absolute ``time.monotonic()`` instant the whole run must not
        #: outlive; checked between regions and between retry attempts,
        #: and threaded into the process pool's scheduling loop.
        self.deadline = deadline
        self.oracle = DifferentialOracle(
            original, rewritten, seed=self.seed,
            trials=oracle_trials, max_steps=oracle_max_steps,
            liveness=liveness)
        self._ct = (rewritten.section(".chimera.text")
                    if rewritten.has_section(".chimera.text") else None)

    # -- public API ---------------------------------------------------------

    def verify(
        self,
        *,
        on_region: Optional[Callable[[int, RegionVerdict, bool], None]] = None,
        precomputed: Optional[dict[int, tuple[RegionVerdict, bool]]] = None,
    ) -> VerifyReport:
        """Verify every region and assemble the ledger.

        ``on_region(idx, verdict, oracle_ran)`` fires the moment each
        *fresh, non-quarantined* verdict settles — the run journal hangs
        off it.  ``precomputed`` (index -> (verdict, oracle_ran)) skips
        regions a resumed run already settled; verdicts are merged back
        in record order so the report is byte-identical either way.
        """
        telemetry = telemetry_current()
        report = VerifyReport(
            binary=self.rewritten.name,
            target=self.meta["target_profile"],
            seed=self.seed,
        )
        done: dict[int, tuple[RegionVerdict, bool]] = dict(precomputed or {})
        faults: list[RegionFault] = []
        indices = [idx for idx in range(len(self.records)) if idx not in done]
        with telemetry.span("verify.admission", binary=self.rewritten.name,
                            regions=len(self.records), jobs=self.jobs,
                            executor=self.executor):
            if indices:
                if self.executor == "process":
                    self._verify_process(indices, done, faults, on_region,
                                         telemetry)
                else:
                    for idx in indices:
                        self._check_deadline()
                        self._settle(idx, *self._verify_with_retry(idx),
                                     done=done, faults=faults,
                                     on_region=on_region)
            for idx in sorted(done):
                verdict, oracle_ran = done[idx]
                if not oracle_ran:
                    report.oracle_skipped += 1
                report.regions.append(verdict)
                if telemetry.enabled:
                    telemetry.metrics.inc(
                        "verify.regions", kind=verdict.kind,
                        admitted=str(verdict.admitted).lower())
        faults.sort(key=lambda f: (f.start, f.attempt, f.fault))
        report.faults.extend(faults)
        return report

    # -- executors ----------------------------------------------------------

    def _check_deadline(self) -> None:
        """Raise if the job's end-to-end deadline has passed.  Raised
        *between* units of work, never inside a region's try block —
        the pipeline converts it into a structured fault and the run
        journal keeps every verdict settled so far."""
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise DeadlineExceededError(
                f"job deadline expired during verification of "
                f"{self.rewritten.name}")

    def _settle(self, idx, verdict, oracle_ran, region_faults, *,
                done, faults, on_region) -> None:
        faults.extend(region_faults)
        if verdict is None:  # quarantined: retries exhausted
            done[idx] = (self._quarantine_verdict(idx, region_faults), False)
            return
        done[idx] = (verdict, oracle_ran)
        if on_region is not None:
            on_region(idx, verdict, oracle_ran)

    def _verify_process(self, indices, done, faults, on_region,
                        telemetry) -> None:
        """Fan out across a crash-/hang-tolerant process pool.

        Forked workers verify on their inherited copy of this gate, whose
        seed is already resolved, so verdicts depend only on (gate,
        region index) — identical bytes regardless of worker, attempt,
        or a mid-run ``REPRO_FUZZ_SEED`` change.
        """
        items = [RegionWorkItem(idx, self.records[idx].start,
                                self.records[idx].end, self.records[idx].kind,
                                self.seed)
                 for idx in indices]
        pool_quarantined: set[int] = set()

        def on_complete(outcome) -> None:
            faults.extend(outcome.faults)
            if outcome.quarantined:
                if all(f.fault in (WORKER_CRASH, WORKER_HANG)
                       for f in outcome.faults):
                    pool_quarantined.add(outcome.index)
                done[outcome.index] = (
                    self._quarantine_verdict(outcome.index, outcome.faults),
                    False)
                return
            verdict = RegionVerdict.from_dict(outcome.verdict)
            done[outcome.index] = (verdict, outcome.oracle_ran)
            if on_region is not None:
                on_region(outcome.index, verdict, outcome.oracle_ran)

        try:
            pool = FaultIsolatedPool(
                self, self.jobs, region_timeout=self.region_timeout,
                retry_policy=self.retry_policy, telemetry=telemetry,
                labels={"binary": self.rewritten.name},
                slots=self.slots,
                job_id=self.job_id if self.job_id is not None
                else self.rewritten.name,
                deadline=self.deadline)
            pool.run(items, on_complete=on_complete)
        except PoolBrokenError as exc:
            # The pool itself could not be brought up (no fork on this
            # host, workers dying before ready, ...).  Verification must
            # still complete: record the fault and finish in-process.
            if telemetry.enabled:
                telemetry.metrics.inc("pipeline.pool_fallbacks",
                                      binary=self.rewritten.name)
            first, last = self.records[0], self.records[-1]
            faults.append(RegionFault(
                start=first.start, end=last.end, region_kind="pipeline",
                fault=POOL_BROKEN, attempt=1, detail=str(exc)))
            for idx in indices:
                if idx in pool_quarantined:
                    # The quarantine was an artifact of the collapsing
                    # pool (only crash/hang faults, never an in-process
                    # verdict): the serial redo below is its real retry.
                    done.pop(idx, None)
                    rec = self.records[idx]
                    for fault in faults:
                        if fault.start == rec.start and fault.fault in (
                                WORKER_CRASH, WORKER_HANG):
                            fault.resolution = RESOLVED_RETRIED
                if idx in done:
                    continue
                self._settle(idx, *self._verify_with_retry(idx), done=done,
                             faults=faults, on_region=on_region)

    def _verify_with_retry(
        self, idx: int
    ) -> tuple[Optional[RegionVerdict], bool, list[RegionFault]]:
        """In-process retry ladder for the serial executor and
        the pool-broken fallback.  Catches exceptions (``verify-error``
        faults) — a hung region cannot be recovered without a process
        boundary, which is what the process executor is for."""
        rec = self.records[idx]
        telemetry = telemetry_current()
        region_faults: list[RegionFault] = []
        attempt = 1
        while True:
            self._check_deadline()
            try:
                verdict, oracle_ran = self.verify_region_once(idx,
                                                              attempt=attempt)
                return verdict, oracle_ran, region_faults
            except Exception as exc:  # noqa: BLE001 - becomes a RegionFault
                fault = RegionFault(
                    start=rec.start, end=rec.end, region_kind=rec.kind,
                    fault=VERIFY_ERROR, attempt=attempt,
                    detail=f"{type(exc).__name__}: {exc}")
                region_faults.append(fault)
                if self.retry_policy.exhausted(attempt + 1):
                    fault.resolution = RESOLVED_QUARANTINED
                    if telemetry.enabled:
                        telemetry.metrics.inc("pipeline.regions_quarantined",
                                              binary=self.rewritten.name)
                    return None, False, region_faults
                if telemetry.enabled:
                    telemetry.metrics.inc("pipeline.region_retries",
                                          binary=self.rewritten.name)
                time.sleep(self.retry_policy.backoff_seconds(attempt))
                attempt += 1

    def _quarantine_verdict(self, idx: int,
                            region_faults: list[RegionFault]) -> RegionVerdict:
        """Ledger entry for a region whose verification never completed:
        an explicit failed "isolation" check — never a silent drop."""
        rec = self.records[idx]
        attempts = max((f.attempt for f in region_faults), default=0)
        verdict = RegionVerdict(rec.start, rec.end, rec.kind)
        verdict.checks.append(CheckResult(
            "isolation", False,
            f"verification faulted on all {attempts} attempt(s); "
            "region quarantined"))
        return verdict

    def verify_region_once(self, idx: int, *,
                           attempt: int = 1) -> tuple[RegionVerdict, bool]:
        """One verification attempt for region *idx* (no retry, no fault
        capture) — the unit of work a pool worker executes."""
        if self.injector is not None:
            self.injector.before_region(idx, attempt, self.records[idx])
        return self._verify_region(idx)

    def _verify_region(self, idx: int) -> tuple[RegionVerdict, bool]:
        """All four checks for region *idx*; the verdict does not depend
        on which regions this gate verified before it."""
        rec = self.records[idx]
        verdict = RegionVerdict(rec.start, rec.end, rec.kind)
        verdict.checks.append(self._check_encoding(rec))
        verdict.checks.append(self._check_target(rec))
        verdict.checks.append(self._check_cfg(rec))
        run_oracle = (self.max_oracle_regions <= 0
                      or idx < self.max_oracle_regions)
        if run_oracle:
            verdict.oracle_trials = self.oracle.check_region(rec)
            mismatches = [t for t in verdict.oracle_trials
                          if t.startswith("mismatch")]
            verdict.checks.append(CheckResult(
                "oracle", not mismatches,
                "; ".join(mismatches)
                or f"{len(verdict.oracle_trials)} trials"))
        return verdict, run_oracle

    # -- live bytes ---------------------------------------------------------

    def _live_bytes(self, rec: PatchRecord) -> bytes:
        return self.rewritten.text.read(rec.start, rec.end - rec.start)

    # -- check 1: encoding invariants ---------------------------------------

    def _check_encoding(self, rec: PatchRecord) -> CheckResult:
        live = self._live_bytes(rec)
        problems: list[str] = []
        if live != rec.patched_bytes:
            problems.append("released bytes differ from the recorded patch")
        if rec.kind in ("smile", "smile-dp"):
            problems.extend(smile_window_violations(
                live, rec.start, compressed=self.compressed, reg=rec.smile_reg))
            problems.extend(self._check_padding(rec, live))
        else:  # trap
            try:
                instr = decode(live, 0, addr=rec.start)
                if instr.mnemonic not in ("ebreak", "c.ebreak"):
                    problems.append(f"trap site decodes as {instr.mnemonic}")
            except IllegalEncodingError:
                problems.append("trap site no longer decodes as an ebreak")
            if not any(key == rec.start for key, _ in rec.trap_entries):
                problems.append("trap site has no trap-table entry")
        return CheckResult("encoding", not problems, "; ".join(problems))

    def _check_padding(self, rec: PatchRecord, live: bytes) -> list[str]:
        """Padding parcels covering an original boundary must stay
        deterministic-fault parcels (reserved encodings)."""
        problems = []
        for baddr in self._original_boundaries(rec):
            off = baddr - rec.start
            if off < 8 or any(key == baddr for key, _ in rec.fault_entries):
                continue  # fault-table boundaries checked by _check_cfg
            try:
                parcel = decode(live, off, addr=baddr)
            except IllegalEncodingError:
                continue  # reserved: faults deterministically
            problems.append(
                f"padding boundary {baddr:#x} decodes as legal "
                f"{parcel.mnemonic} with no fault-table entry")
        return problems

    # -- check 2: target / pointer non-executability ------------------------

    def _check_target(self, rec: PatchRecord) -> CheckResult:
        problems: list[str] = []
        if rec.kind == "trap":
            if not self._in_chimera_text(rec.block_addr):
                problems.append(
                    f"trap block {rec.block_addr:#x} outside .chimera.text")
        else:
            live = self._live_bytes(rec)
            target = smile_window_target(live, rec.start)
            if target is None:
                problems.append("trampoline no longer computes a target")
            elif target != rec.block_addr:
                problems.append(
                    f"trampoline reaches {target:#x}, recorded block is "
                    f"{rec.block_addr:#x}")
            elif not self._in_chimera_text(target):
                problems.append(f"target {target:#x} outside .chimera.text")
            else:
                problems.extend(self._decode_problem(target, "target"))
            problems.extend(self._check_p1_pointer(rec))
        return CheckResult("target", not problems, "; ".join(problems))

    def _check_p1_pointer(self, rec: PatchRecord) -> list[str]:
        """The register a partial execution (P1) jumps through must hold
        a non-executable address, or the P1 fault is not deterministic."""
        if rec.kind == "smile":
            pointer = self.meta["gp"]
            what = "gp"
        else:  # smile-dp: reconstruct the overwritten lui+mem pointer
            try:
                lui = decode(rec.original_bytes, 0, addr=rec.start)
                mem = decode(rec.original_bytes, 4, addr=rec.start + 4)
            except IllegalEncodingError:
                return ["original data-pointer pair no longer decodes"]
            pointer = sign_extend((lui.imm << 12) & 0xFFFFFFFF, 32) + (mem.imm or 0)
            what = f"x{rec.smile_reg} data pointer"
        section = self.rewritten.section_at(pointer)
        if section is not None and Perm.X in section.perm:
            return [f"{what} value {pointer:#x} is executable: P1 would not fault"]
        return []

    # -- check 3: CFG integrity ---------------------------------------------

    def _check_cfg(self, rec: PatchRecord) -> CheckResult:
        problems: list[str] = []
        if rec.kind != "trap":
            problems.extend(self._check_boundaries(rec))
            problems.extend(self._walk_block(rec))
        else:
            for _, target in rec.trap_entries:
                if not (self._in_chimera_text(target)
                        or self._legal_original_pc(rec, target)):
                    problems.append(
                        f"trap redirect {target:#x} is neither a relocated "
                        "block nor a legal original pc")
        return CheckResult("cfg", not problems, "; ".join(problems))

    def _check_boundaries(self, rec: PatchRecord) -> list[str]:
        """Every interior original boundary must fault deterministically
        and, when redirected, redirect somewhere legal."""
        problems = []
        entries = dict(rec.fault_entries)
        for baddr in self._original_boundaries(rec):
            if baddr == rec.start:
                continue
            target = entries.get(baddr)
            if target is not None:
                if target == rec.start:
                    continue  # restart-head: re-enters the trampoline
                if not self._in_chimera_text(target):
                    problems.append(
                        f"boundary {baddr:#x} redirects outside "
                        f".chimera.text ({target:#x})")
                else:
                    problems.extend(self._decode_problem(target, f"redirect of {baddr:#x}"))
                continue
            offset = baddr - rec.start
            if offset in (2, 4, 6):
                continue  # P2/P1/P3: pinned by the encoding check
            if offset >= 8:
                continue  # padding: covered by _check_padding
            problems.append(f"boundary {baddr:#x} is unprotected")
        return problems

    def _walk_block(self, rec: PatchRecord) -> list[str]:
        """Bounded walk of the relocated block: everything decodes, every
        direct branch re-resolves, and the only indirect jump is the
        exit trampoline (whose target is statically computable)."""
        ct = self._ct
        if ct is None:
            return [f"no .chimera.text yet block {rec.block_addr:#x} recorded"]
        problems: list[str] = []
        pc = rec.block_addr
        prev_auipc = None
        for _ in range(_WALK_BUDGET):
            if not ct.contains(pc):
                problems.append(f"block walk left .chimera.text at {pc:#x}")
                break
            try:
                instr = decode(ct.data, pc - ct.addr, addr=pc)
            except IllegalEncodingError as exc:
                problems.append(f"block byte at {pc:#x} does not decode: {exc}")
                break
            if instr.mnemonic in ("ebreak", "c.ebreak"):
                break  # trap epilogue / end of block
            if instr.mnemonic == "jalr":
                if (prev_auipc is not None and prev_auipc.rd == instr.rs1
                        and prev_auipc.addr + prev_auipc.length == pc):
                    exit_target = (prev_auipc.addr
                                   + sign_extend(prev_auipc.imm << 12, 32)
                                   + instr.imm)
                    if not (self._in_chimera_text(exit_target)
                            or self._legal_original_pc(rec, exit_target)):
                        problems.append(
                            f"exit trampoline at {pc:#x} targets "
                            f"{exit_target:#x}: not a legal resume point")
                else:
                    problems.append(
                        f"unresolvable indirect jump at {pc:#x} "
                        "(no preceding auipc pairs with it)")
                break
            if instr.is_branch() or instr.mnemonic in ("jal", "c.j"):
                target = pc + (instr.imm or 0)
                if not (self._in_chimera_text(target)
                        or self._legal_original_pc(rec, target)):
                    problems.append(
                        f"copied branch at {pc:#x} targets {target:#x}: "
                        "inside a patched interior or unmapped")
                if instr.mnemonic in ("jal", "c.j") and instr.rd in (None, 0):
                    break  # unconditional: end of this path
            prev_auipc = instr if instr.mnemonic == "auipc" else prev_auipc
            pc += instr.length
        return problems

    # -- shared helpers -----------------------------------------------------

    def _original_boundaries(self, rec: PatchRecord) -> list[int]:
        bounds = []
        addr = rec.start
        data = rec.original_bytes
        while addr < rec.end:
            bounds.append(addr)
            try:
                instr = decode(data, addr - rec.start, addr=addr)
                addr += instr.length
            except IllegalEncodingError:
                addr += 2
        return bounds

    def _in_chimera_text(self, addr: int) -> bool:
        return self._ct is not None and self._ct.contains(addr)

    def _decode_problem(self, addr: int, what: str) -> list[str]:
        try:
            decode(self._ct.data, addr - self._ct.addr, addr=addr)
            return []
        except IllegalEncodingError as exc:
            return [f"{what} {addr:#x} does not decode: {exc}"]

    def _legal_original_pc(self, rec: PatchRecord, addr: int) -> bool:
        """A resume/branch target in original text is legal when it is
        executable and not the interior of any patched window (region
        heads are legal: they re-enter a trampoline)."""
        section = self.rewritten.section_at(addr)
        if section is None or Perm.X not in section.perm:
            return False
        for other in self.records:
            if other.contains(addr) and addr != other.start:
                # Interior is fine iff the fault table redirects it.
                return any(key == addr for key, _ in other.fault_entries)
        return True


def verify_binary(original: Binary, rewritten: Binary, *, on_region=None,
                  precomputed=None, **gate_options) -> VerifyReport:
    """Convenience wrapper: gate *rewritten* against *original*
    (*gate_options* are :class:`AdmissionGate`'s keyword arguments)."""
    return AdmissionGate(original, rewritten, **gate_options).verify(
        on_region=on_region, precomputed=precomputed)
