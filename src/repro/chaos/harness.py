"""Chaos harness: wire sweeps and injector scenarios into one verdict.

Two halves (see DESIGN.md "Robustness & chaos testing"):

* :func:`run_workload_sweeps` rewrites a workload under SMILE, under
  all-trap patching (``use_smile=False``) and under the data-pointer
  SMILE variant (``smile_register="data-pointer"``) and lets the
  :class:`~repro.chaos.sweeper.TrampolineAttackSweeper` force a jump to
  every patched byte of each;
* :func:`run_injector_scenarios` runs purpose-built workloads under the
  concrete :mod:`~repro.chaos.injector` corruptions and asserts each
  ends the way graceful degradation demands — a structured
  :class:`~repro.sim.faults.UnrecoverableFault` with diagnostics for
  the fatal corruptions, a correct finish for the survivable ones.

``python -m repro chaos <workload>`` drives both.
"""

from __future__ import annotations

from typing import Optional

from repro.chaos.injector import (
    ClobberGpInjector,
    CorruptFaultTableInjector,
    CorruptSignalFrameInjector,
    DropFaultTableInjector,
    MigrationCorruptionInjector,
    PcAssertionInjector,
    SignalMidTrampolineInjector,
    StaleDecodeCacheInjector,
    TrampolineBitrotInjector,
)
from repro.chaos.outcomes import ChaosReport, ScenarioResult, SweepReport
from repro.chaos.sweeper import TrampolineAttackSweeper
from repro.core.mmview import MigrationProbeManager, MMViewProcess
from repro.core.rewriter import ChimeraRewriter
from repro.core.runtime import ChimeraRuntime
from repro.elf.binary import Binary
from repro.elf.builder import ProgramBuilder
from repro.elf.loader import make_process
from repro.isa.extensions import RV64GC, RV64GCV, IsaProfile
from repro.sim.faults import EcallTrap, ExitRequest, SimFault, UnrecoverableFault
from repro.sim.machine import SIGSEGV, Core, Kernel
from repro.sim.syscalls import handle_syscall
from repro.verify.records import patched_regions

#: Patching modes a sweep covers, as rewriter options: the SMILE design,
#: the all-trap fallback configuration (the paper's residue path, made
#: total) and the Fig. 5 data-pointer SMILE variant.
_MODE_OPTIONS = {
    "smile": {},
    "trap-fallback": {"use_smile": False},
    "smile-dp": {"smile_register": "data-pointer"},
}
SWEEP_MODES = tuple(_MODE_OPTIONS)


# -- sweeps ----------------------------------------------------------------


def sweep_binary(
    original: Binary,
    *,
    mode: str = "smile",
    target: IsaProfile = RV64GC,
    max_regions: int = 0,
    injector=None,
    verify: bool = True,
    jobs: int = 1,
) -> SweepReport:
    """Rewrite *original* for *target* under *mode* and sweep it.

    With *verify* (the default) the static admission gate runs first and
    its ledger is cross-checked against the sweep: a hard failure inside
    an admitted region escalates to ``admission-escape``.
    """
    rewriter = ChimeraRewriter(**_MODE_OPTIONS[mode])
    result = rewriter.rewrite(original, target)
    admitted = None
    if verify:
        # Imported lazily: the verify package pulls in the oracle stack,
        # which this module must not depend on at import time.
        from repro.verify.admission import AdmissionGate

        admitted = AdmissionGate(
            original, result.binary, oracle_trials=1, jobs=jobs,
            liveness=result.liveness,
        ).verify().admitted_starts
    sweeper = TrampolineAttackSweeper(
        original, result.binary, rewriter=rewriter, max_regions=max_regions,
        injector=injector, admitted=admitted,
    )
    return sweeper.sweep(mode=mode)


def run_workload_sweeps(
    original: Binary,
    *,
    target: IsaProfile = RV64GC,
    max_regions: int = 0,
    modes: tuple[str, ...] = SWEEP_MODES,
    injector=None,
    jobs: int = 1,
) -> list[SweepReport]:
    return [
        sweep_binary(original, mode=mode, target=target, max_regions=max_regions,
                     injector=injector, jobs=jobs)
        for mode in modes
    ]


# -- scenario workloads ----------------------------------------------------


def build_erroneous_workload(*, with_signal_handler: bool = False) -> Binary:
    """Vector episode + an indirect jump straight at a SMILE interior.

    After rewriting for a base core, ``ep_second`` is the trampoline's
    jalr slot (P1): phase 2 jumps there, raising the deterministic
    exec-SEGV every injector scenario perturbs.  With
    ``with_signal_handler`` the program registers a SIGSEGV handler that
    counts its invocations and records the gp it observed (Fig. 10).
    """
    b = ProgramBuilder("chaos-err")
    b.add_words("buf", [10, 20] + [0] * 8)
    b.add_words("out", [0, 0])
    handler_setup = ""
    handler_code = ""
    if with_signal_handler:
        b.add_words("hits", [0])
        b.add_words("gp_seen", [0])
        handler_setup = f"""
    li a0, {SIGSEGV}
    la a1, handler
    li a7, 134
    ecall
"""
        handler_code = """
handler:
    li t2, {hits}
    ld t3, 0(t2)
    addi t3, t3, 1
    sd t3, 0(t2)
    li t2, {gp_seen}
    sd gp, 0(t2)
    li a7, 139
    ecall
"""
    b.set_text(f"""
_start:
{handler_setup}
    li a0, {{buf}}
    li a1, 2
    jal episode
    la t0, ep_second
    jalr t0
    li t1, {{out}}
    sd a4, 0(t1)
    li a7, 93
    li a0, 0
    ecall
{handler_code}
episode:
    vsetvli t0, a1, e64
ep_second:
    vle64.v v1, (a0)
    vadd.vv v2, v1, v1
    vse64.v v2, (a0)
    addi a4, a4, 1
    ret
""")
    b.mark_function("episode")
    return b.build()


def build_scan_gap_workload() -> Binary:
    """Vector code reachable only indirectly: exercises lazy rewriting."""
    b = ProgramBuilder("chaos-gap")
    b.add_words("buf", [5, 6] + [0] * 8)
    b.add_words("slot", [0])
    b.set_text("""
_start:
    la t0, hidden
    li t1, {slot}
    sd t0, 0(t1)
    li a0, {buf}
    li a1, 2
    ld t0, 0(t1)
    jalr t0
    li a7, 93
    li a0, 0
    ecall
    .word 0xffffffff
hidden:
    vsetvli t0, a1, e64
    vle64.v v1, (a0)
    vadd.vv v2, v1, v1
    vse64.v v2, (a0)
    ret
""")
    return b.build()


def build_migration_workload(n: int = 24) -> Binary:
    """Strip-mined vector loop with state live across iterations."""
    b = ProgramBuilder("chaos-mig")
    b.add_words("x", list(range(1, n + 1)))
    b.add_words("y", list(range(100, 100 + n)))
    b.add_words("out", [0])
    b.set_text(f"""
_start:
    li a0, {{x}}
    li a1, {{y}}
    li a3, {n}
    li a4, 0
    vsetvli t0, zero, e64
    vmv.v.i v1, 0
loop:
    vsetvli t0, a3, e64
    vle64.v v2, (a0)
    vle64.v v3, (a1)
    vmacc.vv v1, v2, v3
    slli t1, t0, 3
    add a0, a0, t1
    add a1, a1, t1
    sub a3, a3, t0
    bnez a3, loop
    vsetvli t0, zero, e64
    vmv.v.i v2, 0
    vredsum.vs v3, v1, v2
    li t1, 1
    vsetvli t0, t1, e64
    addi sp, sp, -16
    vse64.v v3, (sp)
    ld t1, 0(sp)
    addi sp, sp, 16
    add a4, a4, t1
    li t0, {{out}}
    sd a4, 0(t0)
    li a7, 93
    li a0, 0
    ecall
""")
    return b.build()


# -- scenario plumbing -----------------------------------------------------


def _prepare(binary: Binary, *, max_recovery_depth: Optional[int] = None):
    rewriter = ChimeraRewriter()
    result = rewriter.rewrite(binary, RV64GC)
    kernel = Kernel()
    kwargs = {}
    if max_recovery_depth is not None:
        kwargs["max_recovery_depth"] = max_recovery_depth
    runtime = ChimeraRuntime(
        result.binary, rewriter=rewriter, original=binary, **kwargs
    )
    runtime.install(kernel)
    process = make_process(result.binary)
    return kernel, runtime, process, result


def _expect_unrecoverable(name: str, result, runtime, *, detail: str = "") -> ScenarioResult:
    fault = result.fault
    if not isinstance(fault, UnrecoverableFault):
        return ScenarioResult(
            name, False,
            f"expected a structured UnrecoverableFault, got {fault!r}",
        )
    if runtime is not None and runtime.stats.unrecoverable_faults < 1:
        return ScenarioResult(name, False, "stats.unrecoverable_faults not incremented")
    note = fault.args[0]
    return ScenarioResult(name, True, detail or f"structured: {note}")


def scenario_drop_fault_entries() -> ScenarioResult:
    binary = build_erroneous_workload()
    kernel, runtime, process, _ = _prepare(binary)
    injector = DropFaultTableInjector().install(kernel=kernel, runtime=runtime)
    res = kernel.run(process, Core(0, RV64GC))
    verdict = _expect_unrecoverable(injector.name, res, runtime)
    if verdict.passed and runtime.stats.fault_table_misses < 1:
        return ScenarioResult(injector.name, False, "fault_table_misses not counted")
    if verdict.passed and injector.dropped == 0:
        return ScenarioResult(injector.name, False, "injector never fired")
    return verdict


def scenario_corrupt_fault_entry() -> ScenarioResult:
    binary = build_erroneous_workload()
    kernel, runtime, process, result = _prepare(binary)
    # Aim the corrupt redirects at a reserved mid-parcel of the first
    # patched window (offset 6 = P3): a fault that retires nothing.
    regions = patched_regions(result.binary.metadata["chimera"]["patch_records"])
    smile = [r for r in regions if r[2] == "smile"]
    if not smile:
        return ScenarioResult("corrupt-fault-entry", False, "no SMILE window to corrupt")
    parcel = smile[0][0] + 6
    injector = CorruptFaultTableInjector(parcel).install(kernel=kernel, runtime=runtime)
    res = kernel.run(process, Core(0, RV64GC))
    verdict = _expect_unrecoverable(injector.name, res, runtime)
    if not verdict.passed:
        return verdict
    fault = res.fault
    if runtime.stats.recovery_loop_aborts != 1:
        return ScenarioResult(injector.name, False, "loop guard did not fire exactly once")
    if not 0 < fault.attempts <= runtime.max_recovery_depth:
        return ScenarioResult(
            injector.name, False,
            f"attempts {fault.attempts} not bounded by depth {runtime.max_recovery_depth}",
        )
    return ScenarioResult(
        injector.name, True,
        f"loop guard aborted after {fault.attempts}/{runtime.max_recovery_depth} attempts",
    )


def scenario_clobber_gp() -> ScenarioResult:
    binary = build_erroneous_workload()
    kernel, runtime, process, _ = _prepare(binary)
    injector = ClobberGpInjector().install(kernel=kernel, runtime=runtime)
    res = kernel.run(process, Core(0, RV64GC))
    return _expect_unrecoverable(injector.name, res, runtime)


def scenario_signal_mid_trampoline() -> ScenarioResult:
    binary = build_erroneous_workload(with_signal_handler=True)
    kernel, runtime, process, _ = _prepare(binary)
    injector = SignalMidTrampolineInjector(SIGSEGV).install(kernel=kernel, runtime=runtime)
    res = kernel.run(process, Core(0, RV64GC))
    name = injector.name
    if not res.ok:
        return ScenarioResult(name, False, f"program failed under mid-trampoline signal: {res.fault!r}")
    if not injector.delivered:
        return ScenarioResult(name, False, "injector never delivered the signal")
    if runtime.stats.signals_gp_restored < 1:
        return ScenarioResult(name, False, "gp was not restored for the handler (Fig. 10)")
    hits = process.space.read_u64(binary.symbol_addr("hits"))
    gp_seen = process.space.read_u64(binary.symbol_addr("gp_seen"))
    if hits != 1:
        return ScenarioResult(name, False, f"handler ran {hits} times, expected 1")
    if gp_seen != binary.global_pointer:
        return ScenarioResult(name, False, f"handler observed gp={gp_seen:#x}, not the ABI value")
    return ScenarioResult(name, True, "handler ran on ABI gp; fault recovered after sigreturn")


def scenario_corrupt_signal_frame() -> ScenarioResult:
    binary = build_erroneous_workload(with_signal_handler=True)
    kernel, runtime, process, _ = _prepare(binary)
    injector = CorruptSignalFrameInjector(SIGSEGV).install(kernel=kernel, runtime=runtime)
    res = kernel.run(process, Core(0, RV64GC))
    # The failure is the kernel's (sigreturn), not the runtime's: don't
    # require the runtime counter here.
    return _expect_unrecoverable(injector.name, res, None)


def scenario_stale_decode_cache() -> ScenarioResult:
    binary = build_scan_gap_workload()
    kernel, runtime, process, _ = _prepare(binary)
    injector = StaleDecodeCacheInjector().install(kernel=kernel, runtime=runtime)
    res = kernel.run(process, Core(0, RV64GC))
    verdict = _expect_unrecoverable(injector.name, res, runtime)
    if verdict.passed and not injector.restored:
        return ScenarioResult(injector.name, False, "injector never restored stale entries")
    if verdict.passed and runtime.stats.runtime_rewrites < 1:
        return ScenarioResult(injector.name, False, "lazy rewrite never happened")
    return verdict


def scenario_interrupt_migration() -> ScenarioResult:
    name = "interrupt-migration"
    binary = build_migration_workload()
    rewriter = ChimeraRewriter()
    views = {
        "rv64gcv": rewriter.rewrite(binary, RV64GCV).binary,
        "rv64gc": rewriter.rewrite(binary, RV64GC).binary,
    }
    process = MMViewProcess("chaos-mig", views, initial="rv64gcv")
    kernel = Kernel()
    probes = MigrationProbeManager(process)
    probes.install(kernel)
    ChimeraRuntime(views["rv64gc"], rewriter=rewriter, original=binary).install(kernel)
    injector = MigrationCorruptionInjector().install(probes=probes)
    cpu = kernel.make_cpu(process, Core(0, RV64GCV))

    # Step until the pc sits inside a migration-unsafe region, then
    # request a migration so a probe gets armed.
    armed = False
    for _ in range(5_000):
        try:
            cpu.step()
        except EcallTrap:
            try:
                handle_syscall(kernel, process, cpu)
            except ExitRequest:
                break
            continue
        except SimFault as fault:
            try:
                if not kernel.dispatch_fault(process, cpu, fault):
                    return ScenarioResult(name, False, f"unexpected kill: {fault!r}")
            except UnrecoverableFault as unrec:
                if injector.fired:
                    return ScenarioResult(
                        name, True, f"structured: {unrec.args[0]}"
                    )
                return ScenarioResult(name, False, f"premature abort: {unrec!r}")
            continue
        if not armed and not process.migration_safe_pc(cpu.pc):
            if not probes.request_migration(cpu, "rv64gc"):
                armed = True
    if not armed:
        return ScenarioResult(name, False, "never found an unsafe pc to arm a probe at")
    return ScenarioResult(name, False, "probe never fired / corruption never surfaced")


def scenario_self_heal_bitrot() -> ScenarioResult:
    """Bitrot a trampoline under ``self_heal=True``: the runtime must
    quarantine exactly that patch and the workload must still finish
    with the correct output (the tentpole's survivable scenario, the
    inverse of the kill-expecting corruptions above)."""
    name = "self-heal-bitrot"
    binary = build_erroneous_workload()
    result = ChimeraRewriter().rewrite(binary, RV64GC)
    regions = patched_regions(result.binary.metadata["chimera"]["patch_records"])
    # Only the lowest-addressed SMILE window is on the workload's normal
    # path (later ones are preserved secondary trampolines that only
    # erroneous entries reach); bitrot must hit code that executes.
    smile = sorted(r for r in regions if r[2] in ("smile", "smile-dp"))[:1]
    try:
        injector = TrampolineBitrotInjector(smile)
    except ValueError as exc:
        return ScenarioResult(name, False, str(exc))
    kernel = Kernel()
    runtime = ChimeraRuntime(result.binary, self_heal=True)
    runtime.install(kernel)
    process = make_process(result.binary)
    injector.corrupt(process)
    res = kernel.run(process, Core(0, RV64GC))
    if not res.ok:
        return ScenarioResult(name, False, f"workload died after bitrot: {res.fault!r}")
    stats = runtime.stats
    if stats.patch_rollbacks < 1:
        return ScenarioResult(name, False, "no rollback happened")
    if stats.unrecoverable_faults:
        return ScenarioResult(
            name, False, f"{stats.unrecoverable_faults} unrecoverable faults raised")
    out = process.space.read_u64(binary.symbol_addr("out"))
    buf0 = process.space.read_u64(binary.symbol_addr("buf"))
    buf1 = process.space.read_u64(binary.symbol_addr("buf") + 8)
    if (out, buf0, buf1) != (2, 40, 80):
        return ScenarioResult(
            name, False,
            f"wrong output after heal: out={out} buf=[{buf0},{buf1}]")
    return ScenarioResult(
        name, True,
        f"quarantined 1 patch ({stats.patch_rollbacks} rollback), output correct")


def scenario_trace_tier_sweep() -> ScenarioResult:
    """Run the survivable bitrot attack twice — trace tier disabled and
    forced hot (threshold 1) — and demand the attack lands identically:
    same heal, same rollback count, same final architectural state and
    output, with zero stale-trace executions (the healed bytes are what
    the traced run executes)."""
    name = "trace-tier-sweep"
    binary = build_erroneous_workload()
    result = ChimeraRewriter().rewrite(binary, RV64GC)
    regions = patched_regions(result.binary.metadata["chimera"]["patch_records"])
    smile = sorted(r for r in regions if r[2] in ("smile", "smile-dp"))[:1]
    try:
        TrampolineBitrotInjector(smile)
    except ValueError as exc:
        return ScenarioResult(name, False, str(exc))

    def attacked_run(**kernel_kwargs):
        kernel = Kernel(**kernel_kwargs)
        runtime = ChimeraRuntime(result.binary, self_heal=True)
        runtime.install(kernel)
        process = make_process(result.binary)
        TrampolineBitrotInjector(smile).corrupt(process)
        res = kernel.run(process, Core(0, RV64GC))
        state = (res.ok, res.exit_code, res.instret, res.cycles,
                 res.output, runtime.stats.patch_rollbacks,
                 runtime.stats.unrecoverable_faults,
                 process.space.read_u64(binary.symbol_addr("out")),
                 process.space.read_u64(binary.symbol_addr("buf")),
                 process.space.read_u64(binary.symbol_addr("buf") + 8))
        return state, res

    base_state, base_res = attacked_run(trace_cache=False)
    trace_state, trace_res = attacked_run(trace_threshold=1)
    if not base_res.ok:
        return ScenarioResult(
            name, False, f"baseline run died after bitrot: {base_res.fault!r}")
    if trace_state != base_state:
        return ScenarioResult(
            name, False,
            f"attack landed differently with traces on: "
            f"{trace_state} != {base_state}")
    if trace_res.counters.get("trace_instret", 0) <= 0:
        return ScenarioResult(
            name, False, "vacuous: the traced run never dispatched a trace")
    return ScenarioResult(
        name, True,
        f"bit-identical under attack with traces on "
        f"(instret={trace_state[2]}, rollbacks={trace_state[5]}, "
        f"{trace_res.counters.get('traces_compiled', 0)} traces compiled)")


ALL_SCENARIOS = (
    scenario_drop_fault_entries,
    scenario_corrupt_fault_entry,
    scenario_clobber_gp,
    scenario_signal_mid_trampoline,
    scenario_corrupt_signal_frame,
    scenario_stale_decode_cache,
    scenario_interrupt_migration,
    scenario_self_heal_bitrot,
    scenario_trace_tier_sweep,
)


def run_injector_scenarios() -> list[ScenarioResult]:
    return [scenario() for scenario in ALL_SCENARIOS]


# -- aggregate -------------------------------------------------------------


def run_chaos(
    original: Binary,
    *,
    target: IsaProfile = RV64GC,
    max_regions: int = 0,
    scenarios: bool = True,
    seed: Optional[int] = None,
    jobs: int = 1,
) -> ChaosReport:
    """Full chaos verdict for one workload binary.

    Sweeps run with a :class:`PcAssertionInjector` observing every CPU:
    a fault leaving the CPU without a pc trips an assertion, which the
    sweeper reports as ``python-crash`` — a hard failure.  The scenario
    half also runs the core-failure resilience scenarios
    (:mod:`repro.resilience.scenarios`); *seed* (default:
    ``REPRO_FUZZ_SEED``) drives their injectors.
    """
    report = ChaosReport()
    report.sweeps = run_workload_sweeps(
        original, target=target, max_regions=max_regions,
        injector=PcAssertionInjector(), jobs=jobs,
    )
    if scenarios:
        report.scenarios = run_injector_scenarios()
        # Imported here: scenarios pull in the measured scheduler, which
        # this module must not depend on at import time.
        from repro.resilience.scenarios import run_all as run_resilience_scenarios

        report.scenarios.extend(run_resilience_scenarios(seed))
    return report
