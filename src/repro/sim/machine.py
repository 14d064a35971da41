"""Cores, processes, and the simulated kernel.

The :class:`Kernel` is where the paper's "kernel modifications" (§3.3)
live in this reproduction: pluggable fault handlers (Chimera's
deterministic-fault recovery, baselines' trap-trampoline handlers, FAM's
migrate-on-SIGILL) are registered in priority order, exactly mirroring
the paper's "check whether the signal was generated by CHBP first, fall
back to standard handling otherwise" rule (§4.3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.isa.extensions import IsaProfile, RV64GC, RV64GCV
from repro.isa.registers import Reg
from repro.sim.cost import ArchParams, CostModel, DEFAULT_ARCH
from repro.sim.cpu import Cpu
from repro.sim.faults import (
    BreakpointTrap,
    CoreFault,
    EcallTrap,
    ExitRequest,
    IllegalInstructionFault,
    SegmentationFault,
    SimFault,
    SimulationLimitExceeded,
    UnrecoverableFault,
    WatchdogTimeout,
)
from repro.sim.memory import AddressSpace
from repro.sim.syscalls import handle_syscall
from repro.telemetry import current as telemetry_current
from repro.telemetry.exec_trace import attach_tally

#: A fault handler: return True if the fault was handled and execution
#: may resume; False/None to pass to the next handler.
FaultHandler = Callable[["Kernel", "Process", Cpu, SimFault], Optional[bool]]

#: Watchdog default: kernel entries (syscalls + dispatched faults) per
#: :meth:`Kernel.run` before the run is declared a runaway and killed
#: with a structured :class:`WatchdogTimeout`.  Generous — the heaviest
#: legitimate workloads stay orders of magnitude below it.
DEFAULT_MAX_KERNEL_STEPS = 1_000_000

#: Process-wide default for kernels created without an explicit
#: ``block_cache`` argument.  The CLI's ``--no-block-cache`` flips this
#: so every kernel a command creates — however deeply nested — runs the
#: plain interpreter loop.
BLOCK_CACHE_DEFAULT = True

#: Process-wide defaults for the trace tier (the hot-path execution
#: tier above the block cache).  ``--no-trace-cache`` and
#: ``--trace-threshold`` flip these so every kernel a command creates
#: — however deeply nested, including forked pool workers — agrees.
TRACE_CACHE_DEFAULT = True
TRACE_THRESHOLD_DEFAULT = 16


class CoreHealth(enum.Enum):
    """Failure-model health of one core (resilience layer)."""

    HEALTHY = "healthy"
    FLAKY = "flaky"
    DEAD = "dead"


@dataclass
class Core:
    """One hart with an ISAX capability profile."""

    core_id: int
    profile: IsaProfile
    params: ArchParams = DEFAULT_ARCH
    health: CoreHealth = CoreHealth.HEALTHY

    @property
    def is_extension_core(self) -> bool:
        """True if this core implements any optional extension beyond GC."""
        return self.profile.extensions > RV64GC.extensions

    @property
    def alive(self) -> bool:
        """Dead cores run nothing; flaky cores still (unreliably) run."""
        return self.health is not CoreHealth.DEAD

    def mark_flaky(self) -> None:
        if self.health is CoreHealth.HEALTHY:
            self.health = CoreHealth.FLAKY

    def mark_dead(self) -> None:
        self.health = CoreHealth.DEAD

    def __str__(self) -> str:
        suffix = "" if self.health is CoreHealth.HEALTHY else f",{self.health.value}"
        return f"core{self.core_id}({self.profile.name}{suffix})"


class Machine:
    """A fixed set of heterogeneous cores sharing one ``ArchParams``."""

    def __init__(self, cores: list[Core], params: ArchParams = DEFAULT_ARCH):
        self.cores = cores
        self.params = params

    @classmethod
    def isax(
        cls,
        n_base: int,
        n_ext: int,
        params: ArchParams = DEFAULT_ARCH,
        base_profile: IsaProfile = RV64GC,
        ext_profile: IsaProfile = RV64GCV,
    ) -> "Machine":
        """Build the paper's evaluation machine: base + extension cores."""
        cores = [Core(i, base_profile, params) for i in range(n_base)]
        cores += [Core(n_base + i, ext_profile, params) for i in range(n_ext)]
        return cls(cores, params)

    @property
    def base_cores(self) -> list[Core]:
        return [c for c in self.cores if not c.is_extension_core]

    @property
    def extension_cores(self) -> list[Core]:
        return [c for c in self.cores if c.is_extension_core]

    @property
    def live_cores(self) -> list[Core]:
        return [c for c in self.cores if c.alive]


@dataclass
class SignalFrame:
    """Saved context while a user-space signal handler runs."""

    pc: int
    regs: list[int]


class Process:
    """A runnable task: address space(s), saved context, bookkeeping.

    Chimera processes carry multiple views (one per core flavor,
    :mod:`repro.core.mmview`); plain processes have a single space.
    """

    def __init__(self, name: str, space: AddressSpace, entry: int, *,
                 gp: int = 0, sp: int = 0):
        self.name = name
        self.space = space
        self.entry = entry
        self.gp = gp
        self.sp = sp
        self.output = bytearray()
        self.signal_handlers: dict[int, int] = {}
        self.signal_stack: list[SignalFrame] = []
        #: Free-form per-process state for fault handlers (fault tables...).
        self.state: dict[str, object] = {}

    def seed(self, cpu: Cpu) -> None:
        """Initialize *cpu* registers per the psABI (gp/sp/entry)."""
        cpu.pc = self.entry
        cpu.set_reg(Reg.GP, self.gp)
        cpu.set_reg(Reg.SP, self.sp)


@dataclass
class RunResult:
    """Outcome of running one process to completion on one core."""

    exit_code: int
    cycles: int
    instret: int
    counters: dict[str, int]
    output: bytes
    fault: Optional[SimFault] = None
    #: Hot-block profiler histogram: (entry pc, cached executions),
    #: hottest first — the observable behind trace-threshold tuning.
    hot_blocks: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True if the process exited cleanly with status 0."""
        return self.fault is None and self.exit_code == 0


# Signal numbers (Linux).
SIGILL = 4
SIGSEGV = 11


class Kernel:
    """The simulated OS: syscalls, fault dispatch, signal delivery."""

    def __init__(self, params: ArchParams = DEFAULT_ARCH, *,
                 block_cache: Optional[bool] = None,
                 trace_cache: Optional[bool] = None,
                 trace_threshold: Optional[int] = None):
        self.params = params
        #: Forwarded to every :class:`Cpu` this kernel creates; the CLI's
        #: ``--no-block-cache`` flag lands here (via BLOCK_CACHE_DEFAULT).
        self.block_cache = (BLOCK_CACHE_DEFAULT if block_cache is None
                            else block_cache)
        #: Trace-tier knobs, same contract as ``block_cache``: the CLI's
        #: ``--no-trace-cache``/``--trace-threshold`` land here via the
        #: module defaults.
        self.trace_cache = (TRACE_CACHE_DEFAULT if trace_cache is None
                            else trace_cache)
        self.trace_threshold = (TRACE_THRESHOLD_DEFAULT if trace_threshold is None
                                else trace_threshold)
        self._fault_handlers: list[FaultHandler] = []
        #: Hook invoked right before user signal delivery; Chimera's
        #: gp-restore (Fig. 10) registers here.
        self.pre_signal_hooks: list[Callable[["Kernel", Process, Cpu, int], None]] = []
        #: Optional chaos injector (see :mod:`repro.chaos.injector`): an
        #: object whose ``on_fault``/``pre_signal`` hooks may corrupt
        #: kernel-visible state before dispatch, exercising the graceful
        #: degradation paths.  None in production runs.
        self.injector = None

    def register_fault_handler(self, handler: FaultHandler, *, priority: bool = False) -> None:
        """Register a fault handler; ``priority`` puts it first (CHBP rule)."""
        if priority:
            self._fault_handlers.insert(0, handler)
        else:
            self._fault_handlers.append(handler)

    # -- running --------------------------------------------------------

    def make_cpu(self, process: Process, core: Core, name: Optional[str] = None) -> Cpu:
        """Create a CPU bound to *process* on *core* and seed its context."""
        cpu = Cpu(
            process.space,
            profile=core.profile,
            cost_model=CostModel(core.params),
            name=name or f"{process.name}@{core}",
            block_cache=self.block_cache,
            trace_cache=self.trace_cache,
            trace_threshold=self.trace_threshold,
        )
        process.seed(cpu)
        return cpu

    def run(
        self,
        process: Process,
        core: Core,
        *,
        max_instructions: int = 50_000_000,
        cpu: Optional[Cpu] = None,
        max_steps: Optional[int] = None,
    ) -> RunResult:
        """Run *process* on *core* until exit or an unrecoverable fault.

        ``max_steps`` bounds *kernel entries* (syscalls plus dispatched
        faults).  The per-resume instruction budget cannot catch a guest
        that traps forever without retiring instructions — a corrupted
        redirect recovered over and over, a handler that consumes faults
        without progress — so a second watchdog counts resumes and
        terminates the run with a structured :class:`WatchdogTimeout`
        instead of hanging the caller.
        """
        cpu = cpu or self.make_cpu(process, core)
        step_budget = DEFAULT_MAX_KERNEL_STEPS if max_steps is None else max_steps
        telemetry = telemetry_current()
        if not telemetry.enabled:
            result = self._run_loop(process, cpu, step_budget, max_instructions)
            result.hot_blocks = cpu.hot_blocks(32)
            return result
        # Instrumented path: attach an instruction-class tally (chained
        # onto any existing tracer, restored afterwards) and time the run
        # against both clocks.
        tally, previous_tracer = attach_tally(cpu)
        try:
            with telemetry.bind_cycles(lambda: cpu.cycles):
                with telemetry.span("sim.run", core=str(core), process=process.name):
                    result = self._run_loop(process, cpu, step_budget, max_instructions)
        finally:
            cpu.tracer = previous_tracer
        result.hot_blocks = cpu.hot_blocks(32)
        metrics = telemetry.metrics
        for cls, count in tally.counts.items():
            metrics.inc("cpu.instret", count, **{"class": cls})
        for counter, count in result.counters.items():
            metrics.inc("sim.counters", count, counter=counter)
        metrics.inc("sim.runs", ok=str(result.ok).lower())
        if result.fault is not None:
            metrics.inc("sim.terminal_faults", type=type(result.fault).__name__)
        return result

    def _run_loop(
        self,
        process: Process,
        cpu: Cpu,
        step_budget: int,
        max_instructions: int,
    ) -> RunResult:
        steps = 0
        while True:
            steps += 1
            if steps > step_budget:
                timeout = WatchdogTimeout(steps, step_budget, pc=cpu.pc)
                return RunResult(-1, cpu.cycles, cpu.instret, dict(cpu.counters),
                                 bytes(process.output), fault=timeout)
            try:
                cpu.run(max_instructions - cpu.instret)
            except ExitRequest as exc:
                return RunResult(exc.code, cpu.cycles, cpu.instret, dict(cpu.counters), bytes(process.output))
            except EcallTrap:
                try:
                    handle_syscall(self, process, cpu)
                except ExitRequest as exc:
                    return RunResult(exc.code, cpu.cycles, cpu.instret, dict(cpu.counters), bytes(process.output))
                except UnrecoverableFault as unrec:
                    # e.g. sigreturn over a corrupted signal frame
                    return RunResult(-1, cpu.cycles, cpu.instret, dict(cpu.counters), bytes(process.output), fault=unrec)
            except SimulationLimitExceeded as exc:
                return RunResult(-1, cpu.cycles, cpu.instret, dict(cpu.counters), bytes(process.output), fault=exc)
            except SimFault as fault:
                try:
                    handled = self.dispatch_fault(process, cpu, fault)
                except UnrecoverableFault as unrec:
                    return RunResult(-1, cpu.cycles, cpu.instret, dict(cpu.counters), bytes(process.output), fault=unrec)
                if not handled:
                    return RunResult(-1, cpu.cycles, cpu.instret, dict(cpu.counters), bytes(process.output), fault=fault)

    def dispatch_fault(self, process: Process, cpu: Cpu, fault: SimFault) -> bool:
        """Run the registered handlers over *fault*; True iff recovered.

        Graceful degradation: a handler that raises anything other than
        an :class:`UnrecoverableFault` — a ``KeyError`` from a corrupted
        table, a nested :class:`SimFault` from a bad redirect — is
        converted into a structured :class:`UnrecoverableFault` instead
        of letting a raw Python traceback escape the simulated kernel.
        """
        telemetry = telemetry_current()
        if telemetry.enabled:
            telemetry.metrics.inc("sim.faults", type=type(fault).__name__)
        if isinstance(fault, UnrecoverableFault):
            return False  # terminal by definition; never re-dispatched
        if isinstance(fault, CoreFault):
            # The *core* failed, not the guest: no handler can help, and
            # a patched-region pc must not be misattributed to the
            # runtime.  The scheduler checkpoints and migrates instead.
            return False
        if self.injector is not None:
            # An on_fault hook returning True consumes the fault (e.g. a
            # chaos scenario delivering a user signal ahead of recovery,
            # the POSIX ordering); the fault recurs on resume.
            if self.injector.on_fault(self, process, cpu, fault):
                return True
        for handler in self._fault_handlers:
            try:
                handled = handler(self, process, cpu, fault)
            except UnrecoverableFault:
                raise
            except Exception as exc:
                raise UnrecoverableFault(
                    f"fault handler {_handler_name(handler)} failed while "
                    f"handling {type(fault).__name__}",
                    pc=fault.pc if fault.pc is not None else cpu.pc,
                    cause=exc,
                    context={"original_fault": str(fault)},
                ) from exc
            if handled:
                return True
        # Standard handling: deliver to a user handler if one is registered.
        signum = _signal_for(fault)
        if signum is not None and signum in process.signal_handlers:
            self.deliver_signal(process, cpu, signum)
            return True
        return False

    # -- signals --------------------------------------------------------

    def deliver_signal(self, process: Process, cpu: Cpu, signum: int) -> None:
        """Deliver *signum* to the process's registered user handler.

        Saves the interrupted context, runs pre-delivery hooks (Chimera
        restores gp here), and redirects to the handler.  The handler
        returns via the sigreturn syscall.
        """
        handler_addr = process.signal_handlers[signum]
        frame = SignalFrame(pc=cpu.pc, regs=cpu.snapshot_regs())
        process.signal_stack.append(frame)
        if self.injector is not None:
            self.injector.pre_signal(self, process, cpu, signum)
        for hook in self.pre_signal_hooks:
            hook(self, process, cpu, signum)
        cpu.set_reg(Reg.A0, signum)
        cpu.pc = handler_addr
        cpu.cycles += self.params.trap_cost

    def signal_return(self, process: Process, cpu: Cpu) -> None:
        """Restore the context saved at signal delivery."""
        if not process.signal_stack:
            raise SimFault("sigreturn with empty signal stack", pc=cpu.pc)
        frame = process.signal_stack.pop()
        if not isinstance(frame.regs, list) or len(frame.regs) != 32:
            # A truncated/mangled frame would raise a bare ValueError out
            # of the register-file copy; degrade with diagnostics instead.
            raise UnrecoverableFault(
                "sigreturn over a corrupt signal frame",
                pc=cpu.pc,
                context={
                    "frame_regs": len(frame.regs) if isinstance(frame.regs, list) else repr(frame.regs),
                    "frame_pc": hex(frame.pc) if isinstance(frame.pc, int) else repr(frame.pc),
                    "frames_remaining": len(process.signal_stack),
                },
            )
        cpu.regs[:] = frame.regs
        cpu.pc = frame.pc


def _handler_name(handler: FaultHandler) -> str:
    owner = getattr(handler, "__self__", None)
    if owner is not None:
        return type(owner).__name__
    return getattr(handler, "__qualname__", repr(handler))


def _signal_for(fault: SimFault) -> Optional[int]:
    if isinstance(fault, SegmentationFault):
        return SIGSEGV
    if isinstance(fault, (IllegalInstructionFault, BreakpointTrap)):
        return SIGILL
    return None
