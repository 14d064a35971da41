"""Runtime corruption injectors (the adversarial half of the harness).

An :class:`Injector` is a duck-typed hook object the kernel, the
Chimera runtime and the migration-probe manager consult at their most
delicate moments.  Production runs never set one; the chaos harness
installs a concrete injector and asserts that the damage it does
surfaces as a structured :class:`~repro.sim.faults.UnrecoverableFault`
(or, for the survivable scenarios, that recovery still succeeds) —
never as a raw Python traceback and never as silent mis-execution.

Hook points:

* ``on_fault(kernel, process, cpu, fault)`` — kernel dispatch, before
  any handler runs; returning True consumes the fault (models a signal
  delivered ahead of recovery — the fault recurs on resume);
* ``pre_signal(kernel, process, cpu, signum)`` — after the signal frame
  is saved, before the pre-delivery hooks (gp restore) run;
* ``before_recovery(runtime, kernel, process, cpu, fault)`` — the
  Chimera runtime is about to attempt recovery;
* ``after_rewrite(runtime, process, cpu)`` — a lazy runtime rewrite
  just patched code and flushed the decode cache;
* ``on_probe_fire(manager, cpu, addr)`` — a migration probe trapped,
  before the saved bytes are restored and the view switch commits.
"""

from __future__ import annotations

from repro.isa.registers import Reg


class Injector:
    """Base injector: every hook is a no-op.

    ``install`` wires the injector into whichever components a scenario
    uses; components hold a plain ``.injector`` attribute so the sim
    layer never imports this package.
    """

    name = "no-op"

    def install(self, *, kernel=None, runtime=None, probes=None, cpu=None) -> "Injector":
        if kernel is not None:
            kernel.injector = self
        if runtime is not None:
            runtime.injector = self
        if probes is not None:
            probes.injector = self
        if cpu is not None:
            cpu.fault_hook = self.on_cpu_fault
        return self

    # -- hooks (all optional) ---------------------------------------------

    def on_fault(self, kernel, process, cpu, fault):
        return None

    def pre_signal(self, kernel, process, cpu, signum) -> None:
        pass

    def before_recovery(self, runtime, kernel, process, cpu, fault) -> None:
        pass

    def after_rewrite(self, runtime, process, cpu) -> None:
        pass

    def on_probe_fire(self, manager, cpu, addr) -> None:
        pass

    def on_cpu_fault(self, cpu, fault) -> None:
        pass


class PcAssertionInjector(Injector):
    """Not a corruptor: asserts every fault leaving the CPU carries a pc.

    Installed via ``cpu.fault_hook`` in the chaos integration suite so a
    regression in pc propagation fails loudly at the raise site.
    """

    name = "pc-assertion"

    def __init__(self):
        self.checked = 0

    def on_cpu_fault(self, cpu, fault) -> None:
        self.checked += 1
        assert fault.pc is not None, (
            f"{type(fault).__name__} left Cpu.step with pc=None: {fault}"
        )


class DropFaultTableInjector(Injector):
    """Empties the fault-handling table at the first recovery attempt.

    Expected degradation: the SMILE fault can no longer be redirected;
    because it struck a patched region the runtime must raise a
    structured UnrecoverableFault rather than decline silently.
    """

    name = "drop-fault-entries"

    def __init__(self):
        self.dropped = 0

    def before_recovery(self, runtime, kernel, process, cpu, fault) -> None:
        if self.dropped:
            return
        self.dropped = len(runtime.fault_table.entries)
        runtime.fault_table.entries.clear()


class CorruptFaultTableInjector(Injector):
    """Corrupts every fault-table redirect to point at *parcel_addr*.

    With *parcel_addr* aimed at a reserved trampoline parcel (and a
    self-referential entry added for it), each "recovery" lands on the
    parcel, faults again without retiring an instruction, and gets
    "recovered" to the same place — a recovery loop the recovery-depth
    guard must bound and abort.  Without *parcel_addr* the entries point
    back at their own keys, which the runtime must at least surface as
    a structured failure rather than a raw loop.
    """

    name = "corrupt-fault-entry"

    def __init__(self, parcel_addr: int | None = None):
        self.parcel_addr = parcel_addr
        self.corrupted = 0

    def before_recovery(self, runtime, kernel, process, cpu, fault) -> None:
        if self.corrupted:
            return
        entries = runtime.fault_table.entries
        target = self.parcel_addr
        for key in entries:
            entries[key] = target if target is not None else key
        if target is not None:
            entries[target] = target
        self.corrupted = len(entries)


class ClobberGpInjector(Injector):
    """Zeroes gp before the runtime can use it to locate the fault.

    The P1 recovery reads the jalr return address out of gp; with gp
    clobbered the lookup misses, and the runtime must still attribute
    the fault to its patched region (via the faulting jump's pc) and
    kill structurally.
    """

    name = "clobber-gp"

    def __init__(self, value: int = 0):
        self.value = value
        self.fired = 0

    def before_recovery(self, runtime, kernel, process, cpu, fault) -> None:
        if self.fired:
            return
        self.fired = 1
        cpu.set_reg(Reg.GP, self.value)


class SignalMidTrampolineInjector(Injector):
    """Delivers a registered user signal ahead of fault recovery.

    Models a signal arriving while gp is still clobbered mid-trampoline
    (paper Fig. 10): the pre-delivery gp restore must let the handler
    run on the ABI gp, and the original fault recurs and recovers after
    sigreturn.  A survivable scenario: the program must finish correctly.
    """

    name = "signal-mid-trampoline"

    def __init__(self, signum: int):
        self.signum = signum
        self.delivered = 0

    def on_fault(self, kernel, process, cpu, fault):
        if self.delivered or self.signum not in process.signal_handlers:
            return None
        self.delivered = 1
        kernel.deliver_signal(process, cpu, self.signum)
        return True  # fault consumed; it recurs after sigreturn


class CorruptSignalFrameInjector(SignalMidTrampolineInjector):
    """Mid-trampoline signal whose saved frame gets truncated.

    Expected degradation: sigreturn must refuse the mangled frame with
    a structured UnrecoverableFault instead of a ValueError from the
    register-file copy.
    """

    name = "corrupt-signal-frame"

    def pre_signal(self, kernel, process, cpu, signum) -> None:
        frame = process.signal_stack[-1]
        frame.regs = frame.regs[:5]


class StaleDecodeCacheInjector(Injector):
    """Re-inserts pre-rewrite decode-cache entries after a lazy rewrite.

    Models a second hart whose decode cache was not shot down: the
    stale entries make the just-patched pc fault again; the repeated
    rewrite is a no-op, and the runtime must abort structurally instead
    of looping or silently executing stale semantics.
    """

    name = "stale-decode-cache"

    def __init__(self):
        self.restored = 0
        self._snapshot = None

    def before_recovery(self, runtime, kernel, process, cpu, fault) -> None:
        if self._snapshot is None:
            self._snapshot = dict(cpu._dcache)

    def after_rewrite(self, runtime, process, cpu) -> None:
        if self.restored or not self._snapshot:
            return
        for addr, (instr, handler, tag, seg, _version) in self._snapshot.items():
            # Forge the current segment version so the entry looks fresh.
            cpu._dcache[addr] = (instr, handler, tag, seg, seg.version)
        self.restored = len(self._snapshot)


class MigrationCorruptionInjector(Injector):
    """Corrupts the pending migration while its probe is firing.

    Models the §4.3 race window between the probe trap and the view
    commit: the target view name is replaced with garbage, and the
    MMView switch must refuse it structurally (never a KeyError).
    """

    name = "interrupt-migration"

    def __init__(self, bogus: str = "no-such-view"):
        self.bogus = bogus
        self.fired = 0

    def on_probe_fire(self, manager, cpu, addr) -> None:
        if self.fired:
            return
        self.fired = 1
        manager.process.pending_migration = self.bogus


class TrampolineBitrotInjector(Injector):
    """Overwrites a seeded-randomly-chosen SMILE trampoline head with
    zero parcels (canonically illegal on RISC-V) before the run.

    Expected degradation *with self-healing*: the runtime attributes the
    SIGILL to that patch, quarantines it back to the trap-fallback
    encoding, and the workload finishes with correct output — no
    UnrecoverableFault, exactly one rollback.
    """

    name = "trampoline-bitrot"

    def __init__(self, regions, *, seed=None):
        from repro.resilience.seeds import resolve_seed

        smile = [r for r in regions if r[2] in ("smile", "smile-dp")]
        if not smile:
            raise ValueError("no SMILE regions to bitrot")
        import random

        self.target = random.Random(resolve_seed(seed)).choice(smile)
        self.fired = 0

    def corrupt(self, process) -> int:
        """Zero the chosen trampoline head in the live address space."""
        start = self.target[0]
        process.space.patch_code(start, b"\x00\x00\x00\x00")
        self.fired = 1
        return start
