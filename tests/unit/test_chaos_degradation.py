"""Graceful degradation: structured failures instead of raw tracebacks.

Unit coverage for the chaos-hardened runtime/kernel paths: the
recovery-depth guard, the patched-region ownership kill, the
RuntimeStats counters that account for both, and the kernel's wrapping
of handler exceptions.
"""

import pytest

from repro.core.rewriter import ChimeraRewriter
from repro.core.runtime import DEFAULT_MAX_RECOVERY_DEPTH, ChimeraRuntime
from repro.elf.builder import ProgramBuilder
from repro.elf.loader import make_process
from repro.isa.extensions import RV64GC
from repro.isa.registers import Reg
from repro.sim.faults import (
    IllegalInstructionFault,
    SegmentationFault,
    UnrecoverableFault,
)
from repro.sim.machine import Core, Kernel


def rewritten_vector_binary():
    b = ProgramBuilder("p")
    b.add_words("buf", [3, 4, 5, 6] + [0] * 8)
    b.set_text("""
_start:
    li a0, {buf}
    li a1, 4
    vsetvli t0, a1, e64
    vle64.v v1, (a0)
    vadd.vv v2, v1, v1
    vse64.v v2, (a0)
    li a7, 93
    li a0, 0
    ecall
""")
    binary = b.build()
    rewriter = ChimeraRewriter()
    result = rewriter.rewrite(binary, RV64GC)
    return binary, result, rewriter


def setup():
    binary, result, _ = rewritten_vector_binary()
    runtime = ChimeraRuntime(result.binary)
    kernel = Kernel()
    runtime.install(kernel)
    proc = make_process(result.binary)
    cpu = kernel.make_cpu(proc, Core(0, RV64GC))
    return binary, runtime, kernel, proc, cpu


class TestPatchedRegionOwnership:
    def test_table_miss_in_patched_region_is_structured(self):
        """A SIGILL at a patched parcel with no table entry cannot be
        declined silently: the region is ours by construction."""
        binary, runtime, kernel, proc, cpu = setup()
        key = next(iter(runtime.fault_table.entries))
        runtime.fault_table.entries.clear()
        cpu.pc = key
        fault = IllegalInstructionFault(key, "reserved-compressed")
        with pytest.raises(UnrecoverableFault) as exc:
            runtime.handle_fault(kernel, proc, cpu, fault)
        assert exc.value.pc == key
        assert exc.value.cause is fault
        assert runtime.stats.unrecoverable_faults == 1
        assert runtime.stats.fault_table_misses == 1

    def test_fault_outside_patched_regions_still_declined(self):
        binary, runtime, kernel, proc, cpu = setup()
        fault = SegmentationFault(0xDEAD, "read")
        assert not runtime.handle_fault(kernel, proc, cpu, fault)
        assert runtime.stats.unrecoverable_faults == 0

    def test_wild_jump_attributed_via_last_pc(self):
        """An exec fault at a garbage address whose *origin* (the last
        retired instruction) was patched is ours: structured kill."""
        binary, runtime, kernel, proc, cpu = setup()
        lo, _hi = runtime.migration_unsafe[0]
        cpu.last_pc = lo
        cpu.set_reg(Reg.GP, 0)  # clobbered: lookup cannot succeed
        fault = SegmentationFault(binary.global_pointer + 0x100, "exec")
        with pytest.raises(UnrecoverableFault):
            runtime.handle_fault(kernel, proc, cpu, fault)

    def test_describe_carries_diagnostics(self):
        binary, runtime, kernel, proc, cpu = setup()
        key = next(iter(runtime.fault_table.entries))
        runtime.fault_table.entries.clear()
        cpu.pc = key
        with pytest.raises(UnrecoverableFault) as exc:
            runtime.handle_fault(
                kernel, proc, cpu, IllegalInstructionFault(key, "reserved-compressed")
            )
        text = exc.value.describe()
        assert f"{key:#x}" in text
        assert "fault_table_entries" in text
        assert "max_recovery_depth" in text


class TestRecoveryDepthGuard:
    def test_zero_progress_loop_aborts_at_depth(self):
        """Recoveries that never retire an instruction must stop at
        max_recovery_depth with the loop accounted in stats."""
        binary, runtime, kernel, proc, cpu = setup()
        key, redirect = next(iter(runtime.fault_table))
        # Corrupt the redirect into a self-loop: recovery lands back on
        # a faulting parcel without retiring anything.
        runtime.fault_table.entries[key] = key
        cpu.pc = key
        fault = IllegalInstructionFault(key, "reserved-compressed")
        attempts = 0
        with pytest.raises(UnrecoverableFault) as exc:
            for _ in range(DEFAULT_MAX_RECOVERY_DEPTH + 4):
                attempts += 1
                assert runtime.handle_fault(kernel, proc, cpu, fault)
        assert attempts == DEFAULT_MAX_RECOVERY_DEPTH + 1
        assert exc.value.attempts == DEFAULT_MAX_RECOVERY_DEPTH
        assert runtime.stats.recovery_loop_aborts == 1
        assert runtime.stats.unrecoverable_faults == 1

    def test_progress_resets_streak(self):
        binary, runtime, kernel, proc, cpu = setup()
        key, redirect = next(iter(runtime.fault_table))
        cpu.pc = key
        fault = IllegalInstructionFault(key, "reserved-compressed")
        for _ in range(DEFAULT_MAX_RECOVERY_DEPTH * 3):
            assert runtime.handle_fault(kernel, proc, cpu, fault)
            cpu.pc = key
            cpu.instret += 1  # the program retired an instruction
        assert runtime.stats.recovery_loop_aborts == 0

    def test_custom_depth_honored(self):
        binary, result, _ = rewritten_vector_binary()
        runtime = ChimeraRuntime(result.binary, max_recovery_depth=3)
        kernel = Kernel()
        proc = make_process(result.binary)
        cpu = kernel.make_cpu(proc, Core(0, RV64GC))
        key, _ = next(iter(runtime.fault_table))
        runtime.fault_table.entries[key] = key
        cpu.pc = key
        fault = IllegalInstructionFault(key, "reserved-compressed")
        with pytest.raises(UnrecoverableFault) as exc:
            for _ in range(10):
                runtime.handle_fault(kernel, proc, cpu, fault)
        assert exc.value.attempts == 3


class TestKernelDegradation:
    def test_handler_exception_wrapped_structurally(self):
        """A fault handler blowing up with a raw Python error surfaces
        as UnrecoverableFault naming the handler, never a bare
        KeyError escaping the simulated kernel."""
        binary, runtime, kernel, proc, cpu = setup()

        def broken_handler(kernel, process, cpu, fault):
            raise KeyError("corrupted table")

        kernel.register_fault_handler(broken_handler, priority=True)
        fault = SegmentationFault(0xDEAD, "read", pc=binary.entry)
        with pytest.raises(UnrecoverableFault) as exc:
            kernel.dispatch_fault(proc, cpu, fault)
        assert isinstance(exc.value.cause, KeyError)
        assert "broken_handler" in str(exc.value)

    def test_unrecoverable_fault_never_redispatched(self):
        binary, runtime, kernel, proc, cpu = setup()
        seen = []
        kernel.register_fault_handler(lambda *a: seen.append(a) or False)
        terminal = UnrecoverableFault("done", pc=0x1000)
        assert not kernel.dispatch_fault(proc, cpu, terminal)
        assert not seen
