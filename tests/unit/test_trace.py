"""Tracer/profiler tests — including the 'normal path never traps' claim."""

import pytest

from repro.core.rewriter import ChimeraRewriter
from repro.core.runtime import ChimeraRuntime
from repro.elf.loader import make_process
from repro.isa.extensions import RV64GC, RV64GCV
from repro.sim.machine import Core, Kernel
from repro.telemetry.exec_trace import (
    BranchProfile,
    HotspotProfile,
    InstructionTrace,
    MultiTracer,
    RegionProfile,
    attach,
)
from repro.workloads.programs import VectorAddWorkload
from tests.conftest import run_program


class TestTracers:
    def test_instruction_trace_ring(self):
        from repro.elf.builder import ProgramBuilder
        from repro.sim.machine import Kernel, Core

        b = ProgramBuilder("t")
        b.set_text("_start:\nli a0, 3\nloop:\naddi a0, a0, -1\nbnez a0, loop\nli a7, 93\nli a0, 0\necall\n")
        binary = b.build()
        proc = make_process(binary)
        kernel = Kernel()
        cpu = kernel.make_cpu(proc, Core(0, RV64GCV))
        trace = InstructionTrace(capacity=4)
        attach(cpu, trace)
        kernel.run(proc, Core(0, RV64GCV), cpu=cpu)
        assert len(trace.buffer) == 4  # capacity-bounded
        # ecall traps before retiring, so the last traced instruction is
        # the preceding li (an addi).
        assert "addi" in trace.format(1)

    def test_hotspot_counts_loop_iterations(self):
        from repro.elf.builder import ProgramBuilder

        b = ProgramBuilder("t")
        b.set_text("_start:\nli a0, 5\nloop:\naddi a0, a0, -1\nbnez a0, loop\nli a7, 93\nli a0, 0\necall\n")
        binary = b.build()
        proc = make_process(binary)
        kernel = Kernel()
        cpu = kernel.make_cpu(proc, Core(0, RV64GCV))
        hp = HotspotProfile()
        attach(cpu, hp)
        kernel.run(proc, Core(0, RV64GCV), cpu=cpu)
        loop = binary.symbol_addr("loop")
        assert hp.counts[loop] == 5
        assert hp.hottest(1)[0][1] == 5

    def test_multitracer_fans_out(self):
        from repro.elf.builder import ProgramBuilder

        b = ProgramBuilder("t")
        b.set_text("_start:\nnop\nli a7, 93\nli a0, 0\necall\n")
        binary = b.build()
        proc = make_process(binary)
        kernel = Kernel()
        cpu = kernel.make_cpu(proc, Core(0, RV64GCV))
        hp, bp = HotspotProfile(), BranchProfile()
        hook = attach(cpu, hp, bp)
        assert isinstance(hook, MultiTracer)
        kernel.run(proc, Core(0, RV64GCV), cpu=cpu)
        # nop + two li; the trapping ecall does not retire through step().
        assert sum(hp.counts.values()) == 3


class TestNormalPathClaims:
    def test_rewritten_binary_spends_time_in_chimera_text(self):
        """RegionProfile proves the translated code actually executes."""
        binary = VectorAddWorkload(n=16).build("ext")
        rewriter = ChimeraRewriter()
        result = rewriter.rewrite(binary, RV64GC)
        ct = result.binary.section(".chimera.text")
        proc = make_process(result.binary)
        kernel = Kernel()
        ChimeraRuntime(result.binary).install(kernel)
        cpu = kernel.make_cpu(proc, Core(0, RV64GC))
        rp = RegionProfile([
            ("text", result.binary.text.addr, result.binary.text.end),
            ("chimera", ct.addr, ct.end),
        ])
        attach(cpu, rp)
        res = kernel.run(proc, Core(0, RV64GC), cpu=cpu)
        assert res.ok
        assert rp.instructions["chimera"] > 0
        assert rp.share("<other>") == 0.0

    def test_normal_execution_raises_no_faults(self):
        """The paper's Assertion 2: normal executions pay only the
        trampoline jumps — zero fault-handler invocations."""
        binary = VectorAddWorkload(n=16).build("ext")
        rewriter = ChimeraRewriter()
        result = rewriter.rewrite(binary, RV64GC)
        runtime = ChimeraRuntime(result.binary)
        kernel = Kernel()
        runtime.install(kernel)
        res = kernel.run(make_process(result.binary), Core(0, RV64GC))
        assert res.ok
        assert runtime.stats.deterministic_faults == 0
        assert runtime.stats.trap_redirects == 0
