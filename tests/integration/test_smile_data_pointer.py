"""The Fig. 5 general-register SMILE variant, end to end.

For ISAs without a gp-like register, SMILE overwrites a preceding
``lui rX, hi ; load lo(rX)`` data-access pair instead: rX provably holds
a data-segment pointer at the pair, so a partial execution (the jalr
alone) faults deterministically through the stale pointer.
"""

import pytest

from repro.core.patcher import ChbpPatcher
from repro.core.rewriter import ChimeraRewriter
from repro.core.runtime import ChimeraRuntime
from repro.elf.builder import ProgramBuilder
from repro.elf.loader import make_process
from repro.isa.extensions import RV64GC, RV64GCV
from repro.isa.registers import Reg
from repro.sim.machine import Core, Kernel
from repro.verify.records import p1_registers


def pair_binary():
    """The vector source is preceded by the classic lui+lw data access
    (paper Fig. 5's 'original inst.'), using a0 as the data pointer."""
    b = ProgramBuilder("dp")
    b.add_words("cfg", [4])         # the value the lui+lw pair loads
    b.add_words("buf", [3, 5, 7, 9] + [0] * 8)
    b.add_words("out", [0] * 4)
    cfg_addr = b.data_addr_of("cfg")
    hi = (cfg_addr + 0x800) >> 12
    lo = cfg_addr - (hi << 12)
    b.set_text(f"""
_start:
    lui a0, {hi}
    lw a1, {lo}(a0)
    li a2, {{buf}}
    vsetvli t0, a1, e64
    vle64.v v1, (a2)
    vadd.vv v2, v1, v1
    li a3, {{out}}
    vse64.v v2, (a3)
    li a7, 93
    li a0, 0
    ecall
""")
    return b.build()


class TestDataPointerSmile:
    def test_rewrite_places_general_register_trampoline(self):
        binary = pair_binary()
        patcher = ChbpPatcher(binary, RV64GC, smile_register="data-pointer",
                              enable_upgrades=False)
        out = patcher.patch()
        assert patcher.stats.trampolines >= 1
        p1_regs = p1_registers(patcher.patch_records)
        assert p1_regs, "no data-pointer trampoline recorded"
        assert all(reg != int(Reg.GP) for reg in p1_regs.values())

    def test_rewritten_binary_correct_on_base_core(self):
        binary = pair_binary()
        rewriter = ChimeraRewriter(smile_register="data-pointer",
                                   enable_upgrades=False)
        result = rewriter.rewrite(binary, RV64GC)
        kernel = Kernel()
        ChimeraRuntime(result.binary).install(kernel)
        proc = make_process(result.binary)
        res = kernel.run(proc, Core(0, RV64GC))
        assert res.ok, res.fault
        outa = binary.symbol_addr("out")
        assert [proc.space.read_u64(outa + 8 * i) for i in range(4)] == [6, 10, 14, 18]

    def test_gp_untouched_by_data_pointer_trampolines(self):
        """The variant's whole point: gp is never clobbered."""
        binary = pair_binary()
        rewriter = ChimeraRewriter(smile_register="data-pointer",
                                   enable_upgrades=False)
        result = rewriter.rewrite(binary, RV64GC)
        kernel = Kernel()
        ChimeraRuntime(result.binary).install(kernel)
        proc = make_process(result.binary)
        cpu = kernel.make_cpu(proc, Core(0, RV64GC))
        res = kernel.run(proc, Core(0, RV64GC), cpu=cpu)
        assert res.ok
        assert cpu.get_reg(Reg.GP) == binary.global_pointer

    def test_erroneous_entry_at_pair_second_slot_recovers(self):
        """Jumping at the pair's load slot (P1) must fault through the
        stale data pointer and redirect to the reconstructed load."""
        from repro.sim.faults import SegmentationFault

        binary = pair_binary()
        rewriter = ChimeraRewriter(smile_register="data-pointer",
                                   enable_upgrades=False)
        result = rewriter.rewrite(binary, RV64GC)
        runtime = ChimeraRuntime(result.binary)
        kernel = Kernel()
        runtime.install(kernel)
        (p1_addr, reg), = p1_registers(runtime.patch_records).items()
        proc = make_process(result.binary)
        cpu = kernel.make_cpu(proc, Core(0, RV64GC))
        # Simulate the original program state at P1: rX holds the data
        # pointer (as any pre-rewrite jump to the load required).
        cpu.set_reg(reg, binary.symbol_addr("cfg") + 0x800 - 0x800)
        cpu.set_reg(reg, binary.symbol_addr("cfg"))
        cpu.pc = p1_addr
        with pytest.raises(SegmentationFault) as exc:
            for _ in range(2):
                cpu.step()
        assert exc.value.access == "exec"
        handled = runtime.handle_fault(kernel, proc, cpu, exc.value)
        assert handled
        assert cpu.pc == runtime.fault_table.lookup(p1_addr)
        assert runtime.stats.smile_segv_recoveries == 1

    def test_fallback_to_traps_without_pair(self):
        """No preceding data-access pair: the paper predicts increased
        reliance on trap-based trampolines (§3.3)."""
        b = ProgramBuilder("nopair")
        b.add_words("buf", [1, 2] + [0] * 8)
        b.set_text("""
_start:
    li a2, {buf}
    li a1, 2
    vsetvli t0, a1, e64
    vle64.v v1, (a2)
    vse64.v v1, (a2)
    li a7, 93
    li a0, 0
    ecall
""")
        binary = b.build()
        patcher = ChbpPatcher(binary, RV64GC, smile_register="data-pointer",
                              enable_upgrades=False)
        out = patcher.patch()
        assert patcher.stats.trampolines == 0
        assert patcher.stats.trap_fallbacks >= 1
        # ... and the trap path still runs correctly.
        kernel = Kernel()
        ChimeraRuntime(out).install(kernel)
        res = kernel.run(make_process(out), Core(0, RV64GC))
        assert res.ok
