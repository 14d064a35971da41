"""Trace tier: equivalence with the lower tiers, hot-block profiling,
guard side exits, and the `invalidate_code` edge cases from the
two-tier invalidation contract — ranges that split a trace mid-chain,
overlap only a successor block, or land between two traces sharing a
block must evict exactly the overlapping traces and revalidate the
survivors."""

import pytest

from repro.elf.builder import ProgramBuilder
from repro.elf.loader import make_process
from repro.isa.encoding import encode
from repro.isa.extensions import PROFILES
from repro.isa.instructions import Instruction
from repro.sim.faults import SimFault, SimulationLimitExceeded
from repro.sim.machine import Core, Kernel
from repro.workloads.programs import FibonacciWorkload

RV64GC = PROFILES["rv64gc"]


def _loop_binary(iterations=40):
    b = ProgramBuilder("trace-loop")
    b.set_text(f"""
_start:
    li a0, 0
    li t0, {iterations}
loop:
    addi a0, a0, 1
    addi t0, t0, -1
    bnez t0, loop
    li a7, 93
    ecall
""")
    return b.build()


def _shared_block_binary(iterations=8):
    """Two hot loops that both run through one shared block.

    Each loop body jumps into ``shared`` which returns through an
    indirect jump (``jr t1``).  Phase A's trace starts at ``shared`` and
    loops through ``back_a`` and ``loop_a``; phase B's trace starts at
    ``back_b`` and chains through ``loop_b`` up to ``shared``, where it
    ends because phase A's trace begins there."""
    b = ProgramBuilder("trace-shared")
    b.set_text(f"""
_start:
    li t0, {iterations}
    li a0, 0
    li a1, 0
    li a2, 0
    la t1, back_a
loop_a:
    addi a0, a0, 1
    j shared
back_a:
    addi t0, t0, -1
    bnez t0, loop_a
    li t0, {iterations}
    la t1, back_b
loop_b:
    addi a1, a1, 1
    j shared
back_b:
    addi t0, t0, -1
    bnez t0, loop_b
    li a7, 93
    ecall
shared:
    addi a2, a2, 1
    jr t1
""")
    return b.build()


def _overlapping_traces_binary(iterations=8):
    """One loop whose head alternates between two paths that rejoin at
    ``shared``.

    The first trace records from ``head`` along the odd path and loops.
    When the head's branch next goes the other way, that trace side-exits
    to ``even``, whose trace runs through ``shared`` and ends at
    ``head``, the first trace's entry.  So two traces overlap on
    ``shared`` and neither of them starts there."""
    b = ProgramBuilder("trace-overlap")
    b.set_text(f"""
_start:
    li t0, {iterations}
    li a0, 0
    li a1, 0
    li a2, 0
    j head
head:
    andi t2, t0, 1
    bnez t2, odd
even:
    addi a0, a0, 1
    j shared
odd:
    addi a1, a1, 1
    j shared
shared:
    addi a2, a2, 1
    addi t0, t0, -1
    bnez t0, head
    li a7, 93
    ecall
""")
    return b.build()


def _nested_loop_binary(outer=12, inner=20):
    """An inner loop inside an outer one, storing one word per outer
    iteration into ``out``."""
    b = ProgramBuilder("trace-nested")
    b.add_words("out", [0] * outer)
    b.set_text(f"""
_start:
    la s1, {{out}}
    li s0, 0
    li t0, {outer}
outer:
    li t1, {inner}
inner:
    add s0, s0, t1
    xor s0, s0, t0
    addi t1, t1, -1
    bnez t1, inner
    sd s0, 0(s1)
    addi s1, s1, 8
    addi t0, t0, -1
    bnez t0, outer
    li a7, 93
    li a0, 0
    ecall
""")
    return b.build()


def _run(binary, **kernel_kwargs):
    kernel = Kernel(**kernel_kwargs)
    return kernel.run(make_process(binary), Core(0, RV64GC))


def _make_cpu(binary, *, trace_threshold=1, **kernel_kwargs):
    kernel = Kernel(trace_threshold=trace_threshold, **kernel_kwargs)
    process = make_process(binary)
    return kernel.make_cpu(process, Core(0, RV64GC)), process


def _trace_over(cpu, addr):
    """Traces whose registered ranges cover *addr*."""
    return [pc for pc, t in cpu._tcache.items()
            if any(s <= addr < e for _sg, _v, s, e in t.ranges)]


class TestEquivalence:
    def test_trace_matches_interpreter_and_block_tier(self):
        binary = FibonacciWorkload(iterations=30).build("base")
        step = _run(FibonacciWorkload(iterations=30).build("base"),
                    block_cache=False)
        block = _run(FibonacciWorkload(iterations=30).build("base"),
                     trace_cache=False)
        trace = _run(binary, trace_threshold=1)
        assert step.exit_code == block.exit_code == trace.exit_code == 0
        assert step.instret == block.instret == trace.instret
        assert step.cycles == block.cycles == trace.cycles
        assert step.output == block.output == trace.output
        assert trace.counters.get("trace_cache_hits", 0) > 0
        assert trace.counters.get("trace_instret", 0) > 0
        assert trace.counters.get("traces_compiled", 0) > 0

    def test_no_trace_cache_reports_no_trace_counters(self):
        result = _run(FibonacciWorkload(iterations=30).build("base"),
                      trace_cache=False)
        assert result.counters.get("trace_cache_hits", 0) == 0
        assert result.counters.get("trace_instret", 0) == 0
        assert result.counters.get("traces_compiled", 0) == 0

    def test_step_hook_forces_fallback(self):
        binary = _loop_binary()
        kernel = Kernel(trace_threshold=1)
        process = make_process(binary)
        cpu = kernel.make_cpu(process, Core(0, RV64GC))
        seen = []
        cpu.step_hook = lambda c: seen.append(c.pc)
        kernel.run(process, Core(0, RV64GC), cpu=cpu)
        assert seen
        assert cpu.counters.get("trace_instret", 0) == 0
        assert not cpu._tcache

    def test_budget_cut_mid_trace_accounts_exactly(self):
        """A budget expiring mid-pass must leave instret == budget and
        the same architectural state as pure stepping."""
        for budget in (7, 23, 48, 91):
            cpu_t, _ = _make_cpu(_loop_binary())
            cpu_s, _ = _make_cpu(_loop_binary(), block_cache=False)
            for cpu in (cpu_t, cpu_s):
                with pytest.raises(SimulationLimitExceeded):
                    cpu.run(max_instructions=budget)
            assert cpu_t.instret == cpu_s.instret == budget
            assert cpu_t.pc == cpu_s.pc
            assert cpu_t.cycles == cpu_s.cycles
            assert cpu_t.regs == cpu_s.regs


class TestHotBlocks:
    def test_histogram_reports_loop_entry_hottest(self):
        binary = _loop_binary(iterations=60)
        cpu, _ = _make_cpu(binary, trace_threshold=4)
        with pytest.raises(SimFault):
            cpu.run(max_instructions=10_000)
        hot = cpu.hot_blocks(top=1)
        assert hot
        loop_pc = binary.symbol_addr("loop")
        assert hot[0][0] == loop_pc
        # Counts keep accumulating after trace promotion: the loop runs
        # 60 iterations, far past the threshold of 4.
        assert hot[0][1] > 4

    def test_top_n_limits_the_list(self):
        cpu, _ = _make_cpu(_shared_block_binary())
        with pytest.raises(SimFault):
            cpu.run(max_instructions=10_000)
        assert len(cpu.hot_blocks(top=1)) == 1
        assert len(cpu.hot_blocks()) >= len(cpu.hot_blocks(top=1))


class TestGuardSideExits:
    def test_flip_flop_branch_side_exits_with_exact_state(self):
        b = ProgramBuilder("trace-flip")
        b.set_text("""
_start:
    li a0, 0
    li a1, 0
    li t0, 31
top:
    andi t1, t0, 1
    beqz t1, even
    addi a0, a0, 1
    j join
even:
    addi a1, a1, 1
join:
    addi t0, t0, -1
    bnez t0, top
    li a7, 93
    ecall
""")
        binary = b.build()
        trace = _run(binary, trace_threshold=1)
        step = _run(binary, block_cache=False)
        assert trace.counters.get("trace_side_exits", 0) > 0
        assert trace.instret == step.instret
        assert trace.cycles == step.cycles


class TestInvalidation:
    def _hot_cpu(self, binary):
        cpu, process = _make_cpu(binary)
        with pytest.raises(SimFault):  # runs to the exit ecall
            cpu.run(max_instructions=10_000)
        return cpu, process

    def test_two_traces_share_the_shared_block(self):
        binary = _overlapping_traces_binary()
        cpu, _ = self._hot_cpu(binary)
        # A looping trace from ``head`` and a linked one from ``even``,
        # both covering ``shared``, which neither starts at.
        assert len(cpu._tcache) == 2
        shared = binary.symbol_addr("shared")
        assert sorted(_trace_over(cpu, shared)) == sorted(cpu._tcache)

    def test_invalidating_shared_successor_block_evicts_both(self):
        """The range overlaps only a successor block of each trace —
        neither entry pc — yet both must go."""
        binary = _overlapping_traces_binary()
        cpu, process = self._hot_cpu(binary)
        shared = binary.symbol_addr("shared")
        before = cpu.counters.get("traces_invalidated", 0)
        process.space.patch_code(
            shared, encode(Instruction("addi", rd=12, rs1=12, imm=2)))
        cpu.invalidate_code(shared, 4)
        assert not cpu._tcache
        assert cpu.counters["traces_invalidated"] == before + 2

    def test_invalidation_between_traces_evicts_exactly_overlapping(self):
        """A range inside phase A's loop but outside trace B: exactly
        trace A is evicted, B survives revalidated against the bumped
        segment version."""
        binary = _shared_block_binary()
        cpu, process = self._hot_cpu(binary)
        back_a = binary.symbol_addr("back_a")
        overlapping = _trace_over(cpu, back_a)
        survivors = [pc for pc in cpu._tcache if pc not in overlapping]
        assert overlapping and survivors
        seg = process.space.fetch_segment(back_a)
        process.space.patch_code(
            back_a, encode(Instruction("addi", rd=5, rs1=5, imm=-2)))
        cpu.invalidate_code(back_a, 4)
        assert sorted(cpu._tcache) == sorted(survivors)
        # The survivors were revalidated against the bumped version:
        # they still dispatch (no eviction) on the next run.
        for pc in survivors:
            assert all(v == seg.version for s, v in
                       cpu._tcache[pc].versions if s is seg)

    def test_range_splitting_trace_mid_chain_evicts_it(self):
        """The invalidated range covers a mid-chain block of phase B's
        trace — not its entry — and must still evict it, leaving the
        non-overlapping trace alone."""
        binary = _shared_block_binary()
        cpu, process = self._hot_cpu(binary)
        loop_b = binary.symbol_addr("loop_b")
        overlapping = _trace_over(cpu, loop_b)
        assert overlapping and loop_b not in overlapping  # mid-chain
        survivors = [pc for pc in cpu._tcache if pc not in overlapping]
        assert survivors
        process.space.patch_code(
            loop_b, encode(Instruction("addi", rd=11, rs1=11, imm=2)))
        cpu.invalidate_code(loop_b, 4)
        assert sorted(cpu._tcache) == sorted(survivors)

    def test_bitrot_version_bump_alone_invalidates_trace(self):
        """patch_code with no invalidate_code call (the bitrot injector's
        move): the version check at dispatch must catch it — zero stale
        executions."""
        binary = _loop_binary(iterations=40)
        kernel = Kernel(trace_threshold=2)
        process = make_process(binary)
        cpu = kernel.make_cpu(process, Core(0, RV64GC))
        # Run long enough for the loop trace to form and execute.
        with pytest.raises(SimulationLimitExceeded):
            cpu.run(max_instructions=32)
        loop_pc = binary.symbol_addr("loop")
        assert loop_pc in cpu._tcache
        done = cpu.get_reg(10)
        remaining = 40 - done
        # Patch the increment inside the traced loop to add 2.
        process.space.patch_code(
            loop_pc, encode(Instruction("addi", rd=10, rs1=10, imm=2)))
        with pytest.raises(SimFault):  # runs to the exit ecall
            cpu.run(max_instructions=10_000)
        assert cpu.get_reg(10) == done + 2 * remaining

    def test_reheated_block_retraces_after_invalidation(self):
        """After eviction the entry is still hot; the next block-cache
        dispatch may re-record, and the new trace sees the new bytes."""
        binary = _loop_binary(iterations=60)
        cpu, process = self._hot_cpu(binary)
        loop_pc = binary.symbol_addr("loop")
        assert loop_pc in cpu._tcache
        process.space.patch_code(
            loop_pc, encode(Instruction("addi", rd=10, rs1=10, imm=3)))
        cpu.invalidate_code(loop_pc, 4)
        assert loop_pc not in cpu._tcache
        cpu.pc = binary.entry
        cpu.set_reg(10, 0)
        with pytest.raises(SimFault):
            cpu.run(max_instructions=10_000)
        assert cpu.get_reg(10) == 3 * 60
        assert loop_pc in cpu._tcache  # re-recorded over the new bytes

    def test_flush_decode_cache_drops_traces_and_profile(self):
        binary = _loop_binary()
        cpu, _ = self._hot_cpu(binary)
        assert cpu._tcache and cpu._hot_counts
        cpu.flush_decode_cache()
        assert not cpu._tcache
        assert not cpu._hot_counts
        assert not cpu._trace_attempts


class TestLinking:
    """A recording stops at the entry of a trace already compiled, so
    the dispatcher hands over to that trace instead of compiling its
    code a second time."""

    def _run_tier(self, binary, **kernel_kwargs):
        cpu, process = _make_cpu(binary, **kernel_kwargs)
        with pytest.raises(SimFault):  # runs to the exit ecall
            cpu.run(max_instructions=100_000)
        data = bytes(process.space.segment_at(binary.data.addr).data)
        return cpu, (tuple(cpu.regs), cpu.pc, cpu.instret, cpu.cycles, data)

    def test_recording_ends_at_another_traces_entry(self):
        binary = _overlapping_traces_binary()
        cpu, _ = self._run_tier(binary)
        head = binary.symbol_addr("head")
        even = binary.symbol_addr("even")
        assert sorted(cpu._tcache) == sorted([head, even])
        assert cpu._tcache[head].loops
        linked = cpu._tcache[even]
        assert not linked.loops
        assert linked.ops[-1][2] == head  # the last guard expects head
        assert head not in linked.pcs

    def test_nested_loops_match_on_every_tier(self):
        binary = _nested_loop_binary()
        _, step = self._run_tier(binary, block_cache=False)
        _, block = self._run_tier(binary, trace_cache=False)
        cpu, trace = self._run_tier(binary)
        assert step == block == trace
        assert cpu.counters["trace_instret"] > 0

    def test_nested_loops_compile_fewer_ops(self):
        """The outer trace ends at the inner loop's entry instead of
        running through the inner body a second time.  The block at
        ``outer`` falls through into the inner body once, so those four
        ops are still in both traces.  A recording that ran on through
        the inner loop's entry would compile 2 traces of 17 ops here."""
        binary = _nested_loop_binary()
        cpu, _ = self._run_tier(binary)
        inner = binary.symbol_addr("inner")
        assert cpu._tcache[inner].loops
        (outer,) = [t for pc, t in cpu._tcache.items() if pc != inner]
        assert not outer.loops
        assert outer.ops[-1][2] == inner
        assert sum(t.n for t in cpu._tcache.values()) == 13 < 17

    @pytest.mark.parametrize("body, fault_op", [
        ("    addi t0, t0, 1\n    ld a0, 0(s1)\n", 1),
        ("    ld a0, 0(s1)\n    addi t0, t0, 1\n", 0),
    ], ids=["second-op", "first-op"])
    def test_fault_mid_pass_reports_the_last_retired_pc(self, body, fault_op):
        """A load that walks off ``.data`` faults in a later pass of a
        looping trace: every tier stops at the same pc, with the op
        before it as the last retired one.  When the load is the loop's
        first op, that op is the previous pass's last."""
        b = ProgramBuilder("trace-walk-off")
        b.add_words("buf", [7] * 64)
        b.set_text("_start:\n    la s1, {buf}\n    li t0, 0\nloop:\n"
                   + body + "    addi s1, s1, 8\n    j loop\n")
        binary = b.build()
        states = []
        for kwargs in ({"block_cache": False}, {"trace_cache": False}, {}):
            cpu, _ = _make_cpu(binary, **kwargs)
            with pytest.raises(SimFault) as info:
                cpu.run(max_instructions=1_000_000)
            states.append((type(info.value).__name__, info.value.pc, cpu.pc,
                           cpu.last_pc, cpu.instret, cpu.cycles, tuple(cpu.regs)))
        assert states[0] == states[1] == states[2]
        loop = binary.symbol_addr("loop")
        load = loop + 4 * fault_op
        last = load - 4 if fault_op else loop + 12
        assert states[2][1:4] == (load, load, last)
        assert cpu.counters["trace_instret"] > 0
