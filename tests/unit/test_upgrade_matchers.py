"""Upgrade (and loop-downgrade) pattern matcher tests."""

import pytest

from repro.analysis.cfg import build_cfg
from repro.analysis.liveness import LivenessAnalysis
from repro.analysis.scan import RecursiveScanner
from repro.core.downgrade_loops import find_downgrade_loop_sites
from repro.core.upgrade import find_upgrade_sites
from repro.elf.builder import ProgramBuilder
from repro.isa.extensions import RV64GC, RV64GCV


def analyze(text: str, data=None):
    b = ProgramBuilder("t")
    for k, v in (data or {"buf": [0] * 32}).items():
        b.add_words(k, v)
    b.set_text(text)
    binary = b.build()
    scan = RecursiveScanner().scan(binary)
    cfg = build_cfg(scan)
    live = LivenessAnalysis(cfg).run()
    return binary, scan, cfg, live


MAP_LOOP = """
_start:
    li a0, {buf}
    li a1, {buf}
    li a2, {buf}
    li a3, 8
map:
    ld t0, 0(a0)
    ld t1, 0(a1)
    add t2, t0, t1
    sd t2, 0(a2)
    addi a0, a0, 8
    addi a1, a1, 8
    addi a2, a2, 8
    addi a3, a3, -1
    bnez a3, map
    li a7, 93
    li a0, 0
    ecall
"""

DOT_LOOP = """
_start:
    li a0, {buf}
    li a1, {buf}
    li a3, 8
    li a4, 0
dot:
    ld t0, 0(a0)
    ld t1, 0(a1)
    mul t2, t0, t1
    add a4, a4, t2
    addi a0, a0, 8
    addi a1, a1, 8
    addi a3, a3, -1
    bnez a3, dot
    mv a1, a4
    li a7, 93
    li a0, 0
    ecall
"""


class TestUpgradeMatchers:
    def test_map_loop_matched(self):
        binary, scan, cfg, live = analyze(MAP_LOOP)
        sites = find_upgrade_sites(scan, cfg, live, RV64GCV)
        kinds = [s.kind for s in sites]
        assert "vec-map" in kinds

    def test_dot_loop_matched(self):
        binary, scan, cfg, live = analyze(DOT_LOOP)
        sites = find_upgrade_sites(scan, cfg, live, RV64GCV)
        assert [s.kind for s in sites] == ["vec-dot"]

    def test_no_upgrades_for_base_target(self):
        binary, scan, cfg, live = analyze(MAP_LOOP)
        assert find_upgrade_sites(scan, cfg, live, RV64GC) == []

    def test_zba_fusion_matched(self):
        binary, scan, cfg, live = analyze("""
_start:
    slli t0, a1, 2
    add a0, t0, a2
    li a7, 93
    ecall
""")
        sites = find_upgrade_sites(scan, cfg, live, RV64GCV)
        assert [s.kind for s in sites] == ["zba"]
        assert sites[0].replacement.items[0].mnemonic == "sh2add"

    def test_zba_rejected_when_temp_live(self):
        binary, scan, cfg, live = analyze("""
_start:
    slli t0, a1, 2
    add a0, t0, a2
    add a1, a1, t0
    li a7, 93
    li a0, 0
    ecall
""")
        sites = find_upgrade_sites(scan, cfg, live, RV64GCV)
        assert all(s.kind != "zba" for s in sites)

    def test_map_rejected_when_temp_live_after(self):
        text = MAP_LOOP.replace("    li a7, 93", "    mv a5, t2\n    li a7, 93")
        binary, scan, cfg, live = analyze(text)
        sites = find_upgrade_sites(scan, cfg, live, RV64GCV)
        assert all(s.kind != "vec-map" for s in sites)

    def test_map_rejected_wrong_stride(self):
        text = MAP_LOOP.replace("addi a0, a0, 8", "addi a0, a0, 16")
        binary, scan, cfg, live = analyze(text)
        sites = find_upgrade_sites(scan, cfg, live, RV64GCV)
        assert all(s.kind != "vec-map" for s in sites)

    def test_copy_loop_matched_and_accelerates(self):
        from repro.harness import run_chimera, run_native
        from repro.workloads.programs import MemcpyWorkload

        binary = MemcpyWorkload().build("base")
        nat = run_native(binary, RV64GC)
        up = run_chimera(binary, RV64GCV)
        assert up.ok
        assert up.rewrite_stats["upgrade_sites"] == 1
        assert up.cycles < nat.cycles

    def test_copy_loop_matcher_shape(self):
        binary, scan, cfg, live = analyze("""
_start:
    li a0, {buf}
    li a2, {buf}
    li a3, 8
cp:
    ld t0, 0(a0)
    sd t0, 0(a2)
    addi a0, a0, 8
    addi a2, a2, 8
    addi a3, a3, -1
    bnez a3, cp
    li a7, 93
    li a0, 0
    ecall
""")
        sites = find_upgrade_sites(scan, cfg, live, RV64GCV)
        assert any(s.kind == "vec-copy" for s in sites)

    def test_copy_loop_rejected_if_value_live_after(self):
        binary, scan, cfg, live = analyze("""
_start:
    li a0, {buf}
    li a2, {buf}
    li a3, 8
cp:
    ld t0, 0(a0)
    sd t0, 0(a2)
    addi a0, a0, 8
    addi a2, a2, 8
    addi a3, a3, -1
    bnez a3, cp
    mv a4, t0
    li a7, 93
    li a0, 0
    ecall
""")
        sites = find_upgrade_sites(scan, cfg, live, RV64GCV)
        assert all(s.kind != "vec-copy" for s in sites)

    def test_upgraded_semantics_equivalent(self):
        """Full pipeline check: upgraded binary computes the same map."""
        from repro.elf.loader import make_process
        from repro.core.rewriter import ChimeraRewriter
        from repro.core.runtime import ChimeraRuntime
        from repro.sim.machine import Core, Kernel

        b = ProgramBuilder("m")
        b.add_words("x", list(range(10, 18)))
        b.add_words("y", list(range(1, 9)))
        b.add_words("z", [0] * 8)
        b.set_text(MAP_LOOP.replace("{buf}", "{x}", 1)
                   .replace("{buf}", "{y}", 1)
                   .replace("{buf}", "{z}", 1))
        binary = b.build()
        rewriter = ChimeraRewriter()
        result = rewriter.rewrite(binary, RV64GCV)
        assert result.stats.upgrade_sites == 1
        proc = make_process(result.binary)
        kernel = Kernel()
        ChimeraRuntime(result.binary).install(kernel)
        res = kernel.run(proc, Core(0, RV64GCV))
        assert res.exit_code == 0 and res.fault is None
        z = binary.symbol_addr("z")
        got = [proc.space.read_u64(z + 8 * i) for i in range(8)]
        assert got == [11, 13, 15, 17, 19, 21, 23, 25]


VEC_MAP_EXT = """
_start:
    li a0, {x}
    li a1, {y}
    li a2, {z}
    li a3, 8
vloop:
    vsetvli t0, a3, e64
    vle64.v v1, (a0)
    vle64.v v2, (a1)
    vadd.vv v3, v1, v2
    vse64.v v3, (a2)
    slli t1, t0, 3
    add a0, a0, t1
    add a1, a1, t1
    add a2, a2, t1
    sub a3, a3, t0
    bnez a3, vloop
    li a7, 93
    li a0, 0
    ecall
"""


class TestDowngradeLoopMatchers:
    def _analyze_ext(self):
        b = ProgramBuilder("v")
        b.add_words("x", list(range(8)))
        b.add_words("y", list(range(8)))
        b.add_words("z", [0] * 8)
        b.set_text(VEC_MAP_EXT)
        binary = b.build()
        scan = RecursiveScanner().scan(binary)
        cfg = build_cfg(scan)
        live = LivenessAnalysis(cfg).run()
        return binary, scan, cfg, live

    def test_map_loop_downgrade_matched(self):
        binary, scan, cfg, live = self._analyze_ext()
        sites = find_downgrade_loop_sites(scan, cfg, live, RV64GC)
        assert [s.kind for s in sites] == ["down-map"]
        assert sites[0].entry_policy == "restart-head"

    def test_not_matched_when_target_has_vector(self):
        binary, scan, cfg, live = self._analyze_ext()
        assert find_downgrade_loop_sites(scan, cfg, live, RV64GCV) == []

    def test_interior_jump_blocks_match(self):
        """A static branch into the loop interior must reject the match."""
        text = VEC_MAP_EXT.replace(
            "_start:",
            "_start:\n    beqz a4, mid\n"
        ).replace(
            "    vle64.v v2, (a1)",
            "mid:\n    vle64.v v2, (a1)"
        )
        b = ProgramBuilder("v")
        b.add_words("x", [0] * 8)
        b.add_words("y", [0] * 8)
        b.add_words("z", [0] * 8)
        b.set_text(text)
        binary = b.build()
        scan = RecursiveScanner().scan(binary)
        cfg = build_cfg(scan)
        live = LivenessAnalysis(cfg).run()
        sites = find_downgrade_loop_sites(scan, cfg, live, RV64GC)
        assert sites == []

    def test_dot_full_region_matched(self):
        from repro.workloads.programs import DotProductWorkload

        binary = DotProductWorkload().build("ext")
        scan = RecursiveScanner().scan(binary)
        cfg = build_cfg(scan)
        live = LivenessAnalysis(cfg).run()
        sites = find_downgrade_loop_sites(scan, cfg, live, RV64GC)
        assert any(s.kind == "down-dot" for s in sites)
        dot = next(s for s in sites if s.kind == "down-dot")
        assert len(dot.instructions) == 21  # init(2) + loop(9) + tail(10)

    def test_memcpy_matched(self):
        from repro.workloads.programs import MemcpyWorkload

        binary = MemcpyWorkload().build("ext")
        scan = RecursiveScanner().scan(binary)
        cfg = build_cfg(scan)
        live = LivenessAnalysis(cfg).run()
        sites = find_downgrade_loop_sites(scan, cfg, live, RV64GC)
        assert any(s.kind == "down-memcpy" for s in sites)

    def test_dot_with_vmv_x_s_tail_matched_and_correct(self):
        """The compact vmv.x.s reduction idiom is matched and its scalar
        replacement computes the same dot product."""
        b = ProgramBuilder("vx")
        n = 10
        xs = list(range(1, n + 1))
        ys = list(range(5, 5 + n))
        b.add_words("x", xs)
        b.add_words("y", ys)
        b.add_words("out", [0])
        b.set_text(f"""
_start:
    li a0, {{x}}
    li a1, {{y}}
    li a3, {n}
    li a4, 0
    vsetvli t0, zero, e64
    vmv.v.i v1, 0
vd:
    vsetvli t0, a3, e64
    vle64.v v2, (a0)
    vle64.v v3, (a1)
    vmacc.vv v1, v2, v3
    slli t1, t0, 3
    add a0, a0, t1
    add a1, a1, t1
    sub a3, a3, t0
    bnez a3, vd
    vsetvli t0, zero, e64
    vmv.v.i v2, 0
    vredsum.vs v3, v1, v2
    vmv.x.s t1, v3
    add a4, a4, t1
    li t0, {{out}}
    sd a4, 0(t0)
    li a7, 93
    li a0, 0
    ecall
""")
        binary = b.build()
        scan = RecursiveScanner().scan(binary)
        cfg = build_cfg(scan)
        live = LivenessAnalysis(cfg).run()
        sites = find_downgrade_loop_sites(scan, cfg, live, RV64GC)
        assert [s.kind for s in sites] == ["down-dot"]
        assert len(sites[0].instructions) == 2 + 9 + 5

        from repro.core.rewriter import ChimeraRewriter
        from repro.core.runtime import ChimeraRuntime
        from repro.elf.loader import make_process
        from repro.sim.machine import Core, Kernel

        result = ChimeraRewriter().rewrite(binary, RV64GC)
        kernel = Kernel()
        ChimeraRuntime(result.binary).install(kernel)
        proc = make_process(result.binary)
        res = kernel.run(proc, Core(0, RV64GC))
        assert res.ok, res.fault
        expected = sum(a * b for a, b in zip(xs, ys))
        assert proc.space.read_u64(binary.symbol_addr("out")) == expected
