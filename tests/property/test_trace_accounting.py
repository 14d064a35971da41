"""Property test: ``step()``, superblock and trace execution agree.

Every mnemonic of the semantic table (:data:`repro.sim.semantics.
SEMANTICS`) has a snippet generator below.  For each mnemonic
Hypothesis builds a hot loop around a few drawn instances of it:

* register values biased to the edges (0, -1, INT64_MIN, INT32_MIN,
  ...), so division by zero and signed overflow come up, and x0 as a
  destination and a source;
* compressed forms with their implicit operands;
* every vector op at SEW 32 and 64, with loads and stores of either
  width;
* loads and stores through a pointer that walks off ``.data`` part-way
  through the loop, so they fault mid-trace;
* traps and an illegal ``vsetvli`` (SEW e8/e16 or a reserved code)
  reached only late in the loop, after the trace is hot.

Each program runs three ways — pure ``step()``, block cache only, trace
tier at threshold 1 — to the end, and again with budgets that expire
mid-loop.  Registers, pc, instret, cycles, vector registers, the data
segment and the fault's type, kind and pc must match exactly.

A second generator builds branchy loops whose data-dependent branches
force guard side exits.

Deterministic replay: seeded from ``REPRO_FUZZ_SEED`` like the
differential fuzzer (see ``conftest.py`` here).
"""

import os
import random

import pytest
from hypothesis import HealthCheck, given, seed, settings, strategies as st

from repro.elf.builder import ProgramBuilder
from repro.elf.loader import make_process
from repro.isa.extensions import RV64GC, RV64GCV
from repro.sim.faults import (
    IllegalInstructionFault,
    SimFault,
    SimulationLimitExceeded,
)
from repro.sim.machine import Core, Kernel
from repro.sim.semantics import SEMANTICS

M64 = (1 << 64) - 1
REGS = ("a2", "a3", "a4", "a5", "t3", "t4")
#: x12-x15: registers every compressed form can name.
RVC = ("a2", "a3", "a4", "a5")
EDGES = (0, 1, 2, M64, 1 << 63, (1 << 63) - 1, 1 << 31, (1 << 31) - 1,
         0xFFFF_FFFF, 0xFFFF_FFFF_8000_0000, 0xFFFF_FFFF_FFFF_FFFE)

RRR = ("add", "sub", "sll", "slt", "sltu", "xor", "srl", "sra", "or", "and",
       "addw", "subw", "sllw", "srlw", "sraw", "mul", "mulh", "mulhsu",
       "mulhu", "div", "divu", "rem", "remu", "mulw", "divw", "divuw",
       "remw", "remuw", "sh1add", "sh2add", "sh3add")
RRI = ("addi", "slti", "sltiu", "xori", "ori", "andi", "addiw")
SHIFTS = {"slli": 63, "srli": 63, "srai": 63,
          "slliw": 31, "srliw": 31, "sraiw": 31}
LOADS = {"lb": 1, "lh": 2, "lw": 4, "ld": 8, "lbu": 1, "lhu": 2, "lwu": 4}
STORES = {"sb": 1, "sh": 2, "sw": 4, "sd": 8}
BRANCHES = ("beq", "bne", "blt", "bge", "bltu", "bgeu")
C_RR = ("c.sub", "c.xor", "c.or", "c.and", "c.subw", "c.addw")
#: Compressed memory ops: (base register, offset step, offset limit).
C_MEM = {"c.lw": ("s0", 4, 124), "c.ld": ("s0", 8, 248),
         "c.sw": ("s0", 4, 124), "c.sd": ("s0", 8, 248),
         "c.lwsp": ("sp", 4, 252), "c.ldsp": ("sp", 8, 504),
         "c.swsp": ("sp", 4, 252), "c.sdsp": ("sp", 8, 504)}
V_ARITH = ("vadd.vv", "vsub.vv", "vmul.vv", "vand.vv", "vor.vv", "vxor.vv",
           "vmin.vv", "vmax.vv", "vminu.vv", "vmaxu.vv", "vsll.vv",
           "vsrl.vv", "vsra.vv", "vmacc.vv", "vredsum.vs")
V_SCALAR = ("vadd.vx", "vsub.vx", "vmul.vx", "vsll.vx", "vsrl.vx", "vsra.vx")


def c_addi16sp(imm: int) -> int:
    """Encode ``c.addi16sp`` (the assembler has no syntax for it)."""
    u = imm & 0x3FF
    return ((0b011 << 13) | ((u >> 9 & 1) << 12) | (2 << 7) | ((u >> 4 & 1) << 6)
            | ((u >> 6 & 1) << 5) | ((u >> 7 & 3) << 3) | ((u >> 5 & 1) << 2)
            | 0b01)


# -- snippets ---------------------------------------------------------------
# A snippet generator takes a chooser (``choice(seq)``/``randint(lo, hi)``:
# random.Random, or Hypothesis through _Draw), the mnemonic and a fresh
# label, and returns assembly lines.

def value(ch) -> int:
    return ch.choice(EDGES) if ch.randint(0, 2) else ch.randint(0, M64)


def skip(label: str, lines: list[str]) -> list[str]:
    """*lines* jump to *label*, over one instruction that must not run."""
    return lines + ["    addi a5, a5, 3", f"{label}:"]


def late(label: str, lines: list[str]) -> list[str]:
    """*lines* run only on the second-to-last trip, once traces are hot."""
    return ["    addi t6, s2, -2", f"    bnez t6, {label}"] + lines + [f"{label}:"]


def mem_base(ch) -> str:
    """s0 stays on the buffer; s1 walks off .data part-way through."""
    return ch.choice(("s0", "s0", "s1"))


def scalar_snippet(ch, m: str, label: str) -> list[str]:
    dst, src = REGS + ("zero",), REGS + ("zero",)
    if m in RRR:
        return [f"    {m} {ch.choice(dst)}, {ch.choice(src)}, {ch.choice(src)}"]
    if m in RRI:
        return [f"    {m} {ch.choice(dst)}, {ch.choice(src)}, "
                f"{ch.choice((0, -1, 1, 2047, -2048, ch.randint(-2048, 2047)))}"]
    if m in SHIFTS:
        return [f"    {m} {ch.choice(dst)}, {ch.choice(src)}, "
                f"{ch.randint(0, SHIFTS[m])}"]
    if m in LOADS:
        off = ch.randint(-8, 248) if ch.randint(0, 1) else 8 * ch.randint(0, 31)
        return [f"    {m} {ch.choice(dst)}, {off}({mem_base(ch)})"]
    if m in STORES:
        return [f"    {m} {ch.choice(src)}, {ch.randint(0, 248)}({mem_base(ch)})"]
    if m in BRANCHES:
        # t4 starts small, so against the counter s2 the branch flips
        # direction (through equality) part-way through the loop.
        a, b = ("t4", "s2") if ch.randint(0, 1) else (ch.choice(src), ch.choice(src))
        if ch.randint(0, 1):
            a, b = b, a
        return skip(label, [f"    {m} {a}, {b}, {label}"])
    if m in ("lui", "auipc"):
        return [f"    {m} {ch.choice(dst)}, {ch.randint(0, 0xFFFFF)}"]
    if m == "jal":
        return skip(label, [f"    jal {ch.choice(('zero', 'ra', 't5'))}, {label}"])
    if m == "jalr":
        off, odd = ch.choice((0, 4, -8)), ch.randint(0, 1)
        return skip(label, [f"    la t6, {label}", f"    addi t6, t6, {odd - off}",
                            f"    jalr {ch.choice(('zero', 'ra', 't5', 't6'))}, "
                            f"{off}(t6)"])
    if m in ("ecall", "ebreak", "c.ebreak"):
        return late(label, [f"    {m}"])
    if m in ("fence", "c.nop"):
        return [f"    {m}"]
    if m in ("c.addi", "c.addiw", "c.li", "c.lui"):
        imm = ch.choice([i for i in range(-32, 32) if i or m in ("c.addiw", "c.li")])
        return [f"    {m} {ch.choice(REGS)}, {imm}"]
    if m == "c.addi16sp":
        imm = 16 * ch.choice([i for i in range(-32, 32) if i])
        return [f"    .half {c_addi16sp(imm)}", "    c.ldsp a2, 8(sp)"]
    if m == "c.addi4spn":
        return [f"    c.addi4spn {ch.choice(RVC)}, {4 * ch.randint(1, 255)}"]
    if m == "c.slli":
        return [f"    c.slli {ch.choice(REGS)}, {ch.randint(1, 63)}"]
    if m in ("c.srli", "c.srai"):
        return [f"    {m} {ch.choice(RVC)}, {ch.randint(1, 63)}"]
    if m == "c.andi":
        return [f"    c.andi {ch.choice(RVC)}, {ch.randint(-32, 31)}"]
    if m in C_RR:
        return [f"    {m} {ch.choice(RVC)}, {ch.choice(RVC)}"]
    if m in ("c.mv", "c.add"):
        return [f"    {m} {ch.choice(REGS)}, {ch.choice(REGS)}"]
    if m in C_MEM:
        base, step, limit = C_MEM[m]
        if base == "s0":
            base = mem_base(ch)
        reg = ch.choice(RVC if base != "sp" else REGS)
        return [f"    {m} {reg}, {step * ch.randint(0, limit // step)}({base})"]
    if m == "c.j":
        return skip(label, [f"    c.j {label}"])
    if m in ("c.jr", "c.jalr"):
        return skip(label, [f"    la t6, {label}", f"    {m} t6"])
    if m in ("c.beqz", "c.bnez"):
        return skip(label, [f"    {m} {ch.choice(RVC)}, {label}"])
    raise KeyError(m)


def vector_snippet(ch, m: str, label: str, sew: int = 0) -> list[str]:
    sew = sew or ch.choice((32, 64))
    width = {"vle32.v": 32, "vse32.v": 32, "vle64.v": 64, "vse64.v": 64}.get(
        m, sew if ch.randint(0, 2) else ch.choice((32, 64)))
    rd, rs1 = ("t0", "t0") if m != "vsetvli" else (
        ch.choice(("t0", "zero")), ch.choice(("t0", "t0", "zero")))
    lines = [f"    li t0, {ch.randint(0, 9)}",
             f"    vsetvli {rd}, {rs1}, e{sew}",
             f"    addi t1, s3, {32 * ch.randint(0, 8)}",
             f"    vle{width}.v v1, (t1)",
             f"    addi t2, s3, {32 * ch.randint(0, 8)}",
             f"    vle{sew}.v v2, (t2)"]
    vd = ch.choice(("v3", "v3", "v1"))
    xreg = ch.choice(REGS)
    if m in V_ARITH:
        lines.append(f"    {m} {vd}, v1, v2")
    elif m in V_SCALAR:
        lines.append(f"    {m} {vd}, v1, {xreg}")
    elif m == "vadd.vi":
        lines.append(f"    vadd.vi {vd}, v1, {ch.randint(-16, 15)}")
    elif m == "vmv.v.x":
        lines.append(f"    vmv.v.x {vd}, {xreg}")
    elif m == "vmv.v.i":
        lines.append(f"    vmv.v.i {vd}, {ch.randint(-16, 15)}")
    elif m == "vmv.x.s":
        lines.append(f"    vmv.x.s {ch.choice(REGS + ('zero',))}, v2")
    elif m == "vsetvli" and not ch.randint(0, 2):
        bad = ch.choice(("e8", "e16", str(ch.randint(4, 7) << 3)))
        lines += late(label, [f"    vsetvli t0, t0, {bad}"])
    store_base = "s1" if not ch.randint(0, 3) else "t1"
    return lines + [f"    vse{width}.v {vd}, ({store_base})"]


def snippet(ch, m: str, label: str, sew: int = 0) -> list[str]:
    if m.startswith("v"):
        return vector_snippet(ch, m, label, sew)
    return scalar_snippet(ch, m, label)


def program(ch, mnemonic: str, sew: int = 0) -> str:
    """A hot loop around a few instances of *mnemonic* (vector ones at
    SEW *sew*, or a drawn one)."""
    body = []
    for n in range(ch.randint(1, 3)):
        body += snippet(ch, mnemonic, f"L{n}", sew)
        if ch.randint(0, 1):  # keep the values moving between trips
            body.append(f"    {ch.choice(('add', 'xor', 'sub'))} "
                        f"{ch.choice(REGS)}, {ch.choice(REGS)}, {ch.choice(REGS)}")
    init = [f"    li {reg}, {value(ch)}" for reg in REGS[:-1]]
    init.append(f"    li t4, {ch.randint(0, 24)}")
    return "\n".join([
        "_start:",
        "    li s0, {buf}",
        "    mv sp, s0",
        "    mv s1, s0",
        "    li s3, {vbuf}",
        f"    li s2, {ch.randint(4, 24)}",
        *init,
        "top:",
        *body,
        "    addi s1, s1, 64",
        "    addi s2, s2, -1",
        "    bnez s2, top",
        "    li a7, 93",
        "    li a0, 0",
        "    ecall",
    ])


# -- running ------------------------------------------------------------------

def build(text: str):
    b = ProgramBuilder("trace-fuzz")
    b.add_words("buf", [(i * 2654435761) % (1 << 62) for i in range(64)])
    b.add_words("vbuf", [(i * 40503) % (1 << 60) for i in range(64)])
    b.add_words("out", [0] * 2)
    b.set_text(text)
    return b.build()


#: Kernel switches of the three tiers.
TIERS = {"step": {"block_cache": False},
         "block": {"trace_cache": False},
         "trace": {}}


def run(binary, tier: str, *, budget: int = 1_000_000, profile=RV64GCV):
    """Run *binary* on one tier; returns (cpu, comparable end state)."""
    kernel = Kernel(trace_threshold=1, **TIERS[tier])
    process = make_process(binary)
    cpu = kernel.make_cpu(process, Core(0, profile))
    fault = None
    try:
        cpu.run(max_instructions=budget)
    except (SimFault, SimulationLimitExceeded) as exc:
        fault = exc
    data = bytes(process.space.segment_at(binary.data.addr).data)
    signature = None if fault is None else (
        type(fault).__name__, getattr(fault, "kind", None),
        getattr(fault, "addr", None), getattr(fault, "pc", None))
    return cpu, (cpu.instret, cpu.cycles, cpu.pc, cpu.last_pc, tuple(cpu.regs),
                 cpu.vector.snapshot(), data, signature)


def assert_tiers_agree(binary, text: str, budgets=(), profile=RV64GCV):
    """All tiers reach pure stepping's state, at the end and at each
    budget cut.  Returns the step and trace-tier cpus of the full run."""
    step, expected = run(binary, "step", profile=profile)
    traced = None
    for tier in ("block", "trace"):
        cpu, state = run(binary, tier, profile=profile)
        assert state == expected, f"{tier} diverged:\n{text}"
        traced = cpu
    for budget in budgets:
        budget = min(budget, step.instret)
        _, expected = run(binary, "step", budget=budget, profile=profile)
        for tier in ("block", "trace"):
            _, state = run(binary, tier, budget=budget, profile=profile)
            assert state == expected, f"{tier} budget={budget} diverged:\n{text}"
    return step, traced


class _Draw:
    """The snippet chooser protocol over Hypothesis draws."""

    def __init__(self, data):
        self.data = data

    def choice(self, seq):
        return self.data.draw(st.sampled_from(seq))

    def randint(self, lo, hi):
        return self.data.draw(st.integers(min_value=lo, max_value=hi))


FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "0"))

FUZZ_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

MNEMONIC_SETTINGS = settings(FUZZ_SETTINGS, max_examples=3)

#: Mnemonics that always trap, so no trace can contain them.
TRAPS = frozenset({"ecall", "ebreak", "c.ebreak"})

#: Every table entry; vector ones once per SEW.
CASES = [pytest.param(m, sew, id=f"{m}-e{sew}" if sew else m)
         for m in sorted(SEMANTICS)
         for sew in ((32, 64) if m.startswith("v") else (0,))]


class TestEveryMnemonic:
    def test_every_table_entry_has_a_generator(self):
        for m in SEMANTICS:
            assert snippet(random.Random(0), m, "L0"), m

    @pytest.mark.parametrize("mnemonic,sew", CASES)
    @seed(FUZZ_SEED)
    @given(data=st.data())
    @MNEMONIC_SETTINGS
    def test_tiers_match_pure_step(self, mnemonic, sew, data):
        ch = _Draw(data)
        text = program(ch, mnemonic, sew)
        budgets = [ch.randint(1, 400) for _ in range(2)]
        # A core without V turns every vector op into an
        # unsupported-extension fault; that path must agree too.
        profile = RV64GC if mnemonic.startswith("v") and not ch.randint(0, 3) \
            else RV64GCV
        assert_tiers_agree(build(text), text, budgets, profile)

    @pytest.mark.parametrize("mnemonic", sorted(set(SEMANTICS) - TRAPS))
    def test_mnemonic_runs_in_a_compiled_trace(self, mnemonic):
        """Some seed puts *mnemonic* into a registered trace, so the
        trace source generated for it is exercised, not just its
        closure."""
        for attempt in range(40):
            ch = random.Random(attempt)
            text = program(ch, mnemonic)
            _, traced = assert_tiers_agree(build(text), text)
            in_trace = {op[3].mnemonic for t in traced._tcache.values()
                        for op in t.ops}
            if mnemonic in in_trace:
                return
        pytest.fail(f"{mnemonic} never reached a compiled trace")


class TestIllegalVsetvli:
    """SEW e8/e16 and reserved SEW codes are structured illegal
    instructions at the vsetvli pc on every tier, never a raw Python
    exception out of ``Kernel.run``."""

    @pytest.mark.parametrize("vtype", ["e8", "e16", "0x20", "0x38"])
    @pytest.mark.parametrize("tier", sorted(TIERS))
    def test_kernel_run_reports_illegal_instruction(self, vtype, tier):
        binary = build(f"""
_start:
    li a1, 4
    vsetvli a0, a1, {vtype}
    li a7, 93
    ecall
""")
        kernel = Kernel(trace_threshold=1, **TIERS[tier])
        result = kernel.run(make_process(binary), Core(0, RV64GCV))
        assert isinstance(result.fault, IllegalInstructionFault)
        assert result.fault.kind == "unknown"
        assert result.fault.pc == binary.entry + 4  # li a1, 4 is one word
        assert result.instret == 1

    def test_illegal_vsetvli_in_a_hot_loop(self):
        text = """
_start:
    li s2, 12
top:
    li t0, 2
    vsetvli t0, t0, e64
    addi t1, s2, -3
    bnez t1, skip
    vsetvli t0, t0, e16
skip:
    addi s2, s2, -1
    bnez s2, top
    li a7, 93
    ecall
"""
        _, traced = assert_tiers_agree(build(text), text)
        assert traced.counters.get("trace_instret", 0) > 0


# -- branchy loops ------------------------------------------------------------

@st.composite
def scalar_stmt(draw):
    op = draw(st.sampled_from(RRR))
    dst, a, b = (draw(st.sampled_from(REGS)) for _ in range(3))
    return f"    {op} {dst}, {a}, {b}"


@st.composite
def mem_stmt(draw):
    reg = draw(st.sampled_from(REGS))
    off = draw(st.integers(min_value=0, max_value=15)) * 8
    mnem = draw(st.sampled_from(("sd", "ld", "sw", "lw")))
    return f"    {mnem} {reg}, {off}(s0)"


@st.composite
def vector_episode(draw):
    avl = draw(st.integers(min_value=1, max_value=4))
    op = draw(st.sampled_from(("vadd.vv", "vsub.vv", "vmul.vv", "vxor.vv")))
    voff = draw(st.integers(min_value=0, max_value=3)) * 64
    return "\n".join([
        f"    li t0, {avl}",
        "    vsetvli t0, t0, e64",
        f"    addi t1, s1, {voff}",
        "    vle64.v v1, (t1)",
        f"    {op} v2, v1, v1",
        "    vse64.v v2, (t1)",
    ])


@st.composite
def branchy_program(draw):
    iterations = draw(st.integers(min_value=6, max_value=24))
    mask = draw(st.sampled_from((1, 3)))
    stmts = draw(st.lists(st.one_of(scalar_stmt(), mem_stmt()),
                          min_size=1, max_size=5))
    if draw(st.booleans()):
        stmts.append(draw(vector_episode()))
    body = "\n".join(stmts)
    return f"""
_start:
    li s0, {{buf}}
    li s1, {{vbuf}}
    li s2, {iterations}
    li a2, 3
    li a3, 5
    li a4, 7
    li a5, 11
top:
{body}
    andi t2, s2, {mask}
    beqz t2, even
    add a2, a2, a3
    j join
even:
    add a3, a3, a5
join:
    addi s2, s2, -1
    bnez s2, top
    li t0, {{out}}
    sd a2, 0(t0)
    sd a3, 8(t0)
    li a7, 93
    li a0, 0
    ecall
"""


class TestTraceAccounting:
    @seed(FUZZ_SEED)
    @given(text=branchy_program())
    @FUZZ_SETTINGS
    def test_full_run_matches_pure_step(self, text):
        _, traced = assert_tiers_agree(build(text), text)
        assert traced.counters.get("trace_instret", 0) > 0

    @seed(FUZZ_SEED)
    @given(text=branchy_program(), budget=st.integers(min_value=5, max_value=300))
    @FUZZ_SETTINGS
    def test_budget_cut_matches_pure_step(self, text, budget):
        """A budget expiring mid-trace (or mid-block) must leave the
        exact architectural state pure stepping reaches at the same
        instruction count."""
        assert_tiers_agree(build(text), text, budgets=[budget])
