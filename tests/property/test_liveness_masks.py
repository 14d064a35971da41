"""Property test: mask liveness answers exactly what the set fixpoint did.

``LivenessAnalysis`` runs its block fixpoint on integer register masks
and expands a block's per-instruction answers only when one of its
addresses is first queried.  :class:`ReferenceLiveness` below is the
analysis it replaced, kept verbatim: a fixpoint over frozensets that
expands every address up front.

Over every address the scanner recovers from five SPEC profiles at
scale 128 (89,646 addresses with calls, returns and exit ``ecall``
blocks among them) and from random programs seeded from
``REPRO_FUZZ_SEED`` (which add unresolved indirect jumps, the UNKNOWN
successor no SPEC profile has), ``dead_before`` must equal the
reference set and ``is_dead_before`` must agree for every register
number.  Addresses the CFG does not hold answer the empty set.
"""

from __future__ import annotations

import os
import random
from functools import lru_cache

import pytest

from repro.analysis.cfg import UNKNOWN, build_cfg
from repro.analysis.liveness import (
    ABI_LIVE_AT_RETURN,
    ALL_REGS,
    LivenessAnalysis,
    _defs,
    _is_return,
    _uses,
)
from repro.analysis.scan import RecursiveScanner
from repro.elf.builder import ProgramBuilder
from repro.isa.registers import Reg
from repro.workloads.spec_profiles import PROFILES
from repro.workloads.synthetic import SyntheticBinary

SCALE = 128
PROFILE_NAMES = ("gcc_r", "xalancbmk_s", "blender_r", "cam4_r", "wrf_s")
FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "0"))
RANDOM_PROGRAMS = 40
REGS = ("t0", "t1", "t2", "a0", "a1", "a7", "s0", "s1")


class ReferenceLiveness:
    """The frozenset fixpoint, expanded at every address (the old analysis)."""

    def __init__(self, cfg):
        self.cfg = cfg

    def run(self) -> dict[int, frozenset[int]]:
        blocks = list(self.cfg.blocks.values())
        use: dict[int, frozenset[int]] = {}
        defs: dict[int, frozenset[int]] = {}
        for block in blocks:
            u: set[int] = set()
            d: set[int] = set()
            for instr in block.instructions:
                u |= (_uses(instr) - d)
                d |= _defs(instr)
            use[block.start] = frozenset(u)
            defs[block.start] = frozenset(d)

        live_in = {b.start: frozenset() for b in blocks}
        live_out = {b.start: frozenset() for b in blocks}
        changed = True
        while changed:
            changed = False
            for block in reversed(blocks):
                out: set[int] = set()
                for succ in block.successors:
                    if succ == UNKNOWN:
                        out |= ALL_REGS
                    elif succ in live_in:
                        out |= live_in[succ]
                term = block.terminator
                if _is_return(term):
                    out |= ABI_LIVE_AT_RETURN
                elif not block.successors:
                    if term.mnemonic == "ecall":
                        out |= {int(Reg.A0), int(Reg.A7)}
                    else:
                        out |= ALL_REGS
                new_out = frozenset(out)
                new_in = frozenset(use[block.start] | (new_out - defs[block.start]))
                if new_out != live_out[block.start] or new_in != live_in[block.start]:
                    live_out[block.start] = new_out
                    live_in[block.start] = new_in
                    changed = True

        live_before: dict[int, frozenset[int]] = {}
        for block in blocks:
            live = set(live_out[block.start])
            if _is_return(block.terminator):
                live |= ABI_LIVE_AT_RETURN
            for instr in reversed(block.instructions):
                live -= _defs(instr)
                live |= _uses(instr)
                live_before[instr.addr] = frozenset(live)
        return live_before

    def dead_before(self, live_before, addr: int) -> frozenset[int]:
        live = live_before.get(addr)
        return frozenset() if live is None else ALL_REGS - live


@lru_cache(maxsize=None)
def profile_cfg(name: str):
    binary = SyntheticBinary(PROFILES[name], scale=SCALE).build()
    return build_cfg(RecursiveScanner().scan(binary))


def random_program(rng: random.Random) -> ProgramBuilder:
    """Functions of labelled chunks ending in every kind of terminator."""
    funcs = [f"f{k}" for k in range(rng.randint(1, 3))]
    lines: list[str] = []
    for name in ["_start", *funcs]:
        labels = [f"{name}_{j}" for j in range(rng.randint(2, 6))]
        lines.append(f"{name}:")
        for j, label in enumerate(labels):
            lines.append(f"{label}:")
            for _ in range(rng.randint(0, 4)):
                rd, rs1, rs2 = (rng.choice(REGS) for _ in range(3))
                lines.append(rng.choice((f"add {rd}, {rs1}, {rs2}",
                                         f"addi {rd}, {rs1}, {rng.randint(-8, 8)}",
                                         f"sub {rd}, {rs1}, {rs2}",
                                         f"li {rd}, {rng.randint(0, 99)}")))
            target = rng.choice(labels)
            reg = rng.choice(REGS)
            last = j == len(labels) - 1
            kind = rng.choice(("fall", "beqz", "bnez", "j", "call", "jr", "ret", "exit"))
            if kind == "fall" and not last:
                continue
            if kind in ("beqz", "bnez"):
                lines.append(f"{kind} {reg}, {target}")
            elif kind == "j":
                lines.append(f"j {target}")
            elif kind == "call" and funcs:
                lines.append(f"jal {rng.choice(funcs)}")
            elif kind == "jr":
                lines.extend((f"la t1, {target}", "jr t1"))
            elif kind == "exit" or name == "_start":
                lines.extend(("li a7, 93", "ecall"))
            else:
                lines.append("ret")
    builder = ProgramBuilder("fuzz")
    builder.set_text("\n".join(lines) + "\n")
    for name in funcs:
        builder.mark_function(name)
    return builder


def random_cfgs():
    rng = random.Random(FUZZ_SEED)
    for _ in range(RANDOM_PROGRAMS):
        binary = random_program(rng).build()
        yield build_cfg(RecursiveScanner().scan(binary))


def assert_same_answers(cfg) -> None:
    reference = ReferenceLiveness(cfg)
    live_before = reference.run()
    result = LivenessAnalysis(cfg).run()
    addrs = sorted(cfg._block_of)
    assert addrs and sorted(live_before) == addrs
    # Descending order: most blocks expand on a query of their last address.
    regs = range(32)
    for addr in addrs[::-1]:
        expected = reference.dead_before(live_before, addr)
        assert result.dead_before(addr) == expected, hex(addr)
        assert [result.is_dead_before(addr, r) for r in regs] == \
            [r in expected for r in regs], hex(addr)


@pytest.mark.parametrize("name", PROFILE_NAMES)
def test_mask_liveness_equals_the_set_fixpoint(name):
    assert_same_answers(profile_cfg(name))


def test_mask_liveness_equals_the_set_fixpoint_on_random_programs():
    unknown = 0
    for cfg in random_cfgs():
        assert_same_answers(cfg)
        unknown += sum(UNKNOWN in b.successors for b in cfg.blocks.values())
    assert unknown > 0  # the generator reaches the UNKNOWN rule


def test_unknown_addresses_answer_the_empty_set():
    cfg = profile_cfg("gcc_r")
    result = LivenessAnalysis(cfg).run()
    end = max(block.end for block in cfg.blocks.values())
    some = next(iter(cfg._block_of))
    for addr in (0, 0xDEAD, end, end + 4, some + 1, -1):
        assert addr not in cfg._block_of
        assert result.dead_before(addr) == frozenset()
        assert not any(result.is_dead_before(addr, reg) for reg in range(32))
