"""Backward register-liveness analysis over the CFG.

The rewriter needs *dead registers*: registers whose current value no
subsequent execution path reads before writing (§4.2 challenge 2).  The
analysis is classic backward may-liveness with two conservatisms that
reproduce why "traditional register liveness analysis" fails in ~36% of
the paper's cases (Table 3):

* a block with an UNKNOWN successor (unresolved indirect jump) gets the
  full register set as live-out;
* function returns treat the ABI-visible registers (sp/gp/tp, s-regs,
  a0/a1, ra) as live.

:class:`LivenessResult` answers "which registers are dead just before
address A" queries; the CHBP exit-position-shifting strategy walks
forward through these answers.
"""

from __future__ import annotations

from functools import lru_cache

from repro.analysis.cfg import UNKNOWN, ControlFlowGraph
from repro.isa.instructions import Instruction
from repro.isa.registers import Reg

#: All integer registers except x0.
ALL_REGS: frozenset[int] = frozenset(range(1, 32))

#: Registers considered live at a function return under the psABI.
ABI_LIVE_AT_RETURN: frozenset[int] = frozenset(
    {int(Reg.RA), int(Reg.SP), int(Reg.GP), int(Reg.TP), int(Reg.A0), int(Reg.A1)}
    | {int(r) for r in (Reg.S0, Reg.S1, Reg.S2, Reg.S3, Reg.S4, Reg.S5,
                        Reg.S6, Reg.S7, Reg.S8, Reg.S9, Reg.S10, Reg.S11)}
)


#: Argument registers assumed read by any callee at a call site.
_CALL_USES: frozenset[int] = frozenset(range(int(Reg.A0), int(Reg.A7) + 1)) | {int(Reg.SP), int(Reg.GP)}

#: Caller-saved registers clobbered (defined) by any call per the psABI.
_CALL_DEFS: frozenset[int] = frozenset(
    {int(Reg.RA), int(Reg.T0), int(Reg.T1), int(Reg.T2), int(Reg.T3),
     int(Reg.T4), int(Reg.T5), int(Reg.T6)}
    | frozenset(range(int(Reg.A0), int(Reg.A7) + 1))
)


def _is_call(instr: Instruction) -> bool:
    """True for direct/indirect calls (link register written)."""
    if instr.mnemonic == "jal" and instr.rd == 1:
        return True
    if instr.mnemonic == "jalr" and instr.rd == 1:
        return True
    return instr.mnemonic == "c.jalr"


def _uses(instr: Instruction) -> frozenset[int]:
    regs = set(instr.regs_read())
    if _is_call(instr):
        regs |= _CALL_USES
    regs.discard(0)
    return frozenset(regs)


def _defs(instr: Instruction) -> frozenset[int]:
    if _is_call(instr):
        return _CALL_DEFS
    return instr.regs_written()


def _mask(regs) -> int:
    out = 0
    for reg in regs:
        out |= 1 << reg
    return out


_ALL_MASK = _mask(ALL_REGS)
_ABI_MASK = _mask(ABI_LIVE_AT_RETURN)
_EXIT_MASK = _mask((int(Reg.A0), int(Reg.A7)))


@lru_cache(maxsize=16384)
def _shape_masks(mnemonic: str, rd, rs1, rs2) -> tuple[int, int]:
    """(use mask, def mask) of every instruction with these fields.

    They are all ``_uses`` and ``_defs`` read, and a binary repeats a
    few thousand such shapes over all of its instructions.
    """
    instr = Instruction(mnemonic, rd=rd, rs1=rs1, rs2=rs2)
    return _mask(_uses(instr)), _mask(_defs(instr))


@lru_cache(maxsize=4096)
def _dead_set(live: int) -> frozenset[int]:
    """The registers of x1..x31 that are not in the *live* mask."""
    return frozenset(reg for reg in range(1, 32) if not live >> reg & 1)


class LivenessResult:
    """Per-block live-out masks, expanded per block on first query.

    A query for any address of a block sweeps that block backward once
    and keeps the live-before mask of each of its instructions.
    """

    def __init__(self, cfg: ControlFlowGraph, live_out: dict[int, int]):
        self._cfg = cfg
        #: Block start -> live-out register mask.
        self._live_out = live_out
        #: Instruction address -> live-before mask, for expanded blocks.
        self._live_before: dict[int, int] = {}

    def _live_at(self, addr: int) -> int | None:
        live = self._live_before.get(addr)
        if live is None:
            start = self._cfg._block_of.get(addr)
            if start is None:
                return None
            live = self._live_out[start]
            out = self._live_before
            for instr in reversed(self._cfg.blocks[start].instructions):
                use, defs = _shape_masks(instr.mnemonic, instr.rd, instr.rs1, instr.rs2)
                live = (live & ~defs) | use
                out[instr.addr] = live
            live = out[addr]
        return live

    def dead_before(self, addr: int) -> frozenset[int]:
        """Registers (x1..x31) provably dead just before *addr*.

        Unknown addresses answer the empty set — maximally conservative.
        """
        live = self._live_at(addr)
        if live is None:
            return frozenset()
        return _dead_set(live)

    def is_dead_before(self, addr: int, reg: int) -> bool:
        """True if *reg* is provably dead just before *addr*."""
        return reg in self.dead_before(addr)


class LivenessAnalysis:
    """Run the fixpoint once per CFG; reuse the result for many queries."""

    def __init__(self, cfg: ControlFlowGraph):
        self.cfg = cfg

    def run(self) -> LivenessResult:
        """Iterate block-level liveness on register masks to a fixpoint."""
        blocks = list(self.cfg.blocks.values())
        index = {block.start: i for i, block in enumerate(blocks)}
        use: list[int] = []
        defs: list[int] = []
        #: Live-out bits no successor contributes: an UNKNOWN successor,
        #: a return, a program-exit ecall or falling off the region.
        fixed: list[int] = []
        succs: list[list[int]] = []
        for block in blocks:
            u = d = 0
            for instr in block.instructions:
                iu, idef = _shape_masks(instr.mnemonic, instr.rd, instr.rs1, instr.rs2)
                u |= iu & ~d
                d |= idef
            use.append(u)
            defs.append(d)
            out = 0
            if UNKNOWN in block.successors:
                out = _ALL_MASK
            term = block.terminator
            if _is_return(term):
                out |= _ABI_MASK
            elif not block.successors:
                # A trailing ecall with no mapped fall-through is the
                # program-exit idiom: only syscall args live.  Anything
                # else fell off the analyzed region: be conservative.
                out |= _EXIT_MASK if term.mnemonic == "ecall" else _ALL_MASK
            fixed.append(out)
            succs.append([index[s] for s in block.successors if s in index])

        live_out = [0] * len(blocks)
        live_in = list(use)
        order = range(len(blocks) - 1, -1, -1)
        changed = True
        while changed:
            changed = False
            for i in order:
                out = fixed[i]
                for s in succs[i]:
                    out |= live_in[s]
                if out != live_out[i]:
                    live_out[i] = out
                    live_in[i] = use[i] | (out & ~defs[i])
                    changed = True
        return LivenessResult(
            self.cfg, {block.start: live_out[i] for i, block in enumerate(blocks)})


def _is_return(instr: Instruction) -> bool:
    """Heuristic: ``jalr x0, 0(ra)`` / ``c.jr ra`` is a function return."""
    if instr.mnemonic == "jalr" and instr.rd == 0 and instr.rs1 == int(Reg.RA):
        return True
    if instr.mnemonic == "c.jr" and instr.rs1 == int(Reg.RA):
        return True
    return False
