"""Execution tracing and profiling hooks for the simulator.

Attach a tracer to a :class:`~repro.sim.cpu.Cpu` (``cpu.tracer = ...``)
to observe retired instructions.  Used by the debugging examples, by
tests that need to assert *which* code actually ran (e.g. "the normal
path executed zero trap instructions"), and by the telemetry layer's
:class:`InstructionClassTally`, which feeds the
``cpu.instret{class=...}`` metric series.

Tracers are deliberately simple callables; combine them with
:class:`MultiTracer` when several views are needed at once.  None of
them is attached unless something asks — an untraced CPU pays nothing
per retired instruction.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Callable

from repro.isa.extensions import Extension
from repro.isa.instructions import Instruction


class InstructionTrace:
    """Ring buffer of the last *capacity* retired instructions."""

    def __init__(self, capacity: int = 256):
        self.buffer: deque[Instruction] = deque(maxlen=capacity)

    def __call__(self, cpu, instr: Instruction) -> None:
        self.buffer.append(instr)

    def last(self, n: int = 10) -> list[Instruction]:
        """The most recent *n* instructions, oldest first."""
        items = list(self.buffer)
        return items[-n:]

    def format(self, n: int = 10) -> str:
        """Human-readable tail of the trace."""
        from repro.isa.disassembler import format_instruction

        return "\n".join(format_instruction(i) for i in self.last(n))


class HotspotProfile:
    """Execution counts per instruction address."""

    def __init__(self):
        self.counts: Counter[int] = Counter()

    def __call__(self, cpu, instr: Instruction) -> None:
        self.counts[instr.addr] += 1

    def hottest(self, n: int = 10) -> list[tuple[int, int]]:
        """(address, count) pairs, hottest first."""
        return self.counts.most_common(n)


class RegionProfile:
    """Cycle/instruction attribution to named address regions.

    Feed it (name, lo, hi) regions — e.g. original text vs
    ``.chimera.text`` — and it answers "how much execution happened in
    the rewriter-generated code?"
    """

    def __init__(self, regions: list[tuple[str, int, int]]):
        self.regions = regions
        self.instructions: Counter[str] = Counter()

    def __call__(self, cpu, instr: Instruction) -> None:
        addr = instr.addr
        for name, lo, hi in self.regions:
            if lo <= addr < hi:
                self.instructions[name] += 1
                return
        self.instructions["<other>"] += 1

    def share(self, name: str) -> float:
        total = sum(self.instructions.values())
        return self.instructions.get(name, 0) / total if total else 0.0


class BranchProfile:
    """Taken/not-taken counts per branch site."""

    def __init__(self):
        self.executed: Counter[int] = Counter()

    def __call__(self, cpu, instr: Instruction) -> None:
        if instr.is_branch() or instr.is_jump():
            self.executed[instr.addr] += 1


@dataclass
class MultiTracer:
    """Fan a step event out to several tracers."""

    tracers: list[Callable] = field(default_factory=list)

    def __call__(self, cpu, instr: Instruction) -> None:
        for tracer in self.tracers:
            tracer(cpu, instr)


def attach(cpu, *tracers: Callable) -> Callable:
    """Attach one or more tracers to *cpu*; returns the installed hook."""
    hook = tracers[0] if len(tracers) == 1 else MultiTracer(list(tracers))
    cpu.tracer = hook
    return hook


# -- instruction classification (cpu.instret{class=...}) ---------------------

#: Extension -> metric label for the instret-by-class series.
_EXTENSION_CLASSES = {
    Extension.V: "vector",
    Extension.ZBA: "zba",
    Extension.C: "compressed",
    Extension.M: "muldiv",
}


def instruction_class(instr: Instruction) -> str:
    """The ``class=`` label for one instruction.

    Control flow first (branch/jump), then the extension buckets the
    cost model and Table 3 care about, then plain base-ISA.
    """
    cls = _EXTENSION_CLASSES.get(instr.extension)
    if cls is not None:
        return cls
    if instr.is_branch():
        return "branch"
    if instr.is_jump():
        return "jump"
    return "base"


class InstructionClassTally:
    """Retired-instruction counts bucketed by :func:`instruction_class`."""

    def __init__(self):
        self.counts: Counter[str] = Counter()

    def __call__(self, cpu, instr: Instruction) -> None:
        self.counts[instruction_class(instr)] += 1

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def attach_tally(cpu) -> tuple[InstructionClassTally, Callable]:
    """Chain an :class:`InstructionClassTally` onto *cpu*'s tracer slot.

    Returns ``(tally, previous_tracer)`` so the caller can restore the
    previous hook when the instrumented region ends — keeping repeated
    ``Kernel.run`` calls on one CPU from stacking tallies.  Also flips
    ``cpu.count_decode`` on so cold decodes show up in the counters.
    """
    previous = cpu.tracer
    tally = InstructionClassTally()
    cpu.tracer = tally if previous is None else MultiTracer([previous, tally])
    cpu.count_decode = True
    return tally, previous
