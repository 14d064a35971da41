"""Bounded differential oracle: co-execute each patched window against
the original.

For every :class:`~repro.verify.records.PatchRecord` the oracle runs a
handful of trials.  Each trial seeds both sides with the *same*
randomized register file and data-segment bytes, then executes

* the **original** binary from ``record.start`` on a core that supports
  every source extension, and
* the **rewritten** binary from the same pc on the rewrite's target
  core, with a :class:`~repro.core.runtime.ChimeraRuntime` recovering
  the deterministic SMILE faults,

until both reach ``record.resume`` (the first pc where normal flow
rejoins original text).  At sync the live registers (everything not
provably dead at the resume point — the clobbered exit register is dead
by the patcher's own liveness proof) and the writable data segments must
match.  Trials where both sides raise the *same* fault (same type, same
kind/address) also count as a match — the window's observable behavior
is identical.  Trials that exhaust the step budget are reported as
``inconclusive``, never silently folded into a pass.

Randomness is seeded from ``REPRO_FUZZ_SEED`` (see
:mod:`repro.resilience.seeds`) xor'd with the region address and trial
index, so a failing trial reproduces byte-for-byte.

The oracle is a reusable engine: it loads each side once per gate, on
that side's first trial, and keeps the pristine bytes of its writable
segments (data/bss, ``[stack]``, ``.chimera.vregs``).  Every trial
starts by restoring those bytes in place, then wraps the space in a
fresh ``Process``, ``Kernel``, runtime and ``Cpu``; all of one side's
cpus share one decode cache, whose entries are validated by segment
version.  A trial that changes a side's segment list, a segment's size
or any segment's version makes the next trial reload that side.  A
trial therefore sees exactly the image a fresh load would give it.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.analysis.cfg import build_cfg
from repro.analysis.liveness import LivenessAnalysis
from repro.analysis.scan import RecursiveScanner
from repro.elf.binary import Binary, Perm
from repro.elf.loader import make_process
from repro.isa.extensions import PROFILES
from repro.isa.registers import Reg
from repro.resilience.seeds import resolve_seed
from repro.sim.faults import (
    EcallTrap,
    ExitRequest,
    IllegalInstructionFault,
    SegmentationFault,
    SimFault,
    UnrecoverableFault,
)
from repro.sim.machine import Core, Kernel, Process
from repro.verify.records import PatchRecord

#: Registers the trials never randomize: zero, and the ABI-pinned
#: sp/gp/tp the SMILE machinery itself depends on.
_PINNED = frozenset({int(Reg.ZERO), int(Reg.SP), int(Reg.GP), int(Reg.TP)})

#: Segment names excluded from scribbling and comparison.
_PRIVATE_PREFIX = ".chimera"
_STACK = "[stack]"


class _Side:
    """One binary's reusable trial image.

    Holds a loaded address space, the pristine bytes of its writable
    segments, and the decode cache every trial's cpu on this side uses.
    """

    def __init__(self, process: Process):
        self.template = process
        self.pristine = [(seg, bytes(seg.data))
                         for seg in process.space.segments if Perm.W in seg.perm]
        self.dcache: dict = {}
        self.layout = self._layout()

    def _layout(self) -> list:
        return [(seg, seg.size, seg.version)
                for seg in self.template.space.segments]

    def intact(self) -> bool:
        """True while no trial has remapped, resized or patched a segment."""
        return self._layout() == self.layout

    def fresh_process(self) -> Process:
        """Restore the pristine writable bytes; wrap them in a new Process."""
        for seg, blob in self.pristine:
            seg.data[:] = blob
            if Perm.X in seg.perm:
                # Restored code bytes: no decode of the last trial's may survive.
                seg.version += 1
        self.layout = self._layout()
        t = self.template
        return Process(t.name, t.space, t.entry, gp=t.gp, sp=t.sp)


class _SideResult:
    """Terminal state of one side of one trial."""

    def __init__(self, status: str, cpu=None, process=None, signature=None,
                 detail: str = ""):
        self.status = status  # "sync" | "fault" | "inconclusive" | "unrecoverable"
        self.cpu = cpu
        self.process = process
        self.signature = signature
        self.detail = detail


def _fault_signature(fault: SimFault, cpu) -> tuple:
    """Side-independent identity of a fault (pc excluded: the rewritten
    side legally faults at relocated addresses)."""
    if isinstance(fault, ExitRequest):
        return ("exit", fault.code)
    if isinstance(fault, EcallTrap):
        return ("ecall", cpu.get_reg(Reg.A7), cpu.get_reg(Reg.A0))
    if isinstance(fault, SegmentationFault):
        return ("segv", fault.access, fault.addr)
    if isinstance(fault, IllegalInstructionFault):
        return ("sigill", fault.kind)
    return (type(fault).__name__,)


class DifferentialOracle:
    """Co-execute rewritten windows against the original binary."""

    def __init__(
        self,
        original: Binary,
        rewritten: Binary,
        *,
        seed: Optional[int] = None,
        trials: int = 2,
        max_steps: int = 512,
        liveness=None,
    ):
        meta = rewritten.metadata.get("chimera")
        if meta is None:
            raise ValueError(f"{rewritten.name} was not produced by ChimeraRewriter")
        self.original = original
        self.rewritten = rewritten
        self.trials = trials
        self.max_steps = max_steps
        self.seed = resolve_seed(seed)
        self.target_profile = PROFILES[meta["target_profile"]]
        #: The source side runs on a superset core so every original
        #: extension instruction executes natively.
        self.source_profile = PROFILES["rv64gcv"]
        #: Liveness over the *original* binary.  The rewriter already
        #: computed exactly this to prove exit registers dead; passing it
        #: in skips a redundant scan+cfg+dataflow pass.
        self._liveness = liveness
        #: "o"/"r" -> the loaded side, built on its first trial.
        self._sides: dict[str, _Side] = {}

    # -- analysis (matches the patcher's own parameters) --------------------

    def _dead_at(self, addr: int) -> frozenset:
        if self._liveness is None:
            scan = RecursiveScanner(seed_address_taken=False).scan(self.original)
            self._liveness = LivenessAnalysis(build_cfg(scan)).run()
        return self._liveness.dead_before(addr)

    # -- trials -------------------------------------------------------------

    def check_region(self, rec: PatchRecord) -> list[str]:
        """Run all trials for one region; returns per-trial outcomes."""
        outcomes = []
        for trial in range(self.trials):
            rng = random.Random(
                (self.seed * 1_000_003) ^ (rec.start << 2) ^ trial)
            outcomes.append(self._run_trial(rec, rng))
        return outcomes

    def _side(self, key: str, binary: Binary) -> _Side:
        """The loaded side *key*, reloaded when the last trial changed it.
        A load failure raises here, on every trial, as a fresh load would."""
        side = self._sides.get(key)
        if side is None or not side.intact():
            side = _Side(make_process(binary, name=f"{binary.name}@oracle-{key}"))
            self._sides[key] = side
        return side

    def _run_trial(self, rec: PatchRecord, rng: random.Random) -> str:
        o_side = self._side("o", self.original)
        r_side = self._side("r", self.rewritten)
        o_proc = o_side.fresh_process()
        r_proc = r_side.fresh_process()
        regs = self._trial_regs(rng, o_proc)
        self._scribble(rng, o_proc, r_proc)

        o = self._run_side(self.original, o_proc, o_side.dcache,
                           self.source_profile, rec, regs, runtime=False)
        r = self._run_side(self.rewritten, r_proc, r_side.dcache,
                           self.target_profile, rec, regs, runtime=True)

        if r.status == "unrecoverable":
            return (f"mismatch: rewritten side raised UnrecoverableFault "
                    f"({r.detail})")
        if o.status == "inconclusive" or r.status == "inconclusive":
            return "inconclusive: step budget exhausted before sync"
        if o.status == "fault" or r.status == "fault":
            if o.signature == r.signature and o.signature is not None:
                return "match"
            return (f"mismatch: original ended {o.status} {o.signature}, "
                    f"rewritten ended {r.status} {r.signature}")
        return self._compare_synced(rec, o, r)

    def _trial_regs(self, rng: random.Random, process) -> list[int]:
        data_addrs = [
            seg.base + 8 * rng.randrange(max(1, seg.size // 8))
            for seg in process.space.segments
            if Perm.W in seg.perm and seg.name != _STACK
            and not seg.name.startswith(_PRIVATE_PREFIX)
            for _ in range(4)
        ]
        regs = [0] * 32
        for r in range(32):
            if r in _PINNED:
                continue
            roll = rng.random()
            if roll < 0.45 and data_addrs:
                regs[r] = rng.choice(data_addrs)
            elif roll < 0.9:
                regs[r] = rng.randrange(0, 64)
            else:
                regs[r] = rng.getrandbits(64)
        return regs

    def _scribble(self, rng: random.Random, *processes) -> None:
        """Write identical seeded bytes into both sides' data segments."""
        names = None
        for process in processes:
            current = {
                seg.name for seg in process.space.segments
                if Perm.W in seg.perm and seg.name != _STACK
                and not seg.name.startswith(_PRIVATE_PREFIX)
            }
            names = current if names is None else (names & current)
        for name in sorted(names or ()):
            size = min(s.size for p in processes
                       for s in p.space.segments if s.name == name)
            blob = rng.randbytes(min(size, 512))
            for process in processes:
                seg = next(s for s in process.space.segments if s.name == name)
                seg.data[:len(blob)] = blob

    def _run_side(self, binary, process, dcache: dict, profile,
                  rec: PatchRecord, regs: list[int], *,
                  runtime: bool) -> _SideResult:
        # Imported here, not at module level: the runtime itself imports
        # repro.verify (rollback journal), so a top-level import cycles.
        from repro.core.runtime import ChimeraRuntime

        kernel = Kernel()
        rt = None
        if runtime:
            rt = ChimeraRuntime(binary)
            rt.install(kernel)
        cpu = kernel.make_cpu(process, Core(0, profile), decode_cache=dcache)
        for idx, value in enumerate(regs):
            if idx not in _PINNED:
                cpu.set_reg(idx, value)
        cpu.pc = rec.start

        # The exit trampoline may have been re-routed through the fault
        # table (resume landed inside a later site's window); the
        # redirect is the relocated copy of the same architectural point.
        sync_pcs = {rec.resume}
        if rt is not None:
            redirect = rt.fault_table.lookup(rec.resume)
            if redirect is not None:
                sync_pcs.add(redirect)

        for _ in range(self.max_steps):
            if cpu.pc in sync_pcs:
                return _SideResult("sync", cpu, process)
            try:
                cpu.step()
            except SimFault as fault:
                if rt is not None:
                    try:
                        if kernel.dispatch_fault(process, cpu, fault):
                            continue
                    except UnrecoverableFault as unrec:
                        return _SideResult("unrecoverable",
                                           detail=str(unrec.args[0]))
                return _SideResult(
                    "fault", cpu, process,
                    signature=_fault_signature(fault, cpu))
        return _SideResult("inconclusive")

    def _compare_synced(self, rec: PatchRecord, o: _SideResult,
                        r: _SideResult) -> str:
        dead = self._dead_at(rec.resume)
        for idx in range(1, 32):
            if idx in dead:
                continue
            ov, rv = o.cpu.get_reg(idx), r.cpu.get_reg(idx)
            if ov != rv:
                return (f"mismatch: live register x{idx} differs at sync "
                        f"({ov:#x} vs {rv:#x})")
        o_segs = {s.name: s for s in o.process.space.segments}
        r_segs = {s.name: s for s in r.process.space.segments}
        for name in sorted(set(o_segs) & set(r_segs)):
            if name.startswith(_PRIVATE_PREFIX) or Perm.W not in o_segs[name].perm:
                continue
            os_, rs = o_segs[name], r_segs[name]
            if name == _STACK:
                # Compare only at/above sp: translated blocks may leave
                # scratch residue in the red zone below it.
                sp = o.cpu.get_reg(Reg.SP)
                lo = max(0, sp - os_.base)
                if bytes(os_.data[lo:]) != bytes(rs.data[lo:]):
                    return "mismatch: stack bytes above sp differ at sync"
                continue
            if bytes(os_.data) != bytes(rs.data[:os_.size]):
                return f"mismatch: data segment {name} differs at sync"
        return "match"
