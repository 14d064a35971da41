"""The interpreter core: fetch, decode (cached), execute, account cycles.

One :class:`Cpu` models one hart running one task.  Its
:class:`~repro.isa.extensions.IsaProfile` is the ISAX capability mask:
executing an instruction from an extension the profile lacks raises
``IllegalInstructionFault(kind="unsupported-extension")`` — the
architectural event FAM migrates on and Chimera's runtime rewriter
repairs.

Faults propagate as exceptions with ``cpu.pc`` still pointing at the
faulting instruction; the simulated kernel (:mod:`repro.sim.machine`)
catches them, adjusts state, and resumes by calling :meth:`Cpu.run`
again.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Optional

from repro.elf.binary import Perm
from repro.isa.decoding import IllegalEncodingError, decode
from repro.isa.extensions import IsaProfile, RV64GCV
from repro.isa.instructions import Instruction
from repro.sim.cost import CostModel, DEFAULT_ARCH
from repro.sim.faults import (
    IllegalInstructionFault,
    SimFault,
    SimulationLimitExceeded,
)
from repro.sim.memory import AddressSpace
from repro.sim.semantics import (
    CTRL_MNEMONICS, FACTORIES, M, RUNTIME, trace_source,
)
from repro.sim.vector import VectorUnit

#: Straight-line run length cap per superblock.
_MAX_BLOCK_OPS = 128

#: Trace-tier shape caps: blocks chained per trace / flat ops per trace.
_MAX_TRACE_BLOCKS = 64
_MAX_TRACE_OPS = 1024

#: Recording attempts per entry pc before the tier gives up on it (a
#: chain that keeps hitting a syscall or the instruction budget).
_MAX_TRACE_ATTEMPTS = 4

#: Default executions of a cached superblock before its entry pc is
#: considered hot and a trace is recorded across its branches.
DEFAULT_TRACE_THRESHOLD = 16


class _Trace:
    """One recorded hot trace: superblocks chained across taken branches.

    ``ops`` is a flat list of ``(pc, nxt, expected, instr, op, cost,
    cost_taken)`` — ``expected`` is the pc the recording observed
    execution continuing at, so every former branch site doubles as a
    guard: a pass whose branch or indirect jump goes anywhere other than
    ``expected`` side-exits the trace with the architectural state
    already exact (the op retired, the pc is wherever the branch really
    went).  ``loops`` marks a trace whose last op returns to ``entry``;
    those replay in a closed loop without re-entering the dispatcher,
    revalidating segment versions at every loop edge.  ``fn`` is the
    compiled pass and ``cyc`` its per-op prefix cycle sums.
    """

    __slots__ = ("entry", "ops", "n", "pcs", "ranges", "versions",
                 "loops", "fn", "cyc")

    def __init__(self, entry, ops, ranges, versions, loops):
        self.entry = entry
        self.ops = ops
        self.n = len(ops)
        self.pcs = tuple(op[0] for op in ops)
        self.ranges = ranges
        self.versions = versions
        self.loops = loops
        self.fn, self.cyc = _compile_trace(ops)


class Cpu:
    """A single simulated hart."""

    def __init__(
        self,
        space: AddressSpace,
        profile: IsaProfile = RV64GCV,
        cost_model: Optional[CostModel] = None,
        name: str = "hart0",
        block_cache: bool = True,
        trace_cache: bool = True,
        trace_threshold: int = DEFAULT_TRACE_THRESHOLD,
        decode_cache: Optional[dict] = None,
    ):
        self.space = space
        self.profile = profile
        self.cost = cost_model or CostModel(DEFAULT_ARCH)
        self.name = name
        self.regs: list[int] = [0] * 32
        self.pc = 0
        self.vector = VectorUnit(vlen=self.cost.params.vlen)
        self.cycles = 0
        self.instret = 0
        #: pc of the most recently *retired* instruction; lets fault
        #: handlers attribute a fetch fault to the jump that caused it
        #: (e.g. a SMILE jalr whose gp was clobbered before recovery).
        self.last_pc: Optional[int] = None
        #: Optional per-retired-instruction hook (see
        #: repro.telemetry.exec_trace).
        self.tracer = None
        #: Optional pre-fetch hook called with this cpu before every
        #: instruction; may raise a structured :class:`SimFault`.  The
        #: resilience layer arms it to kill/flake a core mid-task at a
        #: precise instruction boundary (nothing partially executed).
        self.step_hook: Optional[Callable[["Cpu"], None]] = None
        #: Optional hook called with (cpu, fault) for every SimFault that
        #: propagates out of :meth:`step`, after the faulting pc has been
        #: filled in.  The chaos harness installs an assertion here that
        #: ``fault.pc`` is never None once the CPU knows it.
        self.fault_hook: Optional[Callable[["Cpu", "SimFault"], None]] = None
        #: Counts of interesting dynamic events, keyed by name.
        self.counters: dict[str, int] = defaultdict(int)
        #: Optional address tags: executing a tagged address bumps the
        #: named counter (used to count e.g. ARMore trampoline bounces).
        self.tag_addrs: dict[int, str] = {}
        #: When True, decode-cache misses bump the ``decode_misses``
        #: counter.  Off by default — telemetry flips it on so existing
        #: tests asserting exact counter contents are unaffected.
        self.count_decode = False
        # decode cache: addr -> (instr, op, tag, seg, seg_version), where
        # op is the instruction's closure from repro.sim.semantics.  Cpus
        # of one profile and one tag map over one space may share it
        # (``decode_cache``): every probe checks the segment version, and
        # ops take the cpu as an argument.
        self._dcache: dict[int, tuple[Instruction, Callable, Optional[str], object, int]] = (
            {} if decode_cache is None else decode_cache)
        #: Superblock engine switch: when True, :meth:`run` executes
        #: straight-line runs from a basic-block cache; when any hook
        #: (step_hook/tracer/tag_addrs) is live it falls back to
        #: :meth:`step` so chaos/self-heal/telemetry semantics hold.
        self.block_cache = block_cache
        # superblock cache: entry pc -> (code, seg, seg_version, start,
        # end), code = (ops, body, body_cost) where ops = [(pc, next_pc,
        # instr, op, cost, cost_taken)] and body = the ops but the last.
        self._bcache: dict[int, tuple[tuple, object, int, int, int]] = {}
        #: Trace tier switch: when True (and the block cache is on), hot
        #: superblock entries are linked into cross-branch traces that
        #: replay without per-branch dispatch.  Requires the block cache;
        #: falls back to :meth:`step` under the same hook conditions.
        self.trace_cache = trace_cache and block_cache
        #: Cached-superblock executions at one entry pc before a trace
        #: is recorded from it.
        self.trace_threshold = max(1, trace_threshold)
        # trace cache: entry pc -> _Trace
        self._tcache: dict[int, _Trace] = {}
        # hot-block profiler: superblock entry pc -> cached-hit count
        self._hot_counts: dict[int, int] = {}
        # entry pc -> failed recording attempts (give up at the cap)
        self._trace_attempts: dict[int, int] = {}
        # faulting-op index, written by compiled trace passes on the way
        # out so the caller can reconstruct pc/instret/cycles exactly
        self._trace_ex = 0

    # -- register helpers --------------------------------------------------

    def get_reg(self, idx: int) -> int:
        """Read an integer register (x0 reads as 0)."""
        return self.regs[idx] if idx else 0

    def set_reg(self, idx: int, value: int) -> None:
        """Write an integer register (writes to x0 are discarded)."""
        if idx:
            self.regs[idx] = value & M

    def bump(self, counter: str, amount: int = 1) -> None:
        """Increment a named event counter."""
        self.counters[counter] += amount

    def flush_decode_cache(self) -> None:
        """Drop all cached decodes, superblocks, and traces (after code
        patching or an address-space view switch).  Hot counts reset too:
        they are keyed by pc and mean nothing across a view change."""
        self._dcache.clear()
        self._bcache.clear()
        self._tcache.clear()
        self._hot_counts.clear()
        self._trace_attempts.clear()

    def invalidate_code(self, addr: int, length: int) -> None:
        """Targeted invalidation after a code patch at ``[addr, addr+length)``.

        Evicts decode-cache entries and superblocks overlapping the
        patched range.  Surviving entries in the patched segment are
        re-validated in place when the segment advanced by exactly the
        one version bump this patch made — so a ranged patch costs only
        the overlapping entries, not the whole cache.  Correctness never
        depends on this being called: every cache probe checks the
        segment version and rebuilds stale entries lazily.
        """
        end = addr + length
        dcache = self._dcache
        for pc in [pc for pc, e in dcache.items()
                   if pc < end and pc + e[0].length > addr]:
            del dcache[pc]
        for pc, entry in dcache.items():
            instr, handler, tag, seg, version = entry
            if seg.contains(addr) and version == seg.version - 1:
                dcache[pc] = (instr, handler, tag, seg, seg.version)
        bcache = self._bcache
        for pc in [pc for pc, b in bcache.items()
                   if b[3] < end and b[4] > addr]:
            del bcache[pc]
        for pc, block in bcache.items():
            ops, seg, version, start, stop = block
            if seg.contains(addr) and version == seg.version - 1:
                bcache[pc] = (ops, seg, seg.version, start, stop)
        # Traces registered the code range of every constituent block:
        # evict exactly the traces whose chain overlaps the patch, then
        # revalidate survivors in the patched segment the same way the
        # block cache does (their recorded bytes are untouched).
        tcache = self._tcache
        stale = [pc for pc, t in tcache.items()
                 if any(s < end and e > addr for _sg, _v, s, e in t.ranges)]
        for pc in stale:
            del tcache[pc]
            self._trace_attempts.pop(pc, None)
        if stale:
            self.counters["traces_invalidated"] += len(stale)
        for t in tcache.values():
            for r in t.ranges:
                seg = r[0]
                if seg.contains(addr) and r[1] == seg.version - 1:
                    r[1] = seg.version
            for v in t.versions:
                seg = v[0]
                if seg.contains(addr) and v[1] == seg.version - 1:
                    v[1] = seg.version

    def snapshot_regs(self) -> list[int]:
        """Copy of the integer register file."""
        return list(self.regs)

    def hot_blocks(self, top: int = 0) -> list[tuple[int, int]]:
        """Hot-block histogram: (entry pc, cached executions), hottest
        first (ties broken by pc).  ``top`` limits the list; 0 = all."""
        items = sorted(self._hot_counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return items[:top] if top else items

    # -- fetch/decode --------------------------------------------------------

    def _decode_at(self, pc: int) -> tuple[Instruction, Callable, Optional[str]]:
        cached = self._dcache.get(pc)
        if cached is not None:
            instr, handler, tag, seg, version = cached
            if seg.version == version:
                return instr, handler, tag
        seg = self.space.fetch_segment(pc)  # raises SegmentationFault(exec)
        if self.count_decode:
            self.bump("decode_misses")
        try:
            instr = decode(seg.data, pc - seg.base, addr=pc)
        except IllegalEncodingError as exc:
            raise IllegalInstructionFault(pc, exc.kind, str(exc)) from exc
        make = FACTORIES.get(instr.mnemonic)
        if make is None:
            raise IllegalInstructionFault(pc, "unknown", f"no semantics for {instr.mnemonic}")
        if instr.extension not in self.profile.extensions:
            handler = _unsupported(instr)
        else:
            # May raise the entry's own structured fault (a vsetvli
            # vtype no tier can run) -- at this pc, like a bad encoding.
            handler = make(instr)
        tag = self.tag_addrs.get(pc) if self.tag_addrs else None
        self._dcache[pc] = (instr, handler, tag, seg, seg.version)
        return instr, handler, tag

    # -- execution -----------------------------------------------------------

    def step(self) -> Instruction:
        """Execute one instruction; returns it.  Faults propagate.

        Every :class:`SimFault` leaving this method carries the faulting
        pc: raise sites that only know an address (memory faults) get it
        filled in here, where the pc is authoritative.
        """
        pc = self.pc
        try:
            if self.step_hook is not None:
                self.step_hook(self)
            instr, handler, tag = self._decode_at(pc)
            self.pc = pc + instr.length
            try:
                taken = handler(self)
            except Exception:
                self.pc = pc  # leave pc at the faulting instruction
                raise
        except SimFault as fault:
            if fault.pc is None:
                fault.pc = pc
            if self.fault_hook is not None:
                self.fault_hook(self, fault)
            raise
        if tag is not None:
            self.counters[tag] = self.counters.get(tag, 0) + 1
        if self.tracer is not None:
            self.tracer(self, instr)
        self.last_pc = pc
        self.instret += 1
        self.cycles += self.cost.instruction_cost(instr, taken=bool(taken))
        return instr

    def run(self, max_instructions: int = 50_000_000) -> None:
        """Run until a fault propagates or the budget is exhausted.

        With :attr:`block_cache` on and no per-step hook live, execution
        goes through the superblock engine: straight-line runs are
        decoded once into a flat dispatch list and replayed in a tight
        loop with precomputed costs.  Any live ``step_hook``/``tracer``/
        ``tag_addrs`` drops back to :meth:`step` per instruction, so
        instrumented runs observe every architectural event.
        """
        step = self.step
        remaining = max_instructions
        if not self.block_cache:
            while remaining > 0:
                step()
                remaining -= 1
            raise SimulationLimitExceeded(max_instructions)
        bcache = self._bcache
        tcache = self._tcache
        tracing = self.trace_cache
        threshold = self.trace_threshold
        hot = self._hot_counts
        attempts = self._trace_attempts
        hits = 0
        thits = 0
        retired = 0
        try:
            while remaining > 0:
                if (self.step_hook is not None or self.tracer is not None
                        or self.tag_addrs):
                    step()
                    remaining -= 1
                    continue
                pc = self.pc
                if tracing:
                    trace = tcache.get(pc)
                    if trace is not None:
                        valid = True
                        for s, v in trace.versions:
                            if s.version != v:
                                valid = False
                                break
                        if not valid:
                            del tcache[pc]
                            attempts.pop(pc, None)
                            self.counters["traces_invalidated"] += 1
                        elif remaining >= trace.n:
                            thits += 1
                            # Keep the histogram live after promotion so
                            # ``hot_blocks`` reports real dispatch counts,
                            # not counts saturated at the threshold.
                            hot[pc] = hot.get(pc, 0) + 1
                            remaining -= self._run_trace(trace, remaining)
                            continue
                        # A budget tail shorter than one pass runs on the
                        # block tier, which truncates exactly on budget.
                block = bcache.get(pc)
                if block is None or block[1].version != block[2]:
                    try:
                        block = self._build_block(pc)
                    except SimFault as fault:
                        if fault.pc is None:
                            fault.pc = pc
                        if self.fault_hook is not None:
                            self.fault_hook(self, fault)
                        raise
                else:
                    hits += 1
                    if tracing:
                        c = hot.get(pc)
                        c = 1 if c is None else c + 1
                        hot[pc] = c
                        if (c >= threshold and pc not in tcache
                                and attempts.get(pc, 0) < _MAX_TRACE_ATTEMPTS):
                            executed = self._record_trace(pc, remaining)
                            retired += executed
                            remaining -= executed
                            continue
                executed = self._exec_block(block[0], remaining)
                retired += executed
                remaining -= executed
        finally:
            if retired:
                self.counters["superblock_instret"] += retired
            if hits:
                self.counters["block_cache_hits"] += hits
            if thits:
                self.counters["trace_cache_hits"] += thits
        raise SimulationLimitExceeded(max_instructions)

    def _build_block(self, pc: int) -> tuple[list, object, int, int, int]:
        """Decode the straight-line run starting at *pc* into a superblock.

        Each op is the instruction's closure from the decode cache.  The
        block ends at the first control-flow instruction, at the segment
        edge, at an instruction the profile cannot execute, or at the op
        cap.  A decode failure past the entry (or an op whose closure
        cannot be built) just ends the block early: execution reaches
        that pc architecturally and the fault is raised from there with
        the exact :meth:`step` protocol.
        """
        seg = self.space.fetch_segment(pc)  # raises SegmentationFault(exec)
        version = seg.version
        seg_end = seg.end
        instruction_cost = self.cost.instruction_cost
        extensions = self.profile.extensions
        ops: list = []
        cur = pc
        while len(ops) < _MAX_BLOCK_OPS:
            try:
                instr, handler, _tag = self._decode_at(cur)
            except SimFault:
                if ops:
                    break  # fault raised when execution actually gets there
                raise
            nxt = cur + instr.length
            ops.append((cur, nxt, instr, handler,
                        instruction_cost(instr, taken=False),
                        instruction_cost(instr, taken=True)))
            if (instr.mnemonic in CTRL_MNEMONICS
                    or instr.extension not in extensions):
                break
            cur = nxt
            if cur >= seg_end:
                break
        # Only the last op can redirect control: the others run back to
        # back, with their (never-taken) costs summed once here.
        body = ops[:-1]
        code = (ops, tuple(op[3] for op in body), sum(op[4] for op in body))
        block = (code, seg, version, pc, ops[-1][1])
        self._bcache[pc] = block
        return block

    def _exec_block(self, code: tuple, limit: int) -> int:
        """Execute up to *limit* ops of one superblock; returns retired count.

        ``code`` is ``(ops, body, body_cost)`` from :meth:`_build_block`.
        The body ops neither read nor move the pc, so ``cpu.pc`` is set
        once, for the last op.  Mirrors :meth:`step` exactly on the
        fault path: pc restored to the faulting instruction, ``fault.pc``
        filled, ``fault_hook`` fired, and only retired ops counted toward
        instret/cycles.
        """
        ops, body, body_cost = code
        k = 0
        try:
            if len(ops) > limit:  # budget tail: a run of body ops only
                for k, op in enumerate(body[:limit]):
                    op(self)
                k = limit
                self.pc = ops[limit][0]
                cycles = sum(o[4] for o in ops[:limit])
            else:
                for k, op in enumerate(body):
                    op(self)
                k = len(body)
                _pc, nxt, _instr, op, cost, cost_taken = ops[k]
                self.pc = nxt
                cycles = body_cost + (cost_taken if op(self) else cost)
                k += 1
        except SimFault as fault:
            pc = self.pc = ops[k][0]
            self._commit(k, sum(o[4] for o in ops[:k]), ops, count=True)
            if fault.pc is None:
                fault.pc = pc
            if self.fault_hook is not None:
                self.fault_hook(self, fault)
            raise
        except Exception:
            self.pc = ops[k][0]
            self._commit(k, sum(o[4] for o in ops[:k]), ops, count=True)
            raise
        self._commit(k, cycles, ops)
        return k

    def _commit(self, executed: int, cycles: int, ops: list,
                count: bool = False) -> None:
        """Account a (possibly partial) superblock's retired ops.

        ``count=True`` (the fault paths) also settles the
        ``superblock_instret`` counter here, because :meth:`run` only
        sums the retired counts of blocks that return normally.
        """
        if not executed:
            return
        self.instret += executed
        self.cycles += cycles
        self.last_pc = ops[executed - 1][0]
        if count:
            self.counters["superblock_instret"] += executed

    # -- trace tier ----------------------------------------------------------

    def _record_trace(self, entry: int, budget: int) -> int:
        """Record a trace from hot *entry* by executing superblocks.

        The chain follows the branches actually taken right now: each
        block runs through :meth:`_exec_block` (so the recording pass is
        architecturally just normal execution — every op retires with
        the usual accounting), and the observed continuation pc becomes
        the guard value for the block's last op.  The chain closes when
        it returns to *entry* (a looping trace), reaches the entry of a
        trace already compiled (a link: execution hands over to that
        trace, so its code is not compiled a second time, and even one
        block is kept), revisits any interior block (an inner loop the
        trace must not unroll), or hits a size cap.  Recording aborts —
        leaving attempt accounting so the tier eventually gives up —
        when the chain faults, traps into a syscall, or runs out of
        instruction budget.

        Returns the number of instructions retired while recording.
        """
        attempts = self._trace_attempts
        attempts[entry] = attempts.get(entry, 0) + 1
        bcache = self._bcache
        flat: list = []
        ranges: list = []
        versions: list = []
        seen = {entry}
        total = 0
        loops = False
        linked = False
        pc = entry
        try:
            while (len(flat) < _MAX_TRACE_OPS
                   and len(ranges) < _MAX_TRACE_BLOCKS):
                block = bcache.get(pc)
                if block is None or block[1].version != block[2]:
                    try:
                        block = self._build_block(pc)
                    except SimFault as fault:
                        if fault.pc is None:
                            fault.pc = pc
                        if self.fault_hook is not None:
                            self.fault_hook(self, fault)
                        raise
                code, seg, version, start, stop = block
                ops = code[0]
                executed = self._exec_block(code, budget - total)
                total += executed
                if executed < len(ops):
                    return total  # budget truncation: discard the recording
                next_pc = self.pc
                for opc, nxt, instr, handler, cost, cost_taken in ops[:-1]:
                    flat.append((opc, nxt, nxt, instr, handler,
                                 cost, cost_taken))
                opc, nxt, instr, handler, cost, cost_taken = ops[-1]
                flat.append((opc, nxt, next_pc, instr, handler,
                             cost, cost_taken))
                ranges.append([seg, version, start, stop])
                for v in versions:
                    if v[0] is seg:
                        break
                else:
                    versions.append([seg, version])
                if next_pc == entry:
                    loops = True
                    break
                if next_pc in self._tcache:
                    linked = True
                    break
                if next_pc in seen:
                    break
                seen.add(next_pc)
                pc = next_pc
        except BaseException:
            # Counts of blocks that completed before the abort would be
            # lost (run() never sees our return value on a raise).
            if total:
                self.counters["superblock_instret"] += total
            raise
        if loops or linked or len(ranges) >= 2:
            for seg, version, _s_, _e_ in ranges:
                if seg.version != version:
                    return total  # code changed mid-recording: discard
            self._tcache[entry] = _Trace(entry, flat, ranges, versions, loops)
            attempts.pop(entry, None)
            self.counters["traces_compiled"] += 1
        return total

    def _run_trace(self, trace: _Trace, limit: int) -> int:
        """Run whole passes of a compiled trace; returns retired count.

        The caller guarantees ``limit >= trace.n`` so at least one full
        pass fits; :meth:`run` sends a shorter budget tail to the block
        tier instead.  Looping traces replay without leaving this frame,
        revalidating segment versions at every loop edge so W|X stores
        keep bit-identical semantics with the block tier.  A pass that
        ends at another trace's entry (a link) returns to :meth:`run`,
        which dispatches that trace.  On a fault the pass function left
        the faulting op index in ``_trace_ex``; the recorded prefix cycle
        sums reconstruct the exact partial accounting.
        """
        fn = trace.fn
        n = trace.n
        pcs = trace.pcs
        loops = trace.loops
        versions = trace.versions
        executed = 0
        cycles = 0
        side = 0
        try:
            while True:
                e, c, diverged = fn(self)
                executed += e
                cycles += c
                if diverged:
                    side = 1
                    break
                if not loops or limit - executed < n:
                    break
                stale = False
                for s, v in versions:
                    if s.version != v:
                        stale = True
                        break
                if stale:
                    break
        except BaseException as exc:
            ex = self._trace_ex
            executed += ex
            cycles += trace.cyc[ex]
            self.pc = pcs[ex]
            self._commit_trace(executed, cycles, pcs, side)
            if isinstance(exc, SimFault):
                if exc.pc is None:
                    exc.pc = pcs[ex]
                if self.fault_hook is not None:
                    self.fault_hook(self, exc)
            raise
        self._commit_trace(executed, cycles, pcs, side)
        return executed

    def _commit_trace(self, executed: int, cycles: int,
                      pcs: tuple, side_exits: int) -> None:
        """Account a trace dispatch's retired ops (possibly many passes)."""
        if executed:
            self.instret += executed
            self.cycles += cycles
            self.last_pc = pcs[(executed - 1) % len(pcs)]
            self.counters["trace_instret"] += executed
        if side_exits:
            self.counters["trace_side_exits"] += side_exits


def _trace_load_slow(cpu: Cpu, cell: list, addr: int, size: int) -> int:
    """Inline-cache miss path for a trace load: full permission-checked
    read (faults propagate with the step protocol), then prime the op's
    segment cell so subsequent passes hit the fast path."""
    space = cpu.space
    raw = space.read(addr, size)
    seg = space.segment_at(addr)
    if seg is not None:
        cell[0] = seg.base
        cell[1] = seg.data
    return int.from_bytes(raw, "little")


def _trace_store_slow(cpu: Cpu, cell: list, addr: int, data: bytes) -> None:
    """Inline-cache miss path for a trace store: full permission-checked
    write — including the W|X ``seg.version`` bump — then prime the cell
    only for plain data segments, so stores into executable memory never
    bypass the self-modifying-code invalidation protocol."""
    space = cpu.space
    space.write(addr, data)
    seg = space.segment_at(addr)
    if seg is not None and Perm.X not in seg.perm:
        cell[0] = seg.base
        cell[1] = seg.data


def _trace_vmem_prime(cpu: Cpu, cell: list, addr: int, write: bool) -> None:
    """Prime a vector memory op's segment cell after a slow-path access.

    Called after the op's closure completed (so permissions were
    already checked element by element); store cells only accept plain
    data segments so W|X version bumps never get bypassed."""
    seg = cpu.space.segment_at(addr)
    if seg is None:
        return
    if write and Perm.X in seg.perm:
        return
    cell[0] = seg.base
    cell[1] = seg.data


def _compile_trace(ops: list) -> tuple[Callable, tuple]:
    """Compile a trace's flat op list into one exec'd pass function.

    The source comes from :func:`repro.sim.semantics.trace_source`; this
    wraps it with the source -> code memo and binds the pass to the
    trace's ops and the inline-cache miss paths.  Returns the pass and
    the per-op prefix cycle sums the fault path settles partial passes
    with.
    """
    src, prefix = trace_source(ops)
    code = _TRACE_CODE_MEMO.get(src)
    if code is None:
        if len(_TRACE_CODE_MEMO) >= 512:
            _TRACE_CODE_MEMO.clear()
        code = compile(src, "<trace>", "exec")
        _TRACE_CODE_MEMO[src] = code
    ns = dict(RUNTIME)
    exec(code, ns)  # noqa: S102 - trusted, self-generated
    return (ns["_make"](ops, _trace_load_slow, _trace_store_slow,
                        _trace_vmem_prime),
            tuple(prefix))


#: Source → code-object memo for :func:`_compile_trace`.  Identical
#: guest code recorded in different kernels (benchmark rounds, pooled
#: workers, service re-runs) produces byte-identical generated source;
#: memoizing the *compile* step means each unique trace shape pays the
#: parse cost once per process.  Cell/handler state is still built fresh
#: per trace by calling ``_make``, so nothing architectural is shared.
_TRACE_CODE_MEMO: dict[str, object] = {}


def _unsupported(instr: Instruction) -> Callable:
    """The op for an instruction whose extension this core lacks."""
    def op(cpu: Cpu):
        raise IllegalInstructionFault(
            instr.addr if instr.addr is not None else cpu.pc,
            "unsupported-extension",
            f"{instr.mnemonic} needs {instr.extension.value}",
        )
    return op
