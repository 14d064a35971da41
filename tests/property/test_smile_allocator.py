"""The gap-indexed ``SmileTextAllocator`` against the linear-scan original.

``ReferenceAllocator`` below is the allocator as it was before the free
gaps were indexed: every constrained placement computed the lowest
reachable target of every free gap and kept the minimum.  The indexed
allocator must make exactly the same placements, so both run side by
side and must agree after every call on the returned address, the
cursor, the set of free gaps and ``gap_bytes``:

* a Hypothesis test drives random interleavings of ``place`` and
  ``place_unconstrained``, compressed and not, with trampolines spread
  over several 2 MB lattice periods;
* a shadow test swaps the patcher's allocator for one that runs the
  reference beside it, then rewrites the SPEC profiles that
  ``rewrite_golden.json`` does not cover.

Generation is seeded from ``REPRO_FUZZ_SEED`` (default 0), like the rest
of ``tests/property``.
"""

from __future__ import annotations

import os
from typing import Optional

import pytest
from hypothesis import HealthCheck, given, seed, settings, strategies as st

import repro.core.patcher as patcher_module
from repro.core.rewriter import ChimeraRewriter
from repro.core.smile import SmileTextAllocator, next_achievable
from repro.isa.extensions import RV64GC
from repro.sim.cost import DEFAULT_ARCH
from repro.workloads.spec_profiles import PROFILES as SPEC
from repro.workloads.synthetic import SyntheticBinary

FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "0"))


class ReferenceAllocator:
    """First-fit allocator for ``.chimera.text`` target blocks.

    The compressed-mode SMILE constraints make each trampoline's
    reachable-address set sparse (~32 starts per 2 MB), so a monotonic
    cursor would waste tens of KB per block.  Because trampolines sit at
    diverse addresses, their lattices interleave: a free-list first-fit
    keeps the section dense.  Unconstrained placements (trap-fallback
    blocks, non-compressed binaries) fill gaps greedily.
    """

    def __init__(self, base: int, *, compressed: bool):
        self.base = base
        self.compressed = compressed
        self.cursor = base
        #: [start, end) gaps left behind by constrained placements.
        self.free: list[tuple[int, int]] = []

    def place(self, tramp_addr: int, size: int) -> int:
        """Reserve *size* bytes reachable from a SMILE at *tramp_addr*."""
        if not self.compressed:
            return self._place_anywhere(size)
        best: Optional[tuple[int, int]] = None  # (addr, gap index)
        for idx, (gs, ge) in enumerate(self.free):
            t = next_achievable(tramp_addr, gs)
            if t + size <= ge and (best is None or t < best[0]):
                best = (t, idx)
        tail = next_achievable(tramp_addr, self.cursor)
        if best is not None and best[0] <= tail:
            addr, idx = best
            gs, ge = self.free.pop(idx)
            self._add_gap(gs, addr)
            self._add_gap(addr + size, ge)
            return addr
        self._add_gap(self.cursor, tail)
        self.cursor = tail + size
        return tail

    def _add_gap(self, start: int, end: int) -> None:
        # Gaps below 16 bytes can't hold a useful block; dropping them
        # bounds the free list (their bytes count as padding).
        if end - start >= 16:
            self.free.append((start, end))
        elif end > start:
            self._dropped = getattr(self, "_dropped", 0) + (end - start)

    def place_unconstrained(self, size: int) -> int:
        """Reserve *size* bytes anywhere (trap-fallback blocks)."""
        return self._place_anywhere(size)

    def _place_anywhere(self, size: int, align: int = 2) -> int:
        for idx, (gs, ge) in enumerate(self.free):
            addr = (gs + align - 1) & ~(align - 1)
            if addr + size <= ge:
                self.free.pop(idx)
                self._add_gap(gs, addr)
                self._add_gap(addr + size, ge)
                return addr
        addr = (self.cursor + align - 1) & ~(align - 1)
        if addr > self.cursor:
            self.free.append((self.cursor, addr))
        self.cursor = addr + size
        return addr

    @property
    def used_span(self) -> int:
        """Total section span including internal gaps."""
        return self.cursor - self.base

    @property
    def gap_bytes(self) -> int:
        """Bytes lost to placement constraints (still-free gaps)."""
        return sum(ge - gs for gs, ge in self.free) + getattr(self, "_dropped", 0)


def assert_same_state(new: SmileTextAllocator, ref: ReferenceAllocator) -> None:
    assert new.cursor == ref.cursor
    # The same gaps in the same (first-fit) order.
    assert list(new.free) == ref.free
    assert new.gap_bytes == ref.gap_bytes


# -- random interleavings -------------------------------------------------------

#: ``.chimera.text`` base; trampolines lie in the 8 MB below it, so a run
#: spans several 2 MB lattice periods.
BASE = 0x800000
TRAMP_ADDR = st.integers(min_value=0x10000, max_value=BASE - 8).map(lambda a: a & ~1)
SIZE = st.integers(min_value=2, max_value=512)
CALL = st.one_of(
    st.tuples(st.just("place"), TRAMP_ADDR, SIZE),
    st.tuples(st.just("place_unconstrained"), st.just(0), SIZE),
)


@seed(FUZZ_SEED)
@given(compressed=st.booleans(),
       calls=st.lists(CALL, min_size=1, max_size=200))
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_random_interleavings_match_reference(compressed, calls):
    new = SmileTextAllocator(BASE, compressed=compressed)
    ref = ReferenceAllocator(BASE, compressed=compressed)
    for op, tramp, size in calls:
        if op == "place":
            got, want = new.place(tramp, size), ref.place(tramp, size)
        else:
            got, want = new.place_unconstrained(size), ref.place_unconstrained(size)
        assert got == want, (op, hex(tramp), size)
        assert_same_state(new, ref)


def test_constrained_placements_fill_gaps():
    """A long constrained run leaves gaps and reuses them, so the random
    test's agreement is not the trivial tail-only case."""
    new = SmileTextAllocator(BASE, compressed=True)
    ref = ReferenceAllocator(BASE, compressed=True)
    reused = 0
    for k in range(400):
        tramp = 0x10000 + (k * 0x3A6E) % 0x7E0000
        cursor = new.cursor
        got, want = new.place(tramp, 24 + k % 200), ref.place(tramp, 24 + k % 200)
        assert got == want
        assert_same_state(new, ref)
        reused += got < cursor
    assert reused > 100
    assert len(new.free) > 10


# -- shadow rewrites ------------------------------------------------------------

SCALE = 128

#: The SPEC profiles ``rewrite_golden.json`` does not pin (it covers the
#: 18 Fig. 13 ones).
UNPINNED = ("git", "vim", "gimp", "cmake", "ctest", "python", "libopenblas")


class ShadowAllocator(SmileTextAllocator):
    """The indexed allocator, checked against the reference on every call."""

    calls = 0

    def __init__(self, base: int, *, compressed: bool):
        super().__init__(base, compressed=compressed)
        self.reference = ReferenceAllocator(base, compressed=compressed)

    def place(self, tramp_addr: int, size: int) -> int:
        got = super().place(tramp_addr, size)
        assert got == self.reference.place(tramp_addr, size)
        assert_same_state(self, self.reference)
        ShadowAllocator.calls += 1
        return got

    def place_unconstrained(self, size: int) -> int:
        got = super().place_unconstrained(size)
        assert got == self.reference.place_unconstrained(size)
        assert_same_state(self, self.reference)
        ShadowAllocator.calls += 1
        return got


@pytest.mark.parametrize("profile", UNPINNED)
def test_shadow_rewrite_matches_reference(profile, monkeypatch):
    monkeypatch.setattr(patcher_module, "SmileTextAllocator", ShadowAllocator)
    monkeypatch.setattr(ShadowAllocator, "calls", 0)
    binary = SyntheticBinary(SPEC[profile], scale=SCALE).build()
    rewriter = ChimeraRewriter(arch=DEFAULT_ARCH.scaled(SCALE), mode="empty")
    rewriter.rewrite(binary, RV64GC)
    assert ShadowAllocator.calls > 0
