"""The patch records are the one ledger: views derived from them stay right.

* After heal -> readmit, every pc a patch owned before the heal is owned
  again: ownership is derived from the records' unsafe spans, so a
  readmitted patch cannot come back with a shrunken span.
* A checkpoint carries the records a lazy splice added: a restored
  runtime still attributes faults in spliced regions to their patch.
* The ``.self`` loader ignores the retired ``patched_regions`` and
  ``smile_regs`` keys of older images.
"""

import pytest

from repro.core.rewriter import ChimeraRewriter
from repro.core.runtime import ChimeraRuntime
from repro.elf.builder import ProgramBuilder
from repro.elf.fileformat import load_binary_file, save_binary
from repro.elf.loader import make_process
from repro.isa.extensions import RV64GC
from repro.sim.machine import Core, Kernel
from tests.integration.test_rewrite_golden import FIG13_ARCH, PROBE, spec_binary


@pytest.mark.parametrize("smile_register", ["gp", "data-pointer"])
def test_readmission_restores_every_owned_pc(smile_register):
    rewritten = ChimeraRewriter(
        arch=FIG13_ARCH, smile_register=smile_register).rewrite(
        spec_binary(PROBE), RV64GC).binary
    kernel = Kernel(FIG13_ARCH)
    runtime = ChimeraRuntime(rewritten, self_heal=True)
    runtime.install(kernel)
    process = make_process(rewritten)
    cpu = kernel.make_cpu(process, Core(0, RV64GC))
    pcs = sorted({pc for lo, hi in rewritten.metadata["chimera"]["migration_unsafe"]
                  for pc in range(lo, hi)})
    before = [runtime._in_patched_region(pc) for pc in pcs]
    assert all(before)

    smile = [r for r in runtime.patch_records if r.kind in ("smile", "smile-dp")]
    assert smile
    for rec in smile:
        assert runtime.healer.heal(kernel, process, cpu, None, rec.start)
    cpu.pc = 0  # outside every patch: nothing blocks re-admission
    cpu.instret = max(e.not_before for e in runtime.healer.journal.entries.values())
    assert runtime.healer.maybe_readmit(process, cpu) == len(smile)

    after = [runtime._in_patched_region(pc) for pc in pcs]
    lost = [hex(pc) for pc, was, now in zip(pcs, before, after) if was != now]
    assert not lost, f"{len(lost)} pcs lost ownership, first {lost[:4]}"


def lazy_binary():
    """Vector code reachable only through a stored pointer: the static
    scan misses it and the runtime splices its patch in lazily."""
    b = ProgramBuilder("lazy-ledger")
    b.add_words("buf", [7, 8] + [0] * 8)
    b.add_words("slot", [0])
    b.set_text("""
_start:
    la t0, hidden
    li t1, {slot}
    sd t0, 0(t1)
    li a0, {buf}
    li a1, 2
    ld t0, 0(t1)
    jalr t0
    li a7, 93
    li a0, 0
    ecall
    .word 0xffffffff
hidden:
    vsetvli t0, a1, e64
    vle64.v v1, (a0)
    vadd.vv v2, v1, v1
    vse64.v v2, (a0)
    ret
""")
    return b.build()


def test_checkpoint_keeps_lazily_spliced_records():
    original = lazy_binary()
    rewriter = ChimeraRewriter()
    rewritten = rewriter.rewrite(original, RV64GC).binary
    shipped = set(rewritten.metadata["chimera"]["patch_records"])
    kernel = Kernel()
    runtime = ChimeraRuntime(rewritten, rewriter=rewriter, original=original)
    runtime.install(kernel)
    process = make_process(rewritten)
    cpu = kernel.make_cpu(process, Core(0, RV64GC))
    res = kernel.run(process, Core(0, RV64GC), cpu=cpu)
    assert res.ok, res.fault
    assert runtime.stats.runtime_rewrites >= 1
    spliced = [r for r in runtime.patch_records if r not in shipped]
    assert spliced, "the lazy rewrite spliced no record"

    fresh = ChimeraRuntime(rewritten, self_heal=True)
    fresh.import_state(runtime.export_state())
    for rec in spliced:
        assert rec in fresh.patch_records
        assert fresh.healer.attribute(cpu, rec.start) == rec
        assert fresh._classify_patched_encoding(process, rec.start) == "intact"
        assert fresh._in_patched_region(rec.start)


def test_loader_ignores_retired_region_keys(tmp_path):
    import json
    import struct

    from repro.elf.fileformat import MAGIC

    original = lazy_binary()
    rewritten = ChimeraRewriter(scan_address_taken=True).rewrite(
        original, RV64GC).binary
    path = tmp_path / "legacy.self"
    save_binary(rewritten, path)
    data = path.read_bytes()
    (hlen,) = struct.unpack_from("<I", data, 8)
    header = json.loads(data[12:12 + hlen])
    header["chimera"]["patched_regions"] = [[0x10000, 0x10008, "smile"]]
    header["chimera"]["smile_regs"] = {"65540": 10}
    blob = json.dumps(header).encode()
    path.write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob
                     + data[12 + hlen:])

    meta = load_binary_file(path).metadata["chimera"]
    assert "patched_regions" not in meta and "smile_regs" not in meta
    assert meta["patch_records"] == rewritten.metadata["chimera"]["patch_records"]
