"""Golden digests of the patch ledger: everything derived from the records.

The patch records are the one ledger of patch state; the patched
regions, the Fig. 5 P1 -> register map and the runtime's tables are
views of it.  This module pins those views byte for byte:

* for every CHBP case of ``test_rewrite_golden``: the ``(start, end,
  kind)`` regions, the P1 -> register map and ``migration_unsafe``;
* on the probe profile with both SMILE registers: a self-healing
  runtime's fault table, trap table and heal segments after healing
  every smile/smile-dp record, and the same tables after readmitting
  all of them (equal to the pristine tables);
* the metadata after one ``degrade_region_to_trap``;
* the outcome counts of the data-pointer chaos sweep of the probe.

``patch_ledger_golden.json`` holds the digests.  Regenerate (only when
a change is *meant* to alter the ledger)::

    PYTHONPATH=src python -m tests.integration.test_patch_ledger_golden --write
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.chaos.harness import sweep_binary
from repro.core.rewriter import ChimeraRewriter
from repro.core.runtime import ChimeraRuntime
from repro.elf.loader import make_process
from repro.isa.extensions import RV64GC, RV64GCV
from repro.sim.machine import Core, Kernel
from repro.verify.degrade import degrade_region_to_trap
from repro.verify.records import p1_registers, patched_regions
from repro.workloads import ALL_WORKLOADS
from tests.integration.test_rewrite_golden import (
    FIG13,
    FIG13_ARCH,
    PROBE,
    _sha,
    compute,
    kernel_binary,
    spec_binary,
)

FIXTURE = Path(__file__).with_name("patch_ledger_golden.json")

SMILE_REGISTERS = ("gp", "data-pointer")


# -- digests --------------------------------------------------------------------


def ledger_digest(binary) -> dict:
    meta = binary.metadata["chimera"]
    records = meta["patch_records"]
    return {
        "regions": _sha(patched_regions(records)),
        "p1_registers": _sha(sorted(p1_registers(records).items())),
        "migration_unsafe": _sha(sorted(meta["migration_unsafe"])),
    }


def _tables(runtime, process) -> dict:
    return {
        "fault_table": _sha(sorted(runtime.fault_table.entries.items())),
        "trap_table": _sha(sorted(runtime.trap_table.items())),
        "heal_segments": _sha(sorted(
            (seg.name, seg.base, bytes(seg.data).hex())
            for seg in process.space.segments
            if seg.name.startswith(".chimera.heal"))),
    }


# -- cases ----------------------------------------------------------------------


def _chbp(binary, target, arch=None, **options) -> dict:
    rewriter = (ChimeraRewriter(arch=arch, **options) if arch is not None
                else ChimeraRewriter(**options))
    return ledger_digest(rewriter.rewrite(binary, target).binary)


def _heal_readmit(smile_register: str) -> dict:
    """Heal every SMILE record of a live process, then readmit them all."""
    rewritten = ChimeraRewriter(
        arch=FIG13_ARCH, smile_register=smile_register).rewrite(
        spec_binary(PROBE), RV64GC).binary
    kernel = Kernel(FIG13_ARCH)
    runtime = ChimeraRuntime(rewritten, self_heal=True)
    runtime.install(kernel)
    process = make_process(rewritten)
    cpu = kernel.make_cpu(process, Core(0, RV64GC))
    pristine = _tables(runtime, process)
    smile = [r for r in runtime.patch_records
             if r.kind in ("smile", "smile-dp")]
    healed = [r.start for r in smile
              if runtime.healer.heal(kernel, process, cpu, None, r.start)]
    after_heal = _tables(runtime, process)
    cpu.pc = 0  # outside every patch: nothing blocks re-admission
    cpu.instret = max(e.not_before
                      for e in runtime.healer.journal.entries.values())
    readmitted = runtime.healer.maybe_readmit(process, cpu)
    after_readmit = _tables(runtime, process)
    for name in ("fault_table", "trap_table"):
        assert after_readmit[name] == pristine[name], name
    return {
        "records": len(smile),
        "healed": _sha(healed),
        "readmitted": readmitted,
        "after_heal": after_heal,
        "after_readmit": after_readmit,
    }


def _degrade() -> dict:
    rewritten = ChimeraRewriter(arch=FIG13_ARCH).rewrite(
        spec_binary(PROBE), RV64GC).binary
    meta = rewritten.metadata["chimera"]
    rec = next(r for r in meta["patch_records"]
               if r.kind == "smile" and r.sources)
    new = degrade_region_to_trap(rewritten, rec)
    return {
        "region": rec.start,
        "new_records": len(new),
        **ledger_digest(rewritten),
        "fault_table": _sha(sorted(meta["fault_table"].entries.items())),
        "trap_table": _sha(sorted(meta["trap_table"].items())),
        "patch_records": _sha([r.as_state() for r in meta["patch_records"]]),
    }


def _smile_dp_sweep() -> dict:
    report = sweep_binary(spec_binary(PROBE), mode="smile-dp", verify=False)
    counts = Counter(r.outcome for r in report.results)
    return {"attacks": len(report.results), "outcomes": dict(sorted(counts.items()))}


def cases() -> dict:
    """Case name -> zero-argument function computing its digest (the
    CHBP case names match ``test_rewrite_golden``)."""
    out = {}
    for name in FIG13:
        for mode in ("full", "empty"):
            out[f"chbp-{mode}/{name}"] = (
                lambda n=name, m=mode: _chbp(spec_binary(n), RV64GC,
                                             FIG13_ARCH, mode=m))
    for name in sorted(ALL_WORKLOADS):
        out[f"kernel/{name}/rv64gc"] = (
            lambda n=name: _chbp(kernel_binary(n, "ext"), RV64GC))
        out[f"kernel/{name}/rv64gcv"] = (
            lambda n=name: _chbp(kernel_binary(n, "base"), RV64GCV))
    out[f"smile-dp/{PROBE}"] = lambda: _chbp(
        spec_binary(PROBE), RV64GC, FIG13_ARCH, smile_register="data-pointer")
    out["smile-dp/dot"] = lambda: _chbp(
        kernel_binary("dot", "ext"), RV64GC, smile_register="data-pointer")
    out[f"no-smile/{PROBE}"] = lambda: _chbp(
        spec_binary(PROBE), RV64GC, FIG13_ARCH, use_smile=False)
    for reg in SMILE_REGISTERS:
        out[f"heal-readmit-{reg}/{PROBE}"] = lambda r=reg: _heal_readmit(r)
    out[f"degrade/{PROBE}"] = _degrade
    out[f"sweep-smile-dp/{PROBE}"] = _smile_dp_sweep
    return out


CASES = cases()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_ledger_is_identical(golden, case):
    assert compute(CASES[case]) == golden[case]


def main(argv: list[str]) -> int:
    if argv != ["--write"]:
        print(__doc__)
        return 2
    data = {name: compute(fn) for name, fn in sorted(CASES.items())}
    FIXTURE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} cases to {FIXTURE}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
