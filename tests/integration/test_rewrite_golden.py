"""Golden digests of every rewrite path, pinned byte for byte.

Each case rewrites one input along one path and records the sha256 of
everything the rewrite produced: every section (name, address, bytes),
the fault table, the trap table and the ``patch_records`` (or the
baseline's own tables).  ``rewrite_golden.json`` holds the digests.

Paths covered:

* CHBP in full and empty mode on all 18 Fig. 13 profiles (scale 128,
  the Fig. 13 architecture);
* the 7 kernel workloads: the vector variant for rv64gc (downgrade) and
  the base variant for rv64gcv (upgrades);
* the Fig. 5 data-pointer SMILE variant and the all-trap configuration
  (``use_smile=False``);
* the strawman, ARMore and SAFER baselines;
* one ``degrade_region_to_trap`` and one ``PatchHealer`` heal block;
* the ``VerifyReport.to_json`` ledger of ``rewrite_and_verify`` on the
  13 ``verify-cold`` profiles at that benchmark's configuration (scale
  128, seed 0, 2 oracle trials, one job).

Regenerate (only when a change is *meant* to alter rewritten code)::

    PYTHONPATH=src python -m tests.integration.test_rewrite_golden --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from repro.baselines.armore import ArmoreRewriter
from repro.baselines.safer import SaferRewriter
from repro.baselines.strawman import rewrite_strawman
from repro.core.rewriter import ChimeraRewriter
from repro.core.runtime import ChimeraRuntime
from repro.elf.loader import make_process
from repro.isa.extensions import RV64GC, RV64GCV
from repro.sim.cost import DEFAULT_ARCH
from repro.sim.machine import Core, Kernel
from repro.verify.degrade import degrade_region_to_trap
from repro.workloads import ALL_WORKLOADS
from repro.workloads.spec_profiles import PROFILES as SPEC
from repro.workloads.synthetic import SyntheticBinary

FIXTURE = Path(__file__).with_name("rewrite_golden.json")

SCALE = 128
FIG13_ARCH = DEFAULT_ARCH.scaled(SCALE)

#: All 18 SPEC CPU2017 profiles of Fig. 13.
FIG13 = ("cactuBSSN_r", "cactuBSSN_s", "cam4_r", "cam4_s", "gcc_r", "gcc_s",
         "xalancbmk_r", "xalancbmk_s", "imagick_r", "imagick_s", "omnetpp_r",
         "omnetpp_s", "perlbench_r", "perlbench_s", "pop2_s", "wrf_r",
         "wrf_s", "blender_r")

#: The profiles of the ``verify-cold`` benchmark workload.
VERIFY_COLD = ("cactuBSSN_r", "cactuBSSN_s", "gcc_r", "gcc_s", "xalancbmk_r",
               "xalancbmk_s", "imagick_r", "imagick_s", "omnetpp_r",
               "omnetpp_s", "perlbench_r", "perlbench_s", "blender_r")

#: Input of the single-input paths (variants, baselines, degrade, heal).
PROBE = "gcc_r"


# -- inputs -------------------------------------------------------------------


@lru_cache(maxsize=None)
def spec_binary(name: str):
    return SyntheticBinary(SPEC[name], scale=SCALE).build()


@lru_cache(maxsize=None)
def kernel_binary(name: str, variant: str):
    return ALL_WORKLOADS[name].build(variant)


# -- digests ------------------------------------------------------------------


def _sha(value) -> str:
    if not isinstance(value, (bytes, bytearray)):
        value = json.dumps(value, sort_keys=True).encode()
    return hashlib.sha256(bytes(value)).hexdigest()


def _sections(binary) -> dict:
    return {f"{s.name}@{s.addr:#x}": _sha(s.data) for s in binary.sections}


def chbp_digest(binary) -> dict:
    meta = binary.metadata["chimera"]
    return {
        "sections": _sections(binary),
        "fault_table": _sha(sorted(meta["fault_table"].entries.items())),
        "trap_table": _sha(sorted(meta["trap_table"].items())),
        "patch_records": _sha([r.as_state() for r in meta["patch_records"]]),
    }


def baseline_digest(binary, key: str) -> dict:
    meta = binary.metadata[key]
    out = {"sections": _sections(binary)}
    for name, table in sorted(meta.items()):
        if isinstance(table, dict):
            out[name] = _sha(sorted(
                (k, v if isinstance(v, int) else str(v))
                for k, v in table.items()))
        elif isinstance(table, list):
            out[name] = _sha(table)
    return out


# -- cases ----------------------------------------------------------------------


def _chbp(binary, target, arch=DEFAULT_ARCH, **options) -> dict:
    return chbp_digest(ChimeraRewriter(arch=arch, **options)
                       .rewrite(binary, target).binary)


@lru_cache(maxsize=None)
def spec_chbp_digest(name: str, mode: str) -> dict:
    """CHBP rewrite of one SPEC profile for rv64gc (shared with the sweep golden)."""
    return _chbp(spec_binary(name), RV64GC, FIG13_ARCH, mode=mode)


def _degrade() -> dict:
    rewritten = ChimeraRewriter(arch=FIG13_ARCH).rewrite(
        spec_binary(PROBE), RV64GC).binary
    rec = next(r for r in rewritten.metadata["chimera"]["patch_records"]
               if r.kind == "smile" and r.sources)
    new = degrade_region_to_trap(rewritten, rec)
    return {"region": rec.start, "new_records": len(new),
            **chbp_digest(rewritten)}


def _heal() -> dict:
    rewritten = ChimeraRewriter(arch=FIG13_ARCH).rewrite(
        spec_binary(PROBE), RV64GC).binary
    rec = next(r for r in rewritten.metadata["chimera"]["patch_records"]
               if r.kind == "smile" and r.sources)
    kernel = Kernel(FIG13_ARCH)
    runtime = ChimeraRuntime(rewritten, self_heal=True)
    runtime.install(kernel)
    process = make_process(rewritten)
    cpu = kernel.make_cpu(process, Core(0, RV64GC, FIG13_ARCH))
    assert runtime.healer.heal(kernel, process, cpu, None, rec.start)
    heal_segments = {f"{seg.name}@{seg.base:#x}": _sha(bytes(seg.data))
                     for seg in process.space.segments
                     if seg.name.startswith(".chimera.heal")}
    assert heal_segments
    return {
        "region": rec.start,
        "heal_segments": heal_segments,
        "trap_table": _sha(sorted(runtime.trap_table.items())),
        "fault_table": _sha(sorted(runtime.fault_table.entries.items())),
    }


def _verify_cold(name: str) -> dict:
    from repro.core.pipeline import rewrite_and_verify

    report = rewrite_and_verify(spec_binary(name), RV64GC, seed=0,
                                oracle_trials=2, jobs=1).report
    return {"ledger": _sha(report.to_json().encode()),
            "rejected": [hex(r.start) for r in report.rejected]}


def cases() -> dict:
    """Case name -> zero-argument function computing its digest."""
    out = {}
    for name in FIG13:
        for mode in ("full", "empty"):
            out[f"chbp-{mode}/{name}"] = (
                lambda n=name, m=mode: spec_chbp_digest(n, m))
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
    for mode in ("full", "empty"):
        out[f"strawman-{mode}/{PROBE}"] = lambda m=mode: chbp_digest(
            rewrite_strawman(spec_binary(PROBE), RV64GC, arch=FIG13_ARCH,
                             mode=m).binary)
        out[f"armore-{mode}/{PROBE}"] = lambda m=mode: baseline_digest(
            ArmoreRewriter(arch=FIG13_ARCH, mode=m)
            .rewrite(spec_binary(PROBE), RV64GC).binary, "armore")
        out[f"safer-{mode}/{PROBE}"] = lambda m=mode: baseline_digest(
            SaferRewriter(arch=FIG13_ARCH, mode=m)
            .rewrite(spec_binary(PROBE), RV64GC).binary, "safer")
    for name in ("dot", "matmul"):
        out[f"strawman/{name}"] = lambda n=name: chbp_digest(
            rewrite_strawman(kernel_binary(n, "ext"), RV64GC).binary)
        out[f"armore/{name}"] = lambda n=name: baseline_digest(
            ArmoreRewriter().rewrite(kernel_binary(n, "ext"), RV64GC).binary,
            "armore")
        out[f"safer/{name}"] = lambda n=name: baseline_digest(
            SaferRewriter().rewrite(kernel_binary(n, "ext"), RV64GC).binary,
            "safer")
    out[f"degrade/{PROBE}"] = _degrade
    out[f"heal/{PROBE}"] = _heal
    for name in VERIFY_COLD:
        out[f"verify-cold/{name}"] = lambda n=name: _verify_cold(n)
    return out


def compute(fn):
    """A case's digest, or the exception it raised (also pinned)."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - the failure is the result
        return {"raised": f"{type(exc).__name__}: {exc}"}


CASES = cases()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_rewrite_is_byte_identical(golden, case):
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
