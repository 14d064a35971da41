"""No rewrite path calls the textual assembler.

Rewritten code is built from ``Instruction`` objects
(:mod:`repro.isa.block`); :class:`~repro.isa.assembler.Assembler` only
builds workloads.  With ``Assembler.assemble`` patched to raise, one case
of every path the rewrite golden covers must still run to completion and
produce its golden digest — including a serial ``rewrite_and_verify``.
The inputs are built before the patch goes in.
"""

from __future__ import annotations

import json

import pytest

from repro.isa.assembler import Assembler
from repro.workloads import ALL_WORKLOADS
from tests.integration import test_rewrite_golden as golden

CASES = (
    [f"chbp-{mode}/{golden.PROBE}" for mode in ("full", "empty")]
    + [f"kernel/{name}/{target}" for name in sorted(ALL_WORKLOADS)
       for target in ("rv64gc", "rv64gcv")]
    + [f"smile-dp/{golden.PROBE}", "smile-dp/dot", f"no-smile/{golden.PROBE}"]
    + [f"{method}/{name}" for method in ("strawman", "armore", "safer")
       for name in ("dot", "matmul")]
    + [f"{method}-full/{golden.PROBE}" for method in ("strawman", "armore", "safer")]
    + [f"degrade/{golden.PROBE}", f"heal/{golden.PROBE}",
       f"verify-cold/{golden.PROBE}"]
)


@pytest.fixture(scope="module")
def fixture() -> dict:
    # Build every input while the assembler still works.
    golden.spec_binary(golden.PROBE)
    for name in ALL_WORKLOADS:
        for variant in ("base", "ext"):
            golden.kernel_binary(name, variant)
    # The golden files memoize the SPEC CHBP digests; drop them so the
    # CHBP cases rewrite again under the patch.
    golden.spec_chbp_digest.cache_clear()
    return json.loads(golden.FIXTURE.read_text())


@pytest.mark.parametrize("case", CASES)
def test_rewrite_path_never_assembles(fixture, case, monkeypatch):
    def refuse(self, source):
        raise AssertionError("the rewrite path called Assembler.assemble")

    monkeypatch.setattr(Assembler, "assemble", refuse)
    assert golden.CASES[case]() == fixture[case]
