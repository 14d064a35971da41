"""Golden digests of the CHBP rewrite of every SPEC profile.

Each of the 25 profiles in ``repro.workloads.spec_profiles`` is built at
scale 128 and rewritten for rv64gc in ``full`` and ``empty`` mode with
the Fig. 13 architecture.  A case's digest is one sha256 over every
section (name, address, bytes), the fault table, the trap table and the
``patch_records`` — the same fields ``test_rewrite_golden`` pins.  That
golden covers the 18 Fig. 13 profiles; this one adds the application
profiles, so any change to the analysis or the encoder that moves one
byte of any profile's image fails here.

The rewrites are shared with ``test_rewrite_golden`` within one pytest run.

Regenerate (only when a change is *meant* to alter rewritten code)::

    PYTHONPATH=src python -m tests.integration.test_rewrite_sweep_golden --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.workloads.spec_profiles import PROFILES
from tests.integration.test_rewrite_golden import _sha, spec_chbp_digest

FIXTURE = Path(__file__).with_name("rewrite_sweep_golden.json")

MODES = ("full", "empty")

CASES = tuple(f"{mode}/{name}" for name in PROFILES for mode in MODES)


def compute(case: str) -> str:
    mode, name = case.split("/")
    return _sha(spec_chbp_digest(name, mode))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_profile_and_mode(golden):
    assert sorted(golden) == sorted(CASES)
    assert len(CASES) == 2 * len(PROFILES) == 50


@pytest.mark.parametrize("case", CASES)
def test_sweep_rewrite_is_byte_identical(golden, case):
    assert compute(case) == golden[case]


def main(argv: list[str]) -> int:
    if argv != ["--write"]:
        print(__doc__)
        return 2
    data = {case: compute(case) for case in CASES}
    FIXTURE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} cases to {FIXTURE}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
