"""Chaos sweep: every patched byte of every workload, every patching mode.

The acceptance bar for the chaos harness: forcing an indirect jump to
every byte offset of every patched region — trampoline heads, the jalr
(P1), the pinned mid-parcels (P2/P3), padding, trap sites — must never
produce silent divergence (unintended instructions executing past the
grace window) or a raw Python crash.  Swept for all kernel workloads
and a pair of synthetic SPEC profiles, under SMILE patching, under
the all-trap fallback configuration and under the Fig. 5 data-pointer
SMILE variant.
"""

import pytest

from repro.chaos import (
    BENIGN_UNDEFINED,
    DETERMINISTIC_KILL,
    RECOVERED_REDIRECT,
    SWEEP_MODES,
    PcAssertionInjector,
    sweep_binary,
)
from repro.workloads.programs import ALL_WORKLOADS
from repro.workloads.spec_profiles import PROFILES
from repro.workloads.synthetic import SyntheticBinary

#: Two synthetic SPEC profiles: the largest-code integer benchmark and a
#: high-ext-density fp one.  Scaled down hard — the sweep is per-byte.
SPEC_SAMPLES = ("gcc_r", "cactuBSSN_r")


def assert_clean(report, injector):
    assert report.ok, "hard failures:\n" + "\n".join(
        str(f) for f in report.hard_failures
    )
    counts = report.counts()
    if not report.results:
        # A scalar workload (e.g. fibonacci) has nothing to patch.
        pytest.skip(f"{report.binary}: no patched regions to attack")
    # Every attack landed in a promised bucket; the assertion injector
    # actually observed faults (pc propagation checked at each one).
    assert injector.checked > 0
    assert counts[DETERMINISTIC_KILL] > 0
    return counts


@pytest.mark.parametrize("mode", SWEEP_MODES)
@pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
class TestKernelSweeps:
    def test_sweep_clean(self, name, mode):
        binary = ALL_WORKLOADS[name].build("ext")
        injector = PcAssertionInjector()
        report = sweep_binary(binary, mode=mode, injector=injector)
        counts = assert_clean(report, injector)
        if mode == "smile":
            # Legal head entries flow into .chimera.text.
            assert counts[RECOVERED_REDIRECT] > 0


@pytest.mark.parametrize("mode", SWEEP_MODES)
@pytest.mark.parametrize("name", SPEC_SAMPLES)
class TestSyntheticSweeps:
    def test_sweep_clean(self, name, mode):
        binary = SyntheticBinary(PROFILES[name], scale=512).build()
        injector = PcAssertionInjector()
        report = sweep_binary(
            binary, mode=mode, max_regions=24, injector=injector
        )
        assert_clean(report, injector)


class TestSweepAccounting:
    def test_region_cap_is_reported_not_silent(self):
        binary = SyntheticBinary(PROFILES["gcc_r"], scale=512).build()
        capped = sweep_binary(binary, mode="smile", max_regions=2)
        assert capped.skipped_regions > 0
        assert "skipped" in capped.summary()

    def test_every_offset_of_every_region_attacked(self):
        binary = ALL_WORKLOADS["dot"].build("ext")
        report = sweep_binary(binary, mode="smile")
        attacked = {r.addr for r in report.results}
        spans = {(r.region_start, r.region_end) for r in report.results}
        expected = {a for lo, hi in spans for a in range(lo, hi)}
        assert attacked == expected

    def test_offset_labels_cover_trampoline_anatomy(self):
        binary = ALL_WORKLOADS["dot"].build("ext")
        report = sweep_binary(binary, mode="smile")
        labels = {r.label for r in report.results}
        assert {"head", "P1", "P2", "P3", "misaligned"} <= labels

    def test_benign_only_for_unpromised_offsets(self):
        """benign-undefined may only appear where the paper promises
        nothing: non-boundary offsets or untouched bytes."""
        binary = ALL_WORKLOADS["memcpy"].build("ext")
        report = sweep_binary(binary, mode="smile")
        for r in report.results:
            if r.outcome == BENIGN_UNDEFINED:
                assert not (r.boundary and r.modified), str(r)
