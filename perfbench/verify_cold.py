"""``verify-cold``: cold ``rewrite_and_verify`` at the ``repro verify``
defaults over the Fig. 13 SPEC profiles whose full-mode image loads.

One operation is one profile's rewrite plus admission verification with
no cache.  It fails when it raises, when the ledger carries a structured
region fault, or when the gate rejects any region; it is a *wrong*
output when its ledger bytes differ from the same profile's ledger
earlier in the run (same seed, so they must be identical).
"""

from __future__ import annotations

from measure import Op, latency_metrics, pass_order, self_peak_rss_mb, \
    sequential_pass_seconds

#: cam4_r/s, pop2_s and wrf_r/s are left out: see README.md.
PROFILES = ("cactuBSSN_r", "cactuBSSN_s", "gcc_r", "gcc_s", "xalancbmk_r",
            "xalancbmk_s", "imagick_r", "imagick_s", "omnetpp_r",
            "omnetpp_s", "perlbench_r", "perlbench_s", "blender_r")

#: ``repro verify`` defaults: --scale 128, --oracle-trials 2, --jobs 1.
SCALE = 128
ORACLE_TRIALS = 2


class VerifyCold:
    name = "verify-cold"
    #: The work runs in this process, where the speed probe tracks it and
    #: the span recorder sees it.
    IN_PROCESS = True
    #: Per-layer metrics beyond the span-derived ones: none.
    LAYER_EXTRAS: dict[str, str] = {}

    def __init__(self, seed: int, workdir, *, profiles=PROFILES):
        self.seed = seed
        self.profiles = tuple(profiles)
        self.binaries: dict = {}
        #: profile -> ledger bytes of its first verification in this run.
        self.ledgers: dict[str, str] = {}
        #: profile -> rejected region starts (hex), as last verified.
        self.rejected: dict[str, list[str]] = {}

    def setup(self) -> None:
        from repro.workloads.spec_profiles import PROFILES as SPEC
        from repro.workloads.synthetic import SyntheticBinary

        self.binaries = {name: SyntheticBinary(SPEC[name], scale=SCALE).build()
                         for name in self.profiles}

    def run_pass(self, index: int, probe) -> list[Op]:
        from repro.core.pipeline import rewrite_and_verify
        from repro.isa.extensions import RV64GC

        def verify(name):
            try:
                return rewrite_and_verify(self.binaries[name], RV64GC,
                                          seed=self.seed,
                                          oracle_trials=ORACLE_TRIALS, jobs=1)
            except Exception as exc:  # noqa: BLE001 - counted, never raised
                return exc

        ops = []
        for name in pass_order(self.profiles, self.seed, index):
            pipe, _, seconds = probe.measure(lambda: verify(name))
            if isinstance(pipe, Exception):
                ops.append(Op(name, seconds,
                              f"raised {type(pipe).__name__}: {pipe}"))
            else:
                ops.append(self.check(name, seconds, pipe.report))
        return ops

    def check(self, name: str, seconds: float, report) -> Op:
        """Classify one finished verification."""
        ledger = report.to_json()
        first = self.ledgers.setdefault(name, ledger)
        self.rejected[name] = [hex(r.start) for r in report.rejected]
        if ledger != first:
            return Op(name, seconds, "ledger differs from its first "
                      "verification at the same seed", wrong=True)
        if report.faults:
            return Op(name, seconds, f"{len(report.faults)} region fault(s)")
        if report.rejected:
            return Op(name, seconds,
                      "rejected " + ", ".join(self.rejected[name]))
        return Op(name, seconds)

    def summary(self, ops: list[Op]) -> tuple[dict, dict]:
        pass_s = sequential_pass_seconds(ops)
        metrics = {"pass_s": pass_s, **latency_metrics(ops)}
        record = {
            "named": {"verify_wall_s": {"value": pass_s, "unit": "s"}},
            "rejected_regions": {k: v for k, v in sorted(self.rejected.items())
                                 if v},
        }
        return metrics, record

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()

    def layer_extras(self) -> dict:
        return {}

    def layer_snapshot(self, local: dict) -> dict:
        return local

    def close(self) -> None:
        self.binaries = {}
