"""``fig13-run``: ``Kernel.run`` to completion for every Fig. 13 SPEC
profile, natively on rv64gcv and CHBP empty-patched with the Chimera
runtime installed, as ``benchmarks/helpers.run_profile`` does.

Building and rewriting happen in set-up, so rewriting and verification
do no work in the timed passes.  One operation is one run (fresh
process, runtime, kernel).  A run fails when it does not exit cleanly;
it is a *wrong* output when the CHBP run's exit code or output differs
from the native run's, or when a run's simulated cycles differ from the
same run earlier in this process (they are deterministic).
"""

from __future__ import annotations

import math

from measure import Op, latency_metrics, pass_order, self_peak_rss_mb, \
    sequential_pass_seconds

#: All 18 SPEC CPU2017 profiles of Fig. 13.
PROFILES = ("cactuBSSN_r", "cactuBSSN_s", "cam4_r", "cam4_s", "gcc_r",
            "gcc_s", "xalancbmk_r", "xalancbmk_s", "imagick_r", "imagick_s",
            "omnetpp_r", "omnetpp_s", "perlbench_r", "perlbench_s", "pop2_s",
            "wrf_r", "wrf_s", "blender_r")

#: benchmarks/helpers.SCALE and the harness's instruction budget.
SCALE = 128
MAX_INSTRUCTIONS = 80_000_000

SYSTEMS = ("native", "chbp")


class Fig13Run:
    name = "fig13-run"
    #: The work runs in this process, where the speed probe tracks it and
    #: the span recorder sees it.
    IN_PROCESS = True
    #: Per-layer metrics beyond the span-derived ones -> unit.
    LAYER_EXTRAS = {"runtime.faults_handled": "count",
                    "fig13.overhead_pct": "%"}

    def __init__(self, seed: int, workdir, *, profiles=PROFILES):
        self.seed = seed
        self.profiles = tuple(profiles)
        self.cases: dict = {}
        #: (profile, system) -> simulated cycles of its first run.
        self.cycles: dict[tuple[str, str], int] = {}
        self.instret: dict[tuple[str, str], int] = {}
        self.faults_handled = 0

    def setup(self) -> None:
        from repro.core.rewriter import ChimeraRewriter
        from repro.isa.extensions import RV64GC
        from repro.sim.cost import DEFAULT_ARCH
        from repro.workloads.spec_profiles import PROFILES as SPEC
        from repro.workloads.synthetic import SyntheticBinary

        self.arch = DEFAULT_ARCH.scaled(SCALE)
        self.cases = {}
        for name in self.profiles:
            binary = SyntheticBinary(SPEC[name], scale=SCALE).build()
            rewriter = ChimeraRewriter(arch=self.arch, mode="empty")
            rewritten = rewriter.rewrite(binary, RV64GC).binary
            self.cases[name] = (binary, rewriter, rewritten)

    def execute(self, name: str, system: str):
        """One run to completion; returns (RunResult, faults handled)."""
        from repro.core.runtime import ChimeraRuntime
        from repro.elf.loader import make_process
        from repro.isa.extensions import RV64GCV
        from repro.sim import cpu as cpu_module
        from repro.sim.machine import Core, Kernel

        binary, rewriter, rewritten = self.cases[name]
        # Start from an empty trace-code memo, as a fresh ``repro run``
        # process does.  Otherwise every run after the first reuses
        # compiled traces, and the figures would depend on how many
        # passes fit in the run.
        getattr(cpu_module, "_TRACE_CODE_MEMO", {}).clear()
        kernel = Kernel(self.arch)
        core = Core(0, RV64GCV, self.arch)
        if system == "native":
            result = kernel.run(make_process(binary), core,
                                max_instructions=MAX_INSTRUCTIONS)
            return result, 0
        runtime = ChimeraRuntime(rewritten, rewriter=rewriter, original=binary)
        runtime.install(kernel)
        result = kernel.run(make_process(rewritten), core,
                            max_instructions=MAX_INSTRUCTIONS)
        return result, runtime.stats.deterministic_faults

    def run_pass(self, index: int, probe) -> list[Op]:
        ops = []
        for name in pass_order(self.profiles, self.seed, index):
            native = None
            for system in SYSTEMS:
                (result, handled), _, seconds = probe.measure(
                    lambda: self.execute(name, system))
                self.faults_handled += handled
                ops.append(self.check(name, system, seconds, result, native))
                native = result
        return ops

    def check(self, name: str, system: str, seconds: float, result,
              native) -> Op:
        """Classify one finished run (*native* is the reference run of
        the same profile, None for the native run itself)."""
        op_name = f"{name}/{system}"
        first = self.cycles.setdefault((name, system), result.cycles)
        self.instret.setdefault((name, system), result.instret)
        if native is not None and (result.exit_code != native.exit_code
                                   or result.output != native.output):
            return Op(op_name, seconds, "exit code or output differs from "
                      "the native run", wrong=True)
        if result.cycles != first:
            return Op(op_name, seconds, f"simulated cycles {result.cycles} "
                      f"!= {first} earlier in this run", wrong=True)
        if not result.ok:
            return Op(op_name, seconds, f"exit {result.exit_code}, "
                      f"fault {result.fault!r}")
        return Op(op_name, seconds)

    def overhead_pct(self) -> float:
        """Geometric-mean simulated-cycle overhead of CHBP over native."""
        logs = [math.log(self.cycles[(n, "chbp")] / self.cycles[(n, "native")])
                for n in self.profiles
                if (n, "chbp") in self.cycles and (n, "native") in self.cycles]
        return 100.0 * (math.exp(sum(logs) / len(logs)) - 1.0) if logs else 0.0

    def summary(self, ops: list[Op]) -> tuple[dict, dict]:
        pass_s = sequential_pass_seconds(ops)
        instructions = sum(self.instret.values())
        metrics = {"pass_s": pass_s, **latency_metrics(ops)}
        record = {"named": {
            "run_minstr_per_s": {"value": instructions / pass_s / 1e6,
                                 "unit": "Minstr/s"},
            "fig13_overhead_pct": {"value": self.overhead_pct(), "unit": "%"},
        }}
        return metrics, record

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()

    def layer_extras(self) -> dict:
        return {"runtime.faults_handled": self.faults_handled,
                "fig13.overhead_pct": self.overhead_pct()}

    def layer_snapshot(self, local: dict) -> dict:
        return local

    def close(self) -> None:
        self.cases = {}
