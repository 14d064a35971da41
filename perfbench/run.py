"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; the program is imported from ``src/``.
Workloads (see README.md for why each one exists):

* ``verify-cold``  — cold ``rewrite_and_verify`` of 13 SPEC profiles;
* ``fig13-run``    — native and CHBP runs of all 18 Fig. 13 profiles;
* ``serve-mixed``  — a ``repro serve`` subprocess under a closed loop
  of cold and warm jobs.

``--trace 0`` sets the workload up SETUP_REPEATS times, then runs whole
passes over its operations until ``--seconds`` have passed (at least
MIN_PASSES), and reports the end-to-end metrics.  The in-process
workloads report reference seconds: each interval scaled by the host
speed timed right before and after it (measure.SpeedProbe).

``--trace 1`` sets up and runs one pass untraced, then one set-up and
one pass with every layer's entry point wrapped (layers.py), and
reports per-layer metrics; their difference in duration is the tracing
overhead.

The last line of standard output is the result object; the line before
it is the full record (seed, host, failures, the workload's named
metrics).  Failed operations are counted, never raised.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_REPEATS = 3
MIN_PASSES = 2

#: End-to-end metric -> unit (the same set on every workload).
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_s": "s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
}

WORKLOAD_NAMES = ("verify-cold", "fig13-run", "serve-mixed")


def workload_class(name: str):
    if name == "verify-cold":
        from verify_cold import VerifyCold
        return VerifyCold
    if name == "fig13-run":
        from fig13_run import Fig13Run
        return Fig13Run
    from serve_mixed import ServeMixed
    return ServeMixed


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric -> unit, over all workloads."""
    from layers import layer_metrics

    units = {name: unit for name, (_, unit)
             in layer_metrics({"segments": [], "calls": {},
                               "counts": {}}).items()}
    for name in WORKLOAD_NAMES:
        units.update(workload_class(name).LAYER_EXTRAS)
    units.update({"trace.wall_s": "s", "trace.overhead_s": "s"})
    return units


def _failure_summary(ops) -> dict:
    return dict(Counter(f"{op.name}: {op.failure}" for op in ops
                        if op.failure).most_common(20))


def _result(ops, metrics: dict, units: dict) -> dict:
    return {
        "correct": not any(op.wrong for op in ops),
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op.failure),
        "metrics": {name: {"value": metrics.get(name, 0), "unit": unit}
                    for name, unit in units.items()},
    }


def measure_end_to_end(workload, seconds: float) -> tuple[dict, dict]:
    """Set up SETUP_REPEATS times, then run passes for *seconds*."""
    from measure import SpeedProbe, median

    probe = SpeedProbe(enabled=workload.IN_PROCESS)
    setups = []
    raw_setups = []
    ops = []
    passes = 0
    try:
        for attempt in range(SETUP_REPEATS):
            if attempt:
                workload.close()
            _, raw, ref = probe.measure(workload.setup)
            raw_setups.append(raw)
            setups.append(ref)
        start = time.perf_counter()
        while passes < MIN_PASSES or time.perf_counter() - start < seconds:
            ops.extend(workload.run_pass(passes, probe))
            passes += 1
        metrics, record = workload.summary(ops)
    finally:
        workload.close()
    metrics.update(setup_s=median(setups), peak_rss_mb=workload.peak_rss_mb())
    record.update(setup_runs_s=raw_setups, passes=passes,
                  reference_chunk_s=median(probe.samples) or None,
                  failures=_failure_summary(ops))
    return _result(ops, metrics, END_TO_END_UNITS), record


def measure_layers(make_workload) -> tuple[dict, dict]:
    """One untraced and one traced set-up + pass of the same work."""
    from layers import SpanRecorder, import_layers, layer_metrics
    from measure import SpeedProbe

    import_layers()
    start = time.perf_counter()
    plain = make_workload(traced=False)
    try:
        plain.setup()
        ops = plain.run_pass(0, SpeedProbe(enabled=False))
    finally:
        plain.close()
    untraced = time.perf_counter() - start

    start = time.perf_counter()
    workload = make_workload(traced=True)
    recorder = SpanRecorder().install()
    try:
        workload.setup()
        traced_ops = workload.run_pass(0, SpeedProbe(enabled=False))
    finally:
        recorder.uninstall()
        workload.close()
    wall = time.perf_counter() - start

    snapshot = workload.layer_snapshot(recorder.snapshot())
    values = {name: value for name, (value, _) in layer_metrics(snapshot).items()}
    values.update(workload.layer_extras())
    values.update({"trace.wall_s": wall, "trace.overhead_s": wall - untraced})
    all_ops = ops + traced_ops
    record = {"untraced_s": untraced, "traced_s": wall,
              "tracing_overhead_s": wall - untraced,
              "failures": _failure_summary(all_ops)}
    return _result(all_ops, values, per_layer_units()), record


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
        **options) -> tuple[dict, dict]:
    """Measure one workload; returns (result, record)."""
    cls = workload_class(name)

    def make_workload(traced: bool = False):
        extra = {} if cls.IN_PROCESS else {"traced": traced}
        return cls(seed, workdir, **options, **extra)

    if trace:
        result, record = measure_layers(make_workload)
    else:
        result, record = measure_end_to_end(make_workload(), seconds)
    from measure import host_fingerprint

    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "host": host_fingerprint(), **record}
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result, record = run(args.workload, args.seed, args.seconds,
                             bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
