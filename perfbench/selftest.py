"""Self-test of the benchmark at minimal size.

    python3 perfbench/selftest.py

Runs every workload on one or two small inputs, in both modes, and
checks that:

* every end-to-end and per-layer metric named in BENCHMARK.json is
  printed with its unit (and every end-to-end value is non-zero);
* a deliberately wrong output is counted as a failed operation and
  clears ``correct``, without aborting the run;
* the traced run's per-layer self times add up to no more than its
  wall time;
* without the program's sources the benchmark exits non-zero and prints
  no result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import serve_mixed  # noqa: E402
from fig13_run import Fig13Run  # noqa: E402
from layers import SELF_TIME_METRICS  # noqa: E402

#: Minimal inputs per workload (omnetpp_s is rejected at seed 0, so the
#: verify-cold run also exercises the failure accounting).
SMALL = {
    "verify-cold": {"profiles": ("omnetpp_r", "omnetpp_s")},
    "fig13-run": {"profiles": ("omnetpp_r",)},
    "serve-mixed": {"workloads": ("dot", "omnetpp_r")},
}

PROBLEMS: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        PROBLEMS.append(message)
        print(f"FAIL {message}")


@contextmanager
def patched(owner, attr: str, replacement):
    original = getattr(owner, attr)
    setattr(owner, attr, replacement)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def measure(name: str, workdir: Path, *, trace: bool) -> dict:
    result, record = run.run(name, 0, 0.0, trace, workdir, **SMALL[name])
    json.dumps(record)  # the record line must serialize too
    return json.loads(json.dumps(result))


def check_names(name: str, result: dict, declared: list[dict]) -> None:
    printed = result["metrics"]
    expect(set(printed) == {m["name"] for m in declared},
           f"{name}: printed metrics {sorted(printed)} differ from "
           f"BENCHMARK.json {sorted(m['name'] for m in declared)}")
    for metric in declared:
        got = printed.get(metric["name"], {})
        expect(got.get("unit") == metric["unit"],
               f"{name}: {metric['name']} unit {got.get('unit')!r} != "
               f"{metric['unit']!r}")
        expect(isinstance(got.get("value"), (int, float)),
               f"{name}: {metric['name']} value is not a number")


def check_self_times(name: str, result: dict) -> None:
    metrics = result["metrics"]
    total = sum(metrics[m]["value"] for m in SELF_TIME_METRICS.values())
    wall = metrics["trace.wall_s"]["value"]
    expect(0 < total <= wall, f"{name}: self times {total:.6f}s not within "
           f"the traced wall time {wall:.6f}s")


def check_wrong_outputs(workdir: Path) -> None:
    """Tamper with one output per workload; it must count as failed."""
    def corrupt_chbp(original):
        def execute(self, name, system):
            result, handled = original(self, name, system)
            if system == "chbp":
                result.output += b"!"
            return result, handled
        return execute

    from repro.verify.report import VerifyReport

    calls = {"n": 0}
    original_to_json = VerifyReport.to_json

    def drifting_to_json(self):
        calls["n"] += 1
        return original_to_json(self) + f"#{calls['n']}"

    original_submit = serve_mixed._submit

    async def corrupt_warm(reader, writer, spec):
        record = await original_submit(reader, writer, spec)
        if record.get("cache") == "warm":
            record["report_json"] += " "
        return record

    tampering = {
        "fig13-run": (Fig13Run, "execute", corrupt_chbp(Fig13Run.execute)),
        "verify-cold": (VerifyReport, "to_json", drifting_to_json),
        "serve-mixed": (serve_mixed, "_submit", corrupt_warm),
    }
    for name, (owner, attr, replacement) in tampering.items():
        clean = measure(name, workdir, trace=False)
        with patched(owner, attr, replacement):
            tampered = measure(name, workdir, trace=False)
        expect(clean["correct"], f"{name}: clean run not correct")
        expect(not tampered["correct"], f"{name}: wrong output left "
               "'correct' true")
        expect(tampered["failed"] > clean["failed"],
               f"{name}: wrong output not counted as failed "
               f"({tampered['failed']} vs {clean['failed']})")
        expect(tampered["attempted"] == clean["attempted"],
               f"{name}: tampering changed the attempted count")


def check_needs_sources(workdir: Path) -> None:
    bare = workdir / "bare"
    (bare / HERE.name).mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / HERE.name / path.name)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "verify-cold",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    expect(proc.returncode != 0, "benchmark without sources exited 0")
    expect(proc.stdout.strip() == "",
           f"benchmark without sources printed {proc.stdout!r}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = ROOT / ".perfbench-work" / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        for name in run.WORKLOAD_NAMES:
            result = measure(name, workdir, trace=False)
            check_names(name, result, spec["end_to_end"])
            expect(all(m["value"] for m in result["metrics"].values()),
                   f"{name}: an end-to-end metric reads 0")
            traced = measure(name, workdir, trace=True)
            check_names(name, traced, spec["per_layer"])
            check_self_times(name, traced)
            print(f"ok   {name}: metrics, units, self times")
        check_wrong_outputs(workdir)
        print("ok   wrong outputs counted as failed")
        check_needs_sources(workdir)
        print("ok   no sources, no result")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest:", "FAIL" if PROBLEMS else "PASS")
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())
