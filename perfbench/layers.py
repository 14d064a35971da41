"""Per-layer span tracing, installed from outside the program.

The benchmark does not instrument ``src/``.  Instead :class:`SpanRecorder`
rebinds the public entry point of each layer to a wrapper that records a
span around the call, and :func:`fold_self_times` turns the spans into
per-layer *self* time: a span's duration minus the part of it that its
child spans cover.

Spans nest per thread.  The batch server runs pipeline work on several
job threads at once, so the fold shares every instant equally between
the threads that are inside a traced layer at that instant (under the
interpreter lock they share one processor).  The self times of one run
therefore never add up to more than the wall time the spans cover.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
from collections import Counter, defaultdict

#: (layer, module, attribute) for every wrapped entry point.  A dotted
#: attribute is a method.  A module-level function is rebound in every
#: loaded ``repro`` module that imported it by name, unless LOOKUP_SITES
#: names the one module where it is timed.
ENTRY_POINTS = (
    ("workloads.build", "repro.workloads.synthetic", "SyntheticBinary.build"),
    ("workloads.build", "repro.workloads.programs", "KernelWorkload.build"),
    ("analysis.scan", "repro.analysis.scan", "RecursiveScanner.scan"),
    ("analysis.cfg", "repro.analysis.cfg", "build_cfg"),
    ("analysis.liveness", "repro.analysis.liveness", "LivenessAnalysis.run"),
    ("isa.assemble", "repro.isa.assembler", "Assembler.assemble"),
    ("translate.translate", "repro.core.translate", "Translator.translate"),
    ("patch", "repro.core.patcher", "ChbpPatcher.patch"),
    ("pipeline", "repro.core.pipeline", "rewrite_and_verify"),
    ("verify.static", "repro.verify.admission", "AdmissionGate.verify"),
    ("verify.oracle", "repro.verify.oracle", "DifferentialOracle.check_region"),
    ("verify.make_process", "repro.elf.loader", "make_process"),
    ("sim.run", "repro.sim.machine", "Kernel.run"),
    ("procpool.run", "repro.core.procpool", "FaultIsolatedPool.run"),
)

#: Functions timed only where one module looks them up: the oracle's
#: per-trial process construction, not every caller of make_process.
LOOKUP_SITES = {"verify.make_process": ("repro.verify.oracle",)}

#: Layer -> the per-layer metric that carries its self time.
SELF_TIME_METRICS = {
    "workloads.build": "workloads.build_s",
    "analysis.scan": "analysis.scan_s",
    "analysis.cfg": "analysis.cfg_s",
    "analysis.liveness": "analysis.liveness_s",
    "isa.assemble": "isa.assemble_s",
    "translate.translate": "translate.translate_s",
    "patch": "patch.self_s",
    "pipeline": "pipeline.self_s",
    "verify.static": "verify.static_s",
    "verify.oracle": "verify.oracle_s",
    "verify.make_process": "verify.make_process_s",
    "sim.run": "sim.run_s",
    "procpool.run": "procpool.run_s",
}


def _observe_scan(_args, result, count) -> None:
    count("analysis.instructions", len(result.instructions))


def _observe_patch(args, result, count) -> None:
    patcher = args[0]
    kinds = [kind for _, _, kind in patcher.patched_regions]
    count("patch.sites", len(kinds))
    count("patch.smile_sites", sum(k.startswith("smile") for k in kinds))
    count("patch.image_bytes", sum(len(s.data) for s in result.sections))


def _observe_verify(_args, report, count) -> None:
    count("verify.regions", len(report.regions))
    count("verify.regions_rejected", len(report.rejected))
    trials = [t for region in report.regions for t in region.oracle_trials]
    count("verify.trials", len(trials))
    count("verify.trials_matched", sum(t == "match" for t in trials))


def _observe_run(_args, result, count) -> None:
    counters = result.counters
    count("sim.instret", result.instret)
    count("sim.trace_instret", counters.get("trace_instret", 0))
    count("sim.block_instret", counters.get("superblock_instret", 0))
    count("sim.traces_compiled", counters.get("traces_compiled", 0))
    count("sim.trace_side_exits", counters.get("trace_side_exits", 0))


OBSERVERS = {
    "analysis.scan": _observe_scan,
    "patch": _observe_patch,
    "verify.static": _observe_verify,
    "sim.run": _observe_run,
}


class SpanRecorder:
    """Collect spans and counts from wrapped layer entry points.

    Each thread keeps its own stack of open spans.  Time is recorded as
    *segments*: intervals during which one span is the innermost open
    span of its thread.  A forked child (a verification pool worker)
    stops recording: its spans could not reach the parent anyway, and a
    lock copied mid-acquire must never be taken there.
    """

    def __init__(self):
        self.segments: list[tuple[str, float, float]] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.enabled = True
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.enabled = False
        self._lock = threading.Lock()

    # -- spans ----------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, layer: str) -> None:
        now = time.perf_counter()
        stack = self._stack()
        if stack:
            parent = stack[-1]
            self._emit(parent[0], parent[1], now)
        stack.append([layer, now])

    def exit(self) -> None:
        now = time.perf_counter()
        stack = self._stack()
        layer, start = stack.pop()
        self._emit(layer, start, now)
        if stack:
            stack[-1][1] = now
        with self._lock:
            self.calls[layer] += 1

    def _emit(self, layer: str, start: float, end: float) -> None:
        if end > start:
            with self._lock:
                self.segments.append((layer, start, end))

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] += value

    # -- installation -----------------------------------------------------------

    def install(self) -> "SpanRecorder":
        """Wrap every entry point in ENTRY_POINTS; undo with uninstall."""
        modules = import_layers()
        for layer, module_name, attr in ENTRY_POINTS:
            module = modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                self._rebind(owner, method, self._wrap(layer, vars(owner)[method]))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(layer, original)
            sites = LOOKUP_SITES.get(layer)
            if sites is None:
                sites = [name for name, loaded in list(sys.modules.items())
                         if (name == "repro" or name.startswith("repro."))
                         and getattr(loaded, attr, None) is original]
            for site in sites:
                self._rebind(importlib.import_module(site), attr, wrapper)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _rebind(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, layer: str, fn):
        recorder = self
        observer = OBSERVERS.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            recorder.enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.exit()
            if observer is not None:
                observer(args, result, recorder.count)
            return result

        return wrapper

    def snapshot(self) -> dict:
        """JSON-ready spans and counts (the serve bootstrap ships these)."""
        with self._lock:
            return {"segments": list(self.segments), "calls": dict(self.calls),
                    "counts": dict(self.counts)}


def import_layers() -> dict:
    """Import every traced module (name -> module).

    Done before wrapping, so that each module that imported a wrapped
    function by name is loaded when the function is rebound, and before
    an untraced reference run, so that neither run pays the imports.
    """
    return {name: importlib.import_module(name)
            for _, name, _ in ENTRY_POINTS}


def fold_self_times(segments) -> dict[str, float]:
    """Seconds of self time per layer, sharing overlapping threads.

    *segments* are ``(layer, start, end)`` intervals in which the layer
    was innermost on some thread.  Over each elementary interval the
    open segments split the elapsed time equally, so the result sums to
    the length of the union of all segments.
    """
    points = []
    for layer, start, end in segments:
        points.append((start, 1, layer))
        points.append((end, -1, layer))
    # Closings sort before openings at the same instant.
    points.sort(key=lambda p: (p[0], p[1]))
    active: Counter = Counter()
    open_count = 0
    totals: dict[str, float] = defaultdict(float)
    previous = 0.0
    for instant, delta, layer in points:
        if open_count and instant > previous:
            share = (instant - previous) / open_count
            for name, n in active.items():
                totals[name] += share * n
        previous = instant
        active[layer] += delta
        open_count += delta
        if not active[layer]:
            del active[layer]
    return dict(totals)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(snapshot: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (name -> (value, unit)) from one snapshot.

    Layers the run never entered read 0.  Service and runtime metrics
    are not span-derived; the workloads add them.
    """
    self_times = fold_self_times(snapshot["segments"])
    calls = snapshot["calls"]
    counts = Counter(snapshot["counts"])
    metrics = {metric: (self_times.get(layer, 0.0), "s")
               for layer, metric in SELF_TIME_METRICS.items()}
    instret = counts["sim.instret"]
    trace = counts["sim.trace_instret"]
    block = counts["sim.block_instret"]
    metrics.update({
        "analysis.instructions": (counts["analysis.instructions"], "count"),
        "isa.assemble_calls": (calls.get("isa.assemble", 0), "count"),
        "patch.sites": (counts["patch.sites"], "count"),
        "patch.smile_share": (_share(counts["patch.smile_sites"],
                                     counts["patch.sites"]), "share"),
        "patch.image_bytes": (counts["patch.image_bytes"], "bytes"),
        "verify.regions": (counts["verify.regions"], "count"),
        "verify.regions_rejected": (counts["verify.regions_rejected"], "count"),
        "verify.trial_match_share": (_share(counts["verify.trials_matched"],
                                            counts["verify.trials"]), "share"),
        "sim.instret": (instret, "count"),
        "sim.trace_share": (_share(trace, instret), "share"),
        "sim.block_share": (_share(block, instret), "share"),
        "sim.step_share": (_share(instret - trace - block, instret), "share"),
        "sim.traces_compiled": (counts["sim.traces_compiled"], "count"),
        "sim.trace_side_exits": (counts["sim.trace_side_exits"], "count"),
        "procpool.runs": (calls.get("procpool.run", 0), "count"),
    })
    return metrics
