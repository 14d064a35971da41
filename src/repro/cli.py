"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``build``    — build a workload binary to a .self image
* ``disasm``   — disassemble a .self image
* ``rewrite``  — rewrite an image for a target ISA profile (chimera /
  safer / armore / strawman)
* ``run``      — load and execute an image on a simulated core, with the
  matching runtime installed automatically; given a workload name
  instead of a file it drives the full traced pipeline
* ``trace``    — run one workload through the instrumented
  build→rewrite→execute→schedule pipeline and dump Chrome-trace +
  metrics JSON (``--telemetry-out`` on run/chaos/resilience does the
  same for those commands)
* ``profiles`` — list the SPEC/app profiles and workloads available
* ``verify``   — static admission gate: check every patched region of a
  rewrite (encoding, target, CFG, differential oracle) before release,
  optionally cross-checked against a chaos sweep
* ``chaos``    — adversarial fault-injection harness: sweep every byte
  of every patched region and run the runtime-corruption scenarios
* ``resilience`` — core-failure scenarios: kill/flake cores mid-task,
  drop migrations, corrupt checkpoints, lose the whole extension pool —
  and assert forward progress with structured faults
* ``serve``    — batch translation service: accept many rewrite jobs
  over a local socket, deduplicate through the sharded rewrite cache,
  stream ledgers back byte-identical to ``verify --report``
* ``submit``   — fleet client: fan binaries/workloads at a running
  server with bounded concurrency and retries; writes per-job ledgers
  and a campaign manifest
* ``cache``    — rewrite-cache admin: per-shard stats, orphan GC, LRU
  eviction to a size budget
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext

from repro.elf.fileformat import load_binary_file, save_binary
from repro.elf.loader import make_process
from repro.isa.extensions import PROFILES as ISA_PROFILES
from repro.sim.cost import DEFAULT_ARCH
from repro.sim.machine import Core, Kernel
from repro.verify.admission import EXECUTORS


def _isa(name: str):
    try:
        return ISA_PROFILES[name]
    except KeyError:
        raise SystemExit(f"unknown ISA profile {name!r}; choose from {sorted(ISA_PROFILES)}")


def _add_perf_flags(parser: argparse.ArgumentParser) -> None:
    """The shared performance flags (run/verify/chaos/resilience)."""
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="verification workers "
                             "(1 = serial; results are identical either way)")
    parser.add_argument("--executor", choices=EXECUTORS, default=None,
                        help="verification executor (default: process when "
                             "at least two regions can verify at once, "
                             "i.e. min(--jobs, regions) > 1, else serial); "
                             "process isolates worker crashes and hangs "
                             "from the release")
    parser.add_argument("--region-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock watchdog per region under "
                             "--executor process (default: 60)")
    parser.add_argument("--no-block-cache", action="store_true",
                        help="disable the superblock execution engine; "
                             "every CPU runs the plain interpreter loop")
    _add_trace_flags(parser)


def _add_rewrite_cache_flags(parser: argparse.ArgumentParser) -> None:
    """The rewrite cache (run/verify: the commands that rewrite through it)."""
    parser.add_argument("--rewrite-cache", metavar="DIR", default=None,
                        help="content-addressed cache of verified rewrites; "
                             "hits skip both translation and verification")
    _add_cache_flags(parser)


def _add_trace_flags(parser: argparse.ArgumentParser) -> None:
    """The trace-tier knobs (run/verify/chaos/resilience/serve)."""
    parser.add_argument("--no-trace-cache", action="store_true",
                        help="disable the hot-trace tier; hot code still "
                             "runs through the superblock cache but stops "
                             "at every branch")
    parser.add_argument("--trace-threshold", type=int, default=None,
                        metavar="N",
                        help="block-cache dispatches at one entry pc before "
                             "a trace is recorded (default: 16)")


def _add_cache_flags(parser: argparse.ArgumentParser, *,
                     new_cache: bool = True) -> None:
    if new_cache:
        parser.add_argument("--cache-shards", type=int, default=None,
                            metavar="N",
                            help="shard count of a new rewrite cache "
                                 "(default: 16); an existing cache keeps "
                                 "the count recorded in its root")
    parser.add_argument("--cache-max-mb", type=float, default=None,
                        metavar="MB",
                        help="LRU size budget for the rewrite cache; "
                             "oldest entries are evicted at publish time "
                             "(split evenly across shards)")


def _open_cache(root, shards=None, max_mb=None, *, create: bool = True):
    """CacheLayout (or None) for *root*; a layout conflict exits cleanly."""
    from repro.core.pipeline import CacheLayout, CacheLayoutError

    if root is None:
        return None
    try:
        return CacheLayout.open(root, shards, max_mb, create=create)
    except CacheLayoutError as exc:
        raise SystemExit(f"cache: {exc}")


def _telemetry_scope(args: argparse.Namespace):
    """(context manager, Telemetry | None) for a command's --telemetry-out."""
    outdir = getattr(args, "telemetry_out", None)
    if not outdir:
        return nullcontext(), None
    from repro.telemetry import Telemetry, use

    telemetry = Telemetry()
    return use(telemetry), telemetry


def _write_telemetry(telemetry, outdir) -> None:
    paths = telemetry.write(outdir)
    print(f"telemetry: wrote {paths['trace']} and {paths['metrics']}",
          file=sys.stderr)


def cmd_build(args: argparse.Namespace) -> int:
    binary = _resolve_workload(args.workload, variant=args.variant, scale=args.scale)
    save_binary(binary, args.output)
    print(f"wrote {args.output}: entry={binary.entry:#x}, "
          f"text={binary.text.size} bytes")
    return 0


def cmd_disasm(args: argparse.Namespace) -> int:
    from repro.isa.decoding import IllegalEncodingError, decode
    from repro.isa.disassembler import format_instruction

    binary = load_binary_file(args.image)
    section = binary.section(args.section)
    offset = 0
    while offset < section.size:
        addr = section.addr + offset
        try:
            instr = decode(section.data, offset, addr=addr)
        except IllegalEncodingError as exc:
            print(f"{addr:8x}:\t....\t<{exc.kind}>")
            offset += 2
            continue
        print(format_instruction(instr))
        offset += instr.length
    return 0


def cmd_rewrite(args: argparse.Namespace) -> int:
    binary = load_binary_file(args.image)
    profile = _isa(args.target)
    arch = DEFAULT_ARCH.scaled(args.scale) if args.scale > 1 else DEFAULT_ARCH
    if args.system == "chimera":
        from repro.core.rewriter import ChimeraRewriter

        result = ChimeraRewriter(arch=arch, mode=args.mode).rewrite(binary, profile)
        out, stats = result.binary, result.stats.as_dict()
    elif args.system == "safer":
        from repro.baselines.safer import SaferRewriter

        result = SaferRewriter(arch=arch, mode=args.mode).rewrite(binary, profile)
        out, stats = result.binary, result.stats.as_dict()
    elif args.system == "armore":
        from repro.baselines.armore import ArmoreRewriter

        result = ArmoreRewriter(arch=arch, mode=args.mode).rewrite(binary, profile)
        out, stats = result.binary, result.stats.as_dict()
    elif args.system == "strawman":
        from repro.baselines.strawman import rewrite_strawman

        result = rewrite_strawman(binary, profile, arch=arch, mode=args.mode)
        out, stats = result.binary, result.stats.as_dict()
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(f"unknown system {args.system!r}")
    save_binary(out, args.output)
    print(f"wrote {args.output}")
    for key, value in stats.items():
        if value:
            print(f"  {key}: {value}")
    return 0


def _report_run(args: argparse.Namespace, *, exit_code: int, cycles: int,
                instret: int, counters: dict, fault, output: bytes,
                workload: str | None = None,
                hot_blocks: list | None = None) -> int:
    """Shared run-result reporting: human text or --json; exit code
    semantics are identical in both modes (0 iff the guest succeeded)."""
    ok = exit_code == 0 and fault is None
    if getattr(args, "json", False):
        payload = {
            "exit_code": exit_code,
            "ok": ok,
            "cycles": cycles,
            "instret": instret,
            "counters": {k: v for k, v in counters.items() if v},
            "fault": str(fault) if fault is not None else None,
            "output": output.decode("utf-8", errors="replace"),
        }
        if workload is not None:
            payload["workload"] = workload
        if hot_blocks:
            payload["hot_blocks"] = [
                {"pc": f"{pc:#x}", "hits": hits} for pc, hits in hot_blocks]
        json.dump(payload, sys.stdout, indent=1)
        sys.stdout.write("\n")
    else:
        if output:
            sys.stdout.write(output.decode("utf-8", errors="replace"))
        print(f"exit={exit_code} cycles={cycles} "
              f"instret={instret}" + (f" fault={fault}" if fault else ""))
        interesting = {k: v for k, v in counters.items() if v}
        if interesting:
            print(f"counters: {interesting}")
        if hot_blocks:
            print(_hot_block_table(hot_blocks))
    return 0 if ok else 1


def _hot_block_table(hot_blocks: list) -> str:
    """Render the per-entry-pc hot-block histogram as an aligned table."""
    lines = ["hot blocks (entry pc, cached dispatches):"]
    for pc, hits in hot_blocks:
        lines.append(f"  {pc:>#12x}  {hits}")
    return "\n".join(lines)


def cmd_run(args: argparse.Namespace) -> int:
    if not os.path.exists(args.image):
        # Not an image file: treat it as a workload name and drive the
        # full traced pipeline (build -> rewrite -> execute -> probe).
        return _run_workload(args, args.image)
    binary = load_binary_file(args.image)
    profile = _isa(args.core)
    scope, telemetry = _telemetry_scope(args)
    with scope:
        kernel = Kernel(block_cache=not args.no_block_cache,
                        trace_cache=not args.no_trace_cache,
                        trace_threshold=args.trace_threshold)
        # Install whichever runtime the image's rewriting metadata calls for.
        if "chimera" in binary.metadata:
            from repro.core.runtime import ChimeraRuntime

            ChimeraRuntime(binary).install(kernel)
        if "safer" in binary.metadata:
            from repro.baselines.safer import SaferRuntime

            SaferRuntime(binary).install(kernel)
        if "multiverse" in binary.metadata:
            from repro.baselines.multiverse import MultiverseRuntime

            MultiverseRuntime(binary).install(kernel)
        if "armore" in binary.metadata:
            from repro.baselines.armore import ArmoreRuntime

            ArmoreRuntime(binary).install(kernel)
        proc = make_process(binary)
        result = kernel.run(proc, Core(0, profile),
                            max_instructions=args.max_instructions)
    if telemetry is not None:
        _write_telemetry(telemetry, args.telemetry_out)
    return _report_run(
        args, exit_code=result.exit_code, cycles=result.cycles,
        instret=result.instret, counters=result.counters,
        fault=result.fault, output=result.output)


def _run_workload(args: argparse.Namespace, name: str) -> int:
    from repro.telemetry.pipeline import run_traced_workload

    try:
        run = run_traced_workload(
            name,
            target=args.core if args.core in ("rv64gc", "rv64gcv") else "rv64gc",
            max_instructions=args.max_instructions,
            jobs=args.jobs,
            cache_dir=_open_cache(args.rewrite_cache, args.cache_shards,
                                  args.cache_max_mb),
            executor=args.executor,
            hot_blocks=getattr(args, "hot_blocks", 0),
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    outdir = getattr(args, "telemetry_out", None)
    if outdir:
        _write_telemetry(run.telemetry, outdir)
    return _report_run(
        args, exit_code=run.exit_code, cycles=run.cycles,
        instret=run.instret, counters=run.counters,
        fault=run.fault, output=run.output, workload=name,
        hot_blocks=run.hot_blocks)


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.telemetry.pipeline import run_traced_workload, verify_four_layers

    try:
        run = run_traced_workload(
            name=args.workload, variant=args.variant, scale=args.scale,
            target=args.target, max_instructions=args.max_instructions,
            hot_blocks=args.hot_blocks)
    except ValueError as exc:
        raise SystemExit(str(exc))
    if getattr(args, "json", False):
        return _report_run(
            args, exit_code=run.exit_code, cycles=run.cycles,
            instret=run.instret, counters=run.counters,
            fault=run.fault, output=run.output, workload=args.workload,
            hot_blocks=run.hot_blocks)
    _write_telemetry(run.telemetry, args.output)
    metrics = run.telemetry.metrics
    spans = run.telemetry.tracer.completed
    print(f"workload={args.workload} exit={run.exit_code} "
          f"cycles={run.cycles} instret={run.instret}")
    print(f"telemetry: {len(spans)} spans, {len(metrics)} metric series")
    if run.hot_blocks:
        print(_hot_block_table(run.hot_blocks))
    missing = verify_four_layers(metrics)
    if missing:
        print(f"WARNING: layers without data: {', '.join(missing)}")
    return 0 if run.ok else 1


def _resolve_workload(name: str, *, variant: str = "ext", scale: int = 128):
    """Build a workload binary by kernel name or synthetic-profile name."""
    from repro.telemetry.pipeline import resolve_workload

    try:
        return resolve_workload(name, variant=variant, scale=scale)
    except ValueError as exc:
        raise SystemExit(str(exc))


def cmd_verify(args: argparse.Namespace) -> int:
    from repro.core.pipeline import rewrite_and_verify
    from repro.resilience.seeds import replay_hint, resolve_seed

    seed = resolve_seed(args.seed)
    original = _resolve_workload(args.workload, scale=args.scale)
    target = _isa(args.target)
    scope, telemetry = _telemetry_scope(args)
    with scope:
        extra = {}
        if args.region_timeout is not None:
            extra["region_timeout"] = args.region_timeout
        pipe = rewrite_and_verify(
            original, target, seed=seed,
            oracle_trials=args.oracle_trials,
            max_oracle_regions=args.max_oracle_regions,
            jobs=args.jobs,
            cache_dir=_open_cache(args.rewrite_cache, args.cache_shards,
                                  args.cache_max_mb),
            executor=args.executor,
            resume=not args.no_resume,
            **extra,
        )
        report = pipe.report
        escapes = 0
        if args.sweep_check:
            from repro.chaos.harness import SWEEP_MODES, sweep_binary
            from repro.chaos.outcomes import ADMISSION_ESCAPE

            for mode in SWEEP_MODES:
                sweep = sweep_binary(original, mode=mode, target=target,
                                     jobs=args.jobs)
                escapes += sum(1 for r in sweep.results
                               if r.outcome == ADMISSION_ESCAPE)
                print(sweep.summary())
    if telemetry is not None:
        _write_telemetry(telemetry, args.telemetry_out)
    if pipe.cache_hit:
        print("verify: rewrite-cache hit (translation + verification skipped)",
              file=sys.stderr)
    print(report.summary())
    if args.report:
        report.write_json(args.report)
        print(f"verify: wrote {args.report}", file=sys.stderr)
    if args.sweep_check:
        print(f"sweep cross-check: {escapes} admission escape(s)")
    if not report.ok or escapes:
        print(f"seed: {seed} — {replay_hint(seed)}")
        return 1
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.chaos import run_chaos
    from repro.resilience.seeds import replay_hint, resolve_seed

    seed = resolve_seed(args.seed)
    binary = _resolve_workload(args.workload, scale=args.scale)
    if getattr(args, "service", False):
        from repro.chaos import run_service_chaos

        scope, telemetry = _telemetry_scope(args)
        with scope:
            report = run_service_chaos(
                binary, target=_isa(args.target), jobs=args.jobs,
                seed=seed)
        if telemetry is not None:
            _write_telemetry(telemetry, args.telemetry_out)
        for scenario in report.scenarios:
            status = "PASS" if scenario.passed else "FAIL"
            print(f"{status} {scenario.name}: {scenario.detail}")
        if not report.ok:
            print(f"seed: {seed} — {replay_hint(seed)}")
            return 1
        return 0
    if args.pipeline:
        from repro.chaos import run_pipeline_chaos

        scope, telemetry = _telemetry_scope(args)
        with scope:
            report = run_pipeline_chaos(
                binary, target=_isa(args.target), jobs=args.jobs,
                seed=seed, executor=args.executor or "process")
        if telemetry is not None:
            _write_telemetry(telemetry, args.telemetry_out)
        for scenario in report.scenarios:
            status = "PASS" if scenario.passed else "FAIL"
            print(f"{status} {scenario.name}: {scenario.detail}")
        if not report.ok:
            print(f"seed: {seed} — {replay_hint(seed)}")
            return 1
        return 0
    scope, telemetry = _telemetry_scope(args)
    with scope:
        report = run_chaos(
            binary,
            target=_isa(args.target),
            max_regions=args.max_regions,
            scenarios=not args.no_scenarios,
            seed=seed,
            jobs=args.jobs,
        )
    if telemetry is not None:
        _write_telemetry(telemetry, args.telemetry_out)
    if args.verbose:
        for sweep in report.sweeps:
            print(f"-- {sweep.mode} sweep --")
            for result in sweep.results:
                print(f"  {result}")
    print(report.summary())
    if not report.ok:
        print(f"seed: {seed} — {replay_hint(seed)}")
        return 1
    return 0


def cmd_resilience(args: argparse.Namespace) -> int:
    from repro.resilience.scenarios import run_all, run_scenario
    from repro.resilience.seeds import replay_hint, resolve_seed

    seed = resolve_seed(args.seed)
    scope, telemetry = _telemetry_scope(args)
    with scope:
        if args.scenario == "all":
            results = run_all(seed)
        else:
            try:
                results = [run_scenario(args.scenario, seed=seed)]
            except ValueError as exc:
                raise SystemExit(str(exc))
    if telemetry is not None:
        _write_telemetry(telemetry, args.telemetry_out)
    for result in results:
        print(result)
    failed = [r for r in results if not r.passed]
    print(f"resilience verdict: {'PASS' if not failed else 'FAIL'} "
          f"({len(results) - len(failed)}/{len(results)} scenarios)")
    if failed:
        print(f"seed: {seed} — {replay_hint(seed)}")
        return 1
    return 0


def cmd_profiles(args: argparse.Namespace) -> int:
    from repro.workloads.programs import ALL_WORKLOADS
    from repro.workloads.spec_profiles import PROFILES

    print("kernel workloads (use with build <name> --variant base|ext):")
    for name in sorted(ALL_WORKLOADS):
        print(f"  {name}")
    print("\nsynthetic benchmark profiles (use with build <name> --scale N):")
    for name, p in sorted(PROFILES.items()):
        print(f"  {name:14s} {p.code_size_mb:6.2f} MB  ext {p.ext_inst_pct:.2f}%  ({p.suite})")
    return 0


def _service_address(args: argparse.Namespace) -> str:
    if getattr(args, "socket", None):
        return f"unix:{args.socket}"
    if getattr(args, "address", None):
        return args.address
    raise SystemExit("need --socket PATH or --address tcp:HOST:PORT")


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.server import serve

    if not args.socket and args.port is None:
        raise SystemExit("serve needs --socket PATH or --port N")
    layout = _open_cache(args.cache, args.cache_shards, args.cache_max_mb)
    scope, telemetry = _telemetry_scope(args)

    def ready(address: str) -> None:
        print(f"serve: listening on {address} "
              f"(shards={layout.shards}, workers={args.jobs or os.cpu_count()})",
              file=sys.stderr, flush=True)

    with scope:
        try:
            stats = asyncio.run(serve(
                layout,
                socket_path=args.socket,
                host=args.host, port=args.port,
                jobs=args.jobs,
                executor=args.executor,
                oracle_trials=args.oracle_trials,
                region_timeout=args.region_timeout,
                max_inflight=args.max_inflight,
                max_queue=args.max_queue,
                idle_timeout=args.idle_timeout or None,
                ready=ready,
            ))
        except KeyboardInterrupt:
            print("serve: interrupted", file=sys.stderr)
            return 130
    if telemetry is not None:
        _write_telemetry(telemetry, args.telemetry_out)
    json.dump(stats.as_dict(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    from repro.service import client

    address = _service_address(args)
    if args.wait:
        if not client.wait_for_server(address, timeout=args.wait):
            print(f"submit: no server at {address} after {args.wait}s",
                  file=sys.stderr)
            return 1
    if args.stats:
        reply = client.server_stats(address)
        json.dump(reply, sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
    status = 0
    if args.sources:
        on_event = None
        if args.verbose:
            def on_event(event):  # noqa: E306
                if event.get("event") == "progress":
                    print(f"  [{event.get('id')}] {event.get('stage')}",
                          file=sys.stderr)
        result = client.run_campaign(
            address, args.sources,
            concurrency=args.concurrency,
            out_dir=args.out,
            on_event=on_event,
            repeat=args.repeat,
            target=args.target, variant=args.variant, scale=args.scale,
            seed=args.seed, oracle_trials=args.oracle_trials,
            deadline_ms=args.deadline_ms,
        )
        for record in result.records:
            if record.get("status") == "ok":
                verdict = "ok" if record.get("verify_ok") else "VERIFY-FAIL"
                print(f"{record['id']}: {verdict} cache={record.get('cache')} "
                      f"key={str(record.get('key'))[:12]} "
                      f"{record.get('seconds', 0):.3f}s")
            else:
                fault = record.get("fault") or {}
                print(f"{record['id']}: FAILED {fault.get('fault')}: "
                      f"{fault.get('detail')}")
        print(f"campaign: {result.succeeded}/{len(result.records)} ok "
              f"in {result.seconds:.3f}s, by_cache={result.by_cache}")
        if result.manifest_path:
            print(f"campaign: wrote {result.manifest_path}", file=sys.stderr)
        status = 0 if result.ok else 1
    if args.shutdown:
        client.shutdown_server(address)
        print("submit: server shut down", file=sys.stderr)
    if not args.sources and not args.stats and not args.shutdown:
        raise SystemExit("submit: nothing to do "
                         "(give sources, --stats, or --shutdown)")
    return status


def cmd_cache(args: argparse.Namespace) -> int:
    from repro.core.pipeline import cache_gc, cache_stats

    layout = _open_cache(args.cache, max_mb=args.cache_max_mb, create=False)
    if args.action == "stats":
        payload = cache_stats(layout)
    else:
        extra = {}
        if args.ttl is not None:
            extra["ttl"] = args.ttl
        payload = cache_gc(layout, **extra)
    json.dump(payload, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Chimera reproduction: ISAX heterogeneous computing via binary rewriting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a workload to a .self image")
    p.add_argument("workload")
    p.add_argument("--variant", choices=("base", "ext"), default="ext")
    p.add_argument("--scale", type=int, default=128, help="synthetic-profile code-size divisor")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("disasm", help="disassemble an image")
    p.add_argument("image")
    p.add_argument("--section", default=".text")
    p.set_defaults(fn=cmd_disasm)

    p = sub.add_parser("rewrite", help="rewrite an image for a target profile")
    p.add_argument("image")
    p.add_argument("--system", choices=("chimera", "safer", "armore", "strawman"),
                   default="chimera")
    p.add_argument("--target", default="rv64gc")
    p.add_argument("--mode", choices=("full", "empty"), default="full")
    p.add_argument("--scale", type=int, default=1, help="ArchParams scale divisor")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_rewrite)

    p = sub.add_parser("run", help="execute an image (or workload name) on a simulated core")
    p.add_argument("image",
                   help=".self image path, or a workload/profile name to "
                        "drive through the full traced pipeline")
    p.add_argument("--core", default="rv64gcv")
    p.add_argument("--max-instructions", type=int, default=50_000_000)
    p.add_argument("--json", action="store_true",
                   help="emit the run result as JSON (same exit-code semantics)")
    p.add_argument("--hot-blocks", type=int, default=0, metavar="N",
                   help="report the N hottest block-cache entry pcs "
                        "(workload runs only; adds a profiling pass)")
    p.add_argument("--telemetry-out", metavar="DIR", default=None,
                   help="write trace.json + metrics.json into DIR")
    _add_perf_flags(p)
    _add_rewrite_cache_flags(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser(
        "trace",
        help="run one workload through the instrumented build->rewrite->"
             "execute->schedule pipeline and dump trace.json + metrics.json")
    p.add_argument("workload", help="kernel workload or synthetic-profile name")
    p.add_argument("--variant", choices=("base", "ext"), default="ext")
    p.add_argument("--scale", type=int, default=128,
                   help="synthetic-profile code-size divisor")
    p.add_argument("--target", default="rv64gc",
                   help="base-core profile the rewrite targets")
    p.add_argument("--max-instructions", type=int, default=50_000_000)
    p.add_argument("--hot-blocks", type=int, default=0, metavar="N",
                   help="also profile and print the N hottest block-cache "
                        "entry pcs (trace-threshold tuning aid)")
    p.add_argument("--json", action="store_true",
                   help="emit the run result (and any --hot-blocks "
                        "histogram) as JSON instead of writing telemetry")
    p.add_argument("-o", "--output", metavar="DIR", default="telemetry-out",
                   help="directory for trace.json + metrics.json")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("profiles", help="list workloads and benchmark profiles")
    p.set_defaults(fn=cmd_profiles)

    p = sub.add_parser(
        "verify",
        help="static admission gate: verify every patched region of a "
             "rewrite before release")
    p.add_argument("workload", help="kernel workload or synthetic-profile name")
    p.add_argument("--target", default="rv64gc", help="base core the rewrite targets")
    p.add_argument("--scale", type=int, default=128, help="synthetic-profile code-size divisor")
    p.add_argument("--seed", type=int, default=None,
                   help="oracle randomization seed (default: $REPRO_FUZZ_SEED, else 0)")
    p.add_argument("--oracle-trials", type=int, default=2,
                   help="differential-oracle trials per region")
    p.add_argument("--max-oracle-regions", type=int, default=0,
                   help="cap oracle-checked regions (0 = all; skips are reported)")
    p.add_argument("--report", metavar="FILE", default=None,
                   help="write the full verifier report as JSON")
    p.add_argument("--sweep-check", action="store_true",
                   help="also run the chaos sweeps and fail on any "
                        "admission-escape in a verified region")
    p.add_argument("--no-resume", action="store_true",
                   help="ignore any journalled verdicts from an interrupted "
                        "run of the same release (requires --rewrite-cache "
                        "to matter; a fresh run re-verifies every region)")
    p.add_argument("--telemetry-out", metavar="DIR", default=None,
                   help="write trace.json + metrics.json into DIR")
    _add_perf_flags(p)
    _add_rewrite_cache_flags(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("chaos", help="adversarial fault-injection sweep + scenarios")
    p.add_argument("workload", help="kernel workload or synthetic-profile name")
    p.add_argument("--target", default="rv64gc", help="base core the rewrite targets")
    p.add_argument("--scale", type=int, default=128, help="synthetic-profile code-size divisor")
    p.add_argument("--max-regions", type=int, default=0,
                   help="cap attacked regions per sweep (0 = exhaustive; skips are reported)")
    p.add_argument("--no-scenarios", action="store_true",
                   help="sweep only; skip the runtime-corruption injector scenarios")
    p.add_argument("--pipeline", action="store_true",
                   help="run the pipeline failure-injection scenarios instead "
                        "(worker kills, oracle hangs, torn cache writes, "
                        "truncated journals) and fail unless every one ends "
                        "in a completed run with a correct ledger")
    p.add_argument("--service", action="store_true",
                   help="run the batch-service chaos scenarios instead "
                        "(server SIGKILL mid-batch + resume, overload "
                        "flood + shedding, slow-loris eviction, deadline "
                        "storm, connection reset mid-stream) and fail "
                        "unless every client record resolves structurally")
    p.add_argument("--seed", type=int, default=None,
                   help="failure-injection seed (default: $REPRO_FUZZ_SEED, else 0)")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="print every attack result, not just the summary")
    p.add_argument("--telemetry-out", metavar="DIR", default=None,
                   help="write trace.json + metrics.json into DIR")
    _add_perf_flags(p)
    p.set_defaults(fn=cmd_chaos)

    p = sub.add_parser(
        "resilience",
        help="core-failure scenarios: kills, flakes, lost migrations, "
             "corrupt checkpoints, full extension-pool loss")
    p.add_argument("scenario",
                   help="scenario name (see repro.resilience.scenarios) or 'all'")
    p.add_argument("--seed", type=int, default=None,
                   help="failure-injection seed (default: $REPRO_FUZZ_SEED, else 0)")
    p.add_argument("--telemetry-out", metavar="DIR", default=None,
                   help="write trace.json + metrics.json into DIR")
    _add_perf_flags(p)
    p.set_defaults(fn=cmd_resilience)

    p = sub.add_parser(
        "serve",
        help="batch translation service: accept rewrite jobs over a local "
             "socket, dedup through the sharded cache, stream ledgers")
    p.add_argument("--cache", required=True, metavar="DIR",
                   help="rewrite-cache root the service shards and serves")
    p.add_argument("--socket", metavar="PATH", default=None,
                   help="listen on a unix socket at PATH")
    p.add_argument("--host", default="127.0.0.1",
                   help="TCP bind host (localhost only by design)")
    p.add_argument("--port", type=int, default=None,
                   help="listen on TCP (0 = ephemeral; address is printed)")
    p.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="machine-wide verification-worker budget shared "
                        "fairly across concurrent jobs (default: CPU count)")
    p.add_argument("--executor", choices=EXECUTORS, default=None,
                   help="per-job verification executor (default: auto)")
    p.add_argument("--oracle-trials", type=int, default=None,
                   help="pin every job's oracle trials server-side "
                        "(one fleet, one policy, one cache key)")
    p.add_argument("--region-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="wall-clock watchdog per region (process executor)")
    p.add_argument("--max-inflight", type=int, default=None, metavar="N",
                   help="bounded admission: at most N leader runs execute "
                        "concurrently; past N + --max-queue, new jobs are "
                        "shed with a job-overloaded fault carrying a "
                        "retry_after_ms hint (default: unbounded)")
    p.add_argument("--max-queue", type=int, default=0, metavar="N",
                   help="admitted leaders allowed to wait for a slot "
                        "before shedding starts (with --max-inflight)")
    p.add_argument("--idle-timeout", type=float, default=120.0,
                   metavar="SECONDS",
                   help="evict a connection with no outstanding jobs that "
                        "stays silent (or stalls mid-frame) this long — "
                        "the slow-loris defense (0 disables; default 120)")
    p.add_argument("--telemetry-out", metavar="DIR", default=None,
                   help="write trace.json + metrics.json into DIR at shutdown")
    _add_trace_flags(p)
    _add_cache_flags(p)
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "submit",
        help="fleet client: fan binaries/workloads at a running server, "
             "collect ledgers + a campaign manifest")
    p.add_argument("sources", nargs="*",
                   help="workload names, .self files, or directories of "
                        ".self files")
    p.add_argument("--socket", metavar="PATH", default=None,
                   help="server unix socket")
    p.add_argument("--address", metavar="ADDR", default=None,
                   help="server address (unix:PATH or tcp:HOST:PORT)")
    p.add_argument("--out", metavar="DIR", default=None,
                   help="write per-job ledgers and campaign.json into DIR")
    p.add_argument("--concurrency", type=int, default=4, metavar="N",
                   help="client-side in-flight job bound")
    p.add_argument("--repeat", type=int, default=1, metavar="N",
                   help="submit the batch N times (dedup smoke lever)")
    p.add_argument("--wait", type=float, default=None, metavar="SECONDS",
                   help="wait up to SECONDS for the server to answer ping")
    p.add_argument("--target", default="rv64gc")
    p.add_argument("--variant", choices=("base", "ext"), default="ext")
    p.add_argument("--scale", type=int, default=128,
                   help="synthetic-profile code-size divisor")
    p.add_argument("--seed", type=int, default=None,
                   help="oracle randomization seed sent with every job")
    p.add_argument("--oracle-trials", type=int, default=2,
                   help="differential-oracle trials per region")
    p.add_argument("--deadline-ms", type=int, default=None, metavar="MS",
                   help="end-to-end budget per job: the server kills an "
                        "expired job as a job-deadline-exceeded fault, "
                        "and the client stops retrying past it")
    p.add_argument("--stats", action="store_true",
                   help="print the server's counters snapshot")
    p.add_argument("--shutdown", action="store_true",
                   help="gracefully stop the server (after any campaign)")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="stream per-job progress events to stderr")
    p.set_defaults(fn=cmd_submit)

    p = sub.add_parser(
        "cache",
        help="rewrite-cache admin: per-shard stats, orphan GC, LRU eviction")
    p.add_argument("action", choices=("stats", "gc"))
    p.add_argument("--cache", required=True, metavar="DIR",
                   help="rewrite-cache root; its shard count is read from "
                        "the layout record written when it was created")
    p.add_argument("--ttl", type=float, default=None, metavar="SECONDS",
                   help="gc: age before a temp/journal orphan is swept "
                        "(default: 1 hour)")
    _add_cache_flags(p, new_cache=False)
    p.set_defaults(fn=cmd_cache)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    from repro.sim import machine

    # --no-block-cache / --no-trace-cache / --trace-threshold must reach
    # kernels created arbitrarily deep in a command (chaos scenarios,
    # resilience schedulers, the oracle, pooled verification workers), so
    # they flip the process-wide defaults for the duration of the command.
    prev_default = machine.BLOCK_CACHE_DEFAULT
    prev_trace = machine.TRACE_CACHE_DEFAULT
    prev_threshold = machine.TRACE_THRESHOLD_DEFAULT
    if getattr(args, "no_block_cache", False):
        machine.BLOCK_CACHE_DEFAULT = False
    if getattr(args, "no_trace_cache", False):
        machine.TRACE_CACHE_DEFAULT = False
    if getattr(args, "trace_threshold", None) is not None:
        machine.TRACE_THRESHOLD_DEFAULT = args.trace_threshold
    try:
        return args.fn(args)
    except BrokenPipeError:  # e.g. `repro disasm ... | head`
        return 0
    finally:
        machine.BLOCK_CACHE_DEFAULT = prev_default
        machine.TRACE_CACHE_DEFAULT = prev_trace
        machine.TRACE_THRESHOLD_DEFAULT = prev_threshold


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
