"""CLI exit codes: failures must be visible to shells and CI, not just
printed — ``run``/``chaos``/``resilience`` return nonzero on failure.
``run --json`` must keep the same semantics while emitting machine-
readable output."""

import json

import pytest

import repro.chaos
import repro.resilience.scenarios
from repro.chaos.outcomes import ChaosReport, ScenarioResult, SweepReport
from repro.cli import main, make_parser
from repro.elf.builder import ProgramBuilder
from repro.elf.fileformat import save_binary
from repro.workloads.programs import FibonacciWorkload


def exit_image(tmp_path, code: int):
    b = ProgramBuilder(f"exit{code}")
    b.set_text(f"""
_start:
    li a0, {code}
    li a7, 93
    ecall
""")
    path = tmp_path / f"exit{code}.self"
    save_binary(b.build(), path)
    return str(path)


class TestRunExitCodes:
    def test_success_returns_zero(self, tmp_path):
        path = tmp_path / "ok.self"
        save_binary(FibonacciWorkload(iterations=20).build("base"), path)
        assert main(["run", str(path), "--core", "rv64gc"]) == 0

    def test_guest_failure_returns_nonzero(self, tmp_path):
        assert main(["run", exit_image(tmp_path, 1), "--core", "rv64gc"]) == 1

    def test_guest_success_exit_code_zero(self, tmp_path):
        assert main(["run", exit_image(tmp_path, 0), "--core", "rv64gc"]) == 0


class TestRunJsonMode:
    def test_success_emits_parseable_json(self, tmp_path, capsys):
        path = tmp_path / "ok.self"
        save_binary(FibonacciWorkload(iterations=20).build("base"), path)
        code = main(["run", str(path), "--core", "rv64gc", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["exit_code"] == 0 and payload["ok"] is True
        assert payload["cycles"] > 0 and payload["instret"] > 0
        assert payload["fault"] is None
        assert all(v for v in payload["counters"].values())

    def test_guest_failure_reflected_in_json_and_exit_code(self, tmp_path, capsys):
        code = main(["run", exit_image(tmp_path, 3), "--core", "rv64gc", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["exit_code"] == 3 and payload["ok"] is False

    def test_workload_name_run_includes_workload_field(self, capsys):
        code = main(["run", "dot", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["workload"] == "dot"

    def test_telemetry_out_writes_artifacts(self, tmp_path, capsys):
        outdir = tmp_path / "t"
        code = main(["run", "dot", "--json", "--telemetry-out", str(outdir)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0 and payload["ok"] is True
        assert (outdir / "trace.json").exists()
        assert (outdir / "metrics.json").exists()


class TestChaosExitCodes:
    def _report(self, ok: bool) -> ChaosReport:
        report = ChaosReport()
        report.sweeps = [SweepReport(binary="b", mode="smile")]
        report.scenarios = [ScenarioResult("stub", ok, "stub detail")]
        return report

    def test_failure_is_nonzero_and_prints_seed(self, monkeypatch, capsys):
        monkeypatch.setattr(repro.chaos, "run_chaos",
                            lambda *a, **k: self._report(False))
        code = main(["chaos", "matmul", "--seed", "77"])
        out = capsys.readouterr().out
        assert code == 1
        assert "77" in out and "REPRO_FUZZ_SEED" in out

    def test_success_is_zero(self, monkeypatch, capsys):
        monkeypatch.setattr(repro.chaos, "run_chaos",
                            lambda *a, **k: self._report(True))
        assert main(["chaos", "matmul"]) == 0
        assert "seed:" not in capsys.readouterr().out


class TestResilienceExitCodes:
    def test_failure_is_nonzero_and_prints_seed(self, monkeypatch, capsys):
        monkeypatch.setattr(
            repro.resilience.scenarios, "run_scenario",
            lambda name, seed=None: ScenarioResult(name, False, "boom"))
        code = main(["resilience", "ext-core-loss", "--seed", "13"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out and "13" in out

    def test_all_success_is_zero(self, monkeypatch, capsys):
        monkeypatch.setattr(
            repro.resilience.scenarios, "run_all",
            lambda seed=None: [ScenarioResult("stub", True, "fine")])
        assert main(["resilience", "all"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_unknown_scenario_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            main(["resilience", "not-a-scenario"])

    def test_real_single_scenario_round_trip(self):
        # No monkeypatching: the cheapest real scenario end-to-end.
        assert main(["resilience", "ext-core-loss", "--seed", "0"]) == 0


class TestVerifyExitCodes:
    def test_clean_workload_passes_and_writes_report(self, tmp_path, capsys):
        report = tmp_path / "verify.json"
        code = main(["verify", "dot", "--oracle-trials", "1",
                     "--report", str(report)])
        out = capsys.readouterr().out
        assert code == 0
        assert "admission verdict: PASS" in out
        assert json.loads(report.read_text())["ok"] is True

    def test_rejection_is_nonzero_and_prints_seed(self, monkeypatch, capsys):
        import repro.verify

        class FailReport:
            ok = False

            def summary(self):
                return "admission verdict: FAIL"

        monkeypatch.setattr(repro.verify, "verify_binary",
                            lambda *a, **k: FailReport())
        code = main(["verify", "dot", "--seed", "21"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out and "21" in out and "REPRO_FUZZ_SEED" in out


class TestRewriteCacheFlags:
    """chaos and resilience never rewrite through the cache, so they
    reject its flags; the commands that do use it keep theirs."""

    FLAGS = (["--rewrite-cache", "c"], ["--cache-shards", "4"],
             ["--cache-max-mb", "8"])

    @pytest.mark.parametrize("command", [["chaos", "dot"], ["resilience", "all"]])
    @pytest.mark.parametrize("flag", FLAGS)
    def test_chaos_and_resilience_reject_cache_flags(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            make_parser().parse_args(command + flag)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,expected", [
        (["run", "dot", "--rewrite-cache", "c", "--cache-shards", "4",
          "--cache-max-mb", "8"], ("c", 4, 8.0)),
        (["verify", "dot", "--rewrite-cache", "c", "--cache-shards", "4",
          "--cache-max-mb", "8"], ("c", 4, 8.0)),
        (["serve", "--cache", "c", "--cache-shards", "4", "--cache-max-mb", "8"],
         ("c", 4, 8.0)),
        (["cache", "stats", "--cache", "c", "--cache-max-mb", "8"], ("c", None, 8.0)),
    ])
    def test_cache_commands_keep_their_flags(self, argv, expected):
        args = make_parser().parse_args(argv)
        root = getattr(args, "rewrite_cache", None) or args.cache
        assert (root, getattr(args, "cache_shards", None), args.cache_max_mb) == expected


class TestPerfFlagExitCodes:
    """--jobs / --no-block-cache / --rewrite-cache keep the exit-code
    contract on every command that accepts them."""

    def test_run_image_no_block_cache_success(self, tmp_path):
        path = tmp_path / "ok.self"
        save_binary(FibonacciWorkload(iterations=20).build("base"), path)
        assert main(["run", str(path), "--core", "rv64gc",
                     "--no-block-cache"]) == 0

    def test_run_image_no_block_cache_failure(self, tmp_path):
        assert main(["run", exit_image(tmp_path, 1), "--core", "rv64gc",
                     "--no-block-cache"]) == 1

    def test_no_block_cache_restores_global_default(self, tmp_path):
        from repro.sim import machine

        assert machine.BLOCK_CACHE_DEFAULT is True
        main(["run", exit_image(tmp_path, 0), "--core", "rv64gc",
              "--no-block-cache"])
        assert machine.BLOCK_CACHE_DEFAULT is True

    def test_run_matches_interpreter_counters(self, tmp_path, capsys):
        path = tmp_path / "ok.self"
        save_binary(FibonacciWorkload(iterations=20).build("base"), path)
        main(["run", str(path), "--core", "rv64gc", "--json"])
        fast = json.loads(capsys.readouterr().out)
        main(["run", str(path), "--core", "rv64gc", "--json",
              "--no-block-cache"])
        slow = json.loads(capsys.readouterr().out)
        assert fast["instret"] == slow["instret"]
        assert fast["cycles"] == slow["cycles"]
        assert fast["counters"].get("block_cache_hits", 0) > 0
        assert slow["counters"].get("block_cache_hits", 0) == 0

    def test_verify_jobs_and_cache_success(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(["verify", "dot", "--oracle-trials", "1",
                     "--jobs", "2", "--rewrite-cache", str(cache)]) == 0
        capsys.readouterr()
        # Second invocation hits the cache and keeps the verdict.
        assert main(["verify", "dot", "--oracle-trials", "1",
                     "--jobs", "2", "--rewrite-cache", str(cache)]) == 0
        assert "rewrite-cache hit" in capsys.readouterr().err

    def test_verify_rejection_still_nonzero_with_jobs(self, monkeypatch):
        import repro.verify

        class FailReport:
            ok = False

            def summary(self):
                return "admission verdict: FAIL"

        monkeypatch.setattr(repro.verify, "verify_binary",
                            lambda *a, **k: FailReport())
        assert main(["verify", "dot", "--seed", "21", "--jobs", "4"]) == 1

    def test_chaos_accepts_perf_flags(self, monkeypatch, capsys):
        report = ChaosReport()
        report.sweeps = [SweepReport(binary="b", mode="smile")]
        report.scenarios = [ScenarioResult("stub", True, "fine")]
        monkeypatch.setattr(repro.chaos, "run_chaos",
                            lambda *a, **k: report)
        assert main(["chaos", "matmul", "--jobs", "2",
                     "--no-block-cache"]) == 0
        capsys.readouterr()

    def test_resilience_accepts_perf_flags(self, monkeypatch, capsys):
        monkeypatch.setattr(
            repro.resilience.scenarios, "run_all",
            lambda seed=None: [ScenarioResult("stub", True, "fine")])
        assert main(["resilience", "all", "--no-block-cache",
                     "--jobs", "2"]) == 0
        capsys.readouterr()


class TestTraceFlagExitCodes:
    """--no-trace-cache / --trace-threshold / --hot-blocks keep the
    exit-code contract and the bit-identity contract on ``run``."""

    def test_run_image_no_trace_cache_success(self, tmp_path):
        path = tmp_path / "ok.self"
        save_binary(FibonacciWorkload(iterations=20).build("base"), path)
        assert main(["run", str(path), "--core", "rv64gc",
                     "--no-trace-cache"]) == 0

    def test_run_image_no_trace_cache_failure(self, tmp_path):
        assert main(["run", exit_image(tmp_path, 1), "--core", "rv64gc",
                     "--no-trace-cache"]) == 1

    def test_trace_flags_restore_global_defaults(self, tmp_path):
        from repro.sim import machine

        assert machine.TRACE_CACHE_DEFAULT is True
        before = machine.TRACE_THRESHOLD_DEFAULT
        main(["run", exit_image(tmp_path, 0), "--core", "rv64gc",
              "--no-trace-cache", "--trace-threshold", "3"])
        assert machine.TRACE_CACHE_DEFAULT is True
        assert machine.TRACE_THRESHOLD_DEFAULT == before

    def test_trace_tier_is_bit_identical_via_cli(self, tmp_path, capsys):
        path = tmp_path / "ok.self"
        save_binary(FibonacciWorkload(iterations=40).build("base"), path)
        main(["run", str(path), "--core", "rv64gc", "--json",
              "--trace-threshold", "1"])
        fast = json.loads(capsys.readouterr().out)
        main(["run", str(path), "--core", "rv64gc", "--json",
              "--no-trace-cache"])
        slow = json.loads(capsys.readouterr().out)
        assert fast["instret"] == slow["instret"]
        assert fast["cycles"] == slow["cycles"]
        assert fast["counters"].get("trace_cache_hits", 0) > 0
        assert slow["counters"].get("trace_cache_hits", 0) == 0
        assert slow["counters"].get("trace_instret", 0) == 0

    def test_run_workload_hot_blocks_json(self, capsys):
        code = main(["run", "dot", "--json", "--hot-blocks", "4"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        hot = payload.get("hot_blocks", [])
        assert 0 < len(hot) <= 4
        for entry in hot:
            assert entry["pc"].startswith("0x") and entry["hits"] > 0
        hits = [entry["hits"] for entry in hot]
        assert hits == sorted(hits, reverse=True)

    def test_trace_command_hot_blocks_json(self, capsys):
        code = main(["trace", "dot", "--json", "--hot-blocks", "3"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["workload"] == "dot"
        assert 0 < len(payload.get("hot_blocks", [])) <= 3

    def test_serve_parser_accepts_trace_flags(self, tmp_path):
        from repro.cli import make_parser

        args = make_parser().parse_args(
            ["serve", "--cache", str(tmp_path), "--no-trace-cache",
             "--trace-threshold", "5"])
        assert args.no_trace_cache is True
        assert args.trace_threshold == 5
