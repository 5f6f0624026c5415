"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])


class TestTopology:
    def test_default(self, capsys):
        code, out = run(capsys, "topology", "--n", "32")
        assert code == 0
        assert "total wires" in out
        assert "cap(c)" in out

    def test_skinny_tree_reports_volume(self, capsys):
        _, out = run(capsys, "topology", "--n", "64", "--w", "16")
        assert "volume (Thm 4)" in out

    def test_sub_universal_w_handled(self, capsys):
        _, out = run(capsys, "topology", "--n", "4096", "--w", "64")
        assert "n/a" in out


class TestSchedule:
    def test_random_traffic(self, capsys):
        code, out = run(
            capsys, "schedule", "--n", "32", "--traffic", "random",
            "--messages", "100",
        )
        assert code == 0
        assert "Theorem 1" in out
        assert "λ(M)" in out

    def test_narrow_tree_omits_corollary2(self, capsys):
        _, out = run(
            capsys, "schedule", "--n", "64", "--w", "16",
            "--traffic", "permutation",
        )
        assert "Corollary 2" not in out

    @pytest.mark.parametrize(
        "traffic", ["random", "permutation", "bit-reversal", "hotspot", "local"]
    )
    def test_all_traffic_kinds(self, capsys, traffic):
        code, _ = run(
            capsys, "schedule", "--n", "32", "--traffic", traffic,
            "--messages", "64",
        )
        assert code == 0


class TestBatch:
    def test_default_greedy(self, capsys):
        code, out = run(
            capsys, "batch", "--n", "32", "--batch", "4", "--messages", "16"
        )
        assert code == 0
        assert "batched greedy" in out
        assert "msg/s" in out

    def test_random_rank_large_batch_truncates_table(self, capsys):
        code, out = run(
            capsys, "batch", "--n", "32", "--batch", "12",
            "--messages", "8", "--kernel", "random_rank",
        )
        assert code == 0
        assert "first 8 of 12 sets" in out


class TestSimulate:
    @pytest.mark.parametrize(
        "network", ["mesh", "hypercube", "shuffle", "tree", "torus"]
    )
    def test_networks(self, capsys, network):
        code, out = run(capsys, "simulate", "--n", "64", "--network", network)
        assert code == 0
        assert "slowdown" in out


class TestHardware:
    def test_ideal(self, capsys):
        code, out = run(
            capsys, "hardware", "--n", "32", "--traffic", "random",
            "--messages", "80",
        )
        assert code == 0
        assert "delivered" in out

    def test_pippenger(self, capsys):
        code, out = run(
            capsys, "hardware", "--n", "32", "--traffic", "hotspot",
            "--messages", "60", "--concentrators", "pippenger",
        )
        assert code == 0
        assert "pippenger concentrators" in out


class TestFaults:
    def test_pristine_run(self, capsys):
        code, out = run(capsys, "faults", "--n", "32", "--messages", "64")
        assert code == 0
        assert "100.0% of wires survive" in out
        assert "retry/backoff delivery" in out

    def test_kill_wires_shows_degradation(self, capsys):
        code, out = run(
            capsys, "faults", "--n", "64", "--w", "16",
            "--kill-wires", "0.25", "--messages", "128",
        )
        assert code == 0
        assert "degraded fat-tree" in out
        assert "min eff" in out
        assert "λ(M)" in out

    def test_kill_switch_reports_unroutable(self, capsys):
        code, out = run(
            capsys, "faults", "--n", "64", "--kill-switch", "2:1",
            "--messages", "100",
        )
        assert code == 0
        assert "dead channels" in out
        assert "unroutable" in out

    def test_loss_rate_prints_histogram(self, capsys):
        code, out = run(
            capsys, "faults", "--n", "32", "--loss-rate", "0.2",
            "--messages", "64",
        )
        assert code == 0
        assert "attempts" in out

    def test_max_cycles_timeout_exit_code(self, capsys):
        code = main(
            [
                "faults", "--n", "32", "--loss-rate", "0.5",
                "--messages", "128", "--max-cycles", "2",
            ]
        )
        assert code == 3

    def test_bad_switch_spec_rejected(self):
        with pytest.raises(SystemExit):
            main(["faults", "--n", "32", "--kill-switch", "nonsense"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["faults", "--n", "32", "--kill-wires", "1.5"],
            ["faults", "--n", "32", "--kill-switch", "9:0"],
            ["faults", "--n", "32", "--loss-rate", "1.0"],
        ],
    )
    def test_invalid_scenario_exit_code(self, capsys, argv):
        assert main(argv) == 2
        assert "invalid fault scenario" in capsys.readouterr().err


class TestTrace:
    def test_quick_summary(self, capsys):
        code, out = run(capsys, "trace", "--quick")
        assert code == 0
        assert "delivery cycles" in out
        assert "channel utilisation" in out
        assert "kernel timings" in out

    @pytest.mark.parametrize(
        "scheduler",
        ["random-rank", "theorem1", "greedy", "online-retry", "switchsim", "buffered"],
    )
    def test_every_scheduler_runs(self, capsys, scheduler):
        code, out = run(capsys, "trace", "--quick", "--scheduler", scheduler)
        assert code == 0
        assert scheduler in out

    def test_jsonl_to_stdout_parses(self, capsys):
        from repro.obs import Tracer

        code, out = run(capsys, "trace", "--quick", "--jsonl", "-")
        assert code == 0
        events = Tracer.from_jsonl(out)
        types = {e["type"] for e in events}
        assert {"cycle", "kernel_enter", "kernel_exit", "cache"} <= types

    def test_jsonl_to_file_roundtrips(self, capsys, tmp_path):
        from repro.obs import Tracer

        path = tmp_path / "trace.jsonl"
        code, out = run(capsys, "trace", "--quick", "--jsonl", str(path))
        assert code == 0
        assert "wrote" in out
        events = Tracer.read_jsonl(path)
        delivered = sum(
            e["delivered"] for e in events if e["type"] == "cycle"
        )
        assert delivered > 0

    def test_unroutable_exits_3_with_one_line_error(self, capsys):
        code = main(["trace", "--quick", "--kill-switch", "0:0"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error:")
        assert "cannot be routed" in err
        assert "Traceback" not in err

    def test_timeout_exits_3_with_one_line_error(self, capsys):
        code = main(
            ["trace", "--quick", "--loss-rate", "0.9", "--max-cycles", "5"]
        )
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_online_retry_honours_max_cycles(self, capsys):
        code = main(
            [
                "trace", "--quick", "--scheduler", "online-retry",
                "--traffic", "hotspot", "--max-cycles", "2",
            ]
        )
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error:")
        assert "after 2 delivery cycles" in err
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_buffered_step_budget_is_a_one_line_error(self, capsys, monkeypatch):
        """A store-and-forward run past its step budget is a structured
        DeliveryTimeout: exit 3 with one ``error:`` line, no traceback."""
        import functools

        import repro.hardware

        monkeypatch.setattr(
            repro.hardware,
            "run_store_and_forward",
            functools.partial(repro.hardware.run_store_and_forward, max_steps=2),
        )
        code = main(["trace", "--quick", "--scheduler", "buffered"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error:")
        assert "after 2 delivery cycles" in err
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_invalid_scenario_exits_2(self, capsys):
        assert main(["trace", "--quick", "--kill-wires", "2.0"]) == 2
        assert "invalid fault scenario" in capsys.readouterr().err

    def test_degraded_trace_runs(self, capsys):
        code, out = run(
            capsys, "trace", "--quick", "--kill-wires", "0.25",
            "--traffic", "permutation",
        )
        assert code == 0
        assert "delivery cycles" in out


class TestFuzz:
    def test_smoke_run_passes(self, capsys):
        code, out = run(
            capsys, "fuzz", "--iters", "5", "--seed", "0", "--corpus", "",
        )
        assert code == 0
        assert "ok:" in out
        assert "5 generated" in out

    def test_replays_checked_in_corpus(self, capsys):
        code, out = run(capsys, "fuzz", "--iters", "2", "--seed", "1")
        assert code == 0
        assert "corpus" in out

    def test_missing_corpus_noted_on_stderr(self, capsys):
        code = main(
            ["fuzz", "--iters", "2", "--corpus", "does/not/exist.jsonl"]
        )
        err = capsys.readouterr().err
        assert code == 0
        assert "not found" in err

    def test_family_table_printed(self, capsys):
        _, out = run(capsys, "fuzz", "--iters", "12", "--corpus", "")
        assert "generator" in out
        assert "cases" in out

    def test_malformed_corpus_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "corpus.jsonl"
        bad.write_text("not json\n")
        code = main(["fuzz", "--iters", "1", "--corpus", str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert "invalid corpus" in err
        assert ":1:" in err  # names the offending line

    def test_failure_exits_3_with_reproducer(self, capsys, monkeypatch):
        from repro.verify import ConformanceError, FuzzCase
        from repro.verify.oracle import DifferentialOracle

        def always_fail(self, case):
            raise ConformanceError(case, ["injected failure"])

        monkeypatch.setattr(DifferentialOracle, "check", always_fail)
        code = main(["fuzz", "--iters", "1", "--corpus", ""])
        captured = capsys.readouterr()
        assert code == 3
        assert "error: corpus line:" in captured.err
        assert "injected failure" in captured.err
        # the reproducer line on stderr parses back into the case
        line = [
            l for l in captured.err.splitlines() if "corpus line:" in l
        ][0]
        FuzzCase.from_json(line.split("corpus line:", 1)[1].strip())
        assert "DifferentialOracle" in captured.err  # paste-able snippet

