"""Command-line interface."""

import os

import pytest

from repro.cli import build_parser, main
from repro.experiments import parallel
from repro.noc import activity


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_all_defaults(self):
        args = build_parser().parse_args(["run-all"])
        assert args.scale == "bench"
        assert args.seed == 1

    def test_experiment_subcommands_exist(self):
        for name in ("fig1", "fig8", "fig14", "area", "table1"):
            args = build_parser().parse_args([name, "--scale", "smoke"])
            assert args.command == name

    def test_simulate_options(self):
        args = build_parser().parse_args(
            ["simulate", "--design", "NoRD", "--traffic", "bitcomp",
             "--rate", "0.25", "--width", "8", "--height", "8"])
        assert args.design == "NoRD"
        assert args.rate == 0.25

    def test_rejects_bad_design(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--design", "MagicPG"])

    def test_resilience_knobs(self):
        args = build_parser().parse_args(
            ["run-all", "--timeout", "120", "--retries", "2", "--partial"])
        assert args.timeout == 120.0
        assert args.retries == 2
        assert args.partial is True

    def test_resilience_knob_defaults(self):
        args = build_parser().parse_args(["run-all"])
        assert args.timeout is None
        assert args.retries == 0
        assert args.partial is False

    def test_rejects_negative_retries(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run-all", "--retries", "-1"])

    def test_simulate_fault_flags(self):
        args = build_parser().parse_args(
            ["simulate", "--fail-router", "5", "--fail-cycle", "100",
             "--corrupt-rate", "0.002", "--retransmit"])
        assert args.fail_router == 5
        assert args.fail_cycle == 100
        assert args.corrupt_rate == 0.002
        assert args.retransmit is True


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig8" in out and "fig15" in out

    def test_fast_experiment(self, capsys):
        assert main(["area"]) == 0
        assert "3.0%" in capsys.readouterr().out

    def test_simulate_smoke(self, capsys):
        assert main(["simulate", "--design", "NoRD", "--traffic", "uniform",
                     "--rate", "0.05", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "avg packet latency" in out
        assert "router wakeups" in out

    def test_simulate_parsec_benchmark(self, capsys):
        assert main(["simulate", "--design", "Conv_PG",
                     "--traffic", "swaptions", "--scale", "smoke"]) == 0
        assert "Conv_PG" in capsys.readouterr().out

    def test_simulate_with_router_failure(self, capsys):
        assert main(["simulate", "--design", "NoRD", "--traffic", "uniform",
                     "--rate", "0.05", "--scale", "smoke", "--seed", "7",
                     "--fail-router", "5"]) == 0
        out = capsys.readouterr().out
        assert "delivered fraction" in out
        assert "1.0000" in out  # NoRD serves the dead node via the ring

    def test_simulate_without_faults_hides_fault_rows(self, capsys):
        assert main(["simulate", "--design", "NoRD", "--traffic", "uniform",
                     "--rate", "0.05", "--scale", "smoke"]) == 0
        assert "delivered fraction" not in capsys.readouterr().out

    @pytest.mark.parametrize("flag, value, message", [
        ("--corrupt-rate", "2", "corrupt_rate must be in [0, 1], got 2.0"),
        ("--fail-router", "99",
         "router failure targets node 99 but the mesh has 16 nodes"),
        ("--rate", "-1", "injection rate must be non-negative"),
        ("--width", "0", "mesh must be at least 2x2"),
        ("--height", "3", "serpentine ring needs an even number of rows"),
    ])
    def test_simulate_bad_flag_is_a_usage_error(self, capsys, flag, value,
                                                message):
        """The run's own validators, asked before it starts: exit 2 and
        one usage-error line, not a traceback from inside the run."""
        with pytest.raises(SystemExit) as exit_info:
            main(["simulate", "--scale", "smoke", "--no-cache", flag, value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == f"nord simulate: error: {message}"
        assert "Traceback" not in err

    def test_simulate_inherits_the_runner_observers(self, capsys, tmp_path,
                                                    monkeypatch):
        """``--trace`` / ``--metrics`` reach simulate's point the way
        they reach every experiment's: through the process-wide runner."""
        from repro.experiments import parallel
        monkeypatch.setattr(parallel, "_default_runner", None)
        assert main(["simulate", "--scale", "smoke", "--no-cache",
                     "--trace", "--trace-dir", str(tmp_path / "t"),
                     "--metrics", "--metrics-dir", str(tmp_path / "m")]) == 0
        runner = parallel.get_runner()
        assert runner.trace is not None and runner.metrics is not None
        out = capsys.readouterr().out
        assert f"[trace] 1 run(s) traced; artifacts in {tmp_path}/t/" in out
        assert f"[metrics] 1 run(s) sampled; artifacts in {tmp_path}/m/" \
            in out
        assert "kernel: soa]" in out  # observers pick no kernel; it ran
        assert len(list((tmp_path / "t").glob("*.digest.json"))) == 1
        assert len(list((tmp_path / "m").glob("*.metrics.jsonl"))) == 1


class TestCommandsShareNothing:
    """What a command does depends on its own flags only: two ``main()``
    calls in one interpreter, the second must not see the first's."""

    FLAGGED = ["simulate", "--scale", "smoke", "--no-cache", "--trace",
               "--timeout", "50", "--backend", "ref", "--profile"]
    PLAIN = ["simulate", "--scale", "smoke"]

    @pytest.fixture(autouse=True)
    def isolated(self, monkeypatch, tmp_path):
        monkeypatch.setattr(parallel, "_default_runner", None)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        yield
        activity.enable_profiling(False)
        activity.reset_profile()

    def test_runner_settings_do_not_outlive_their_command(self, capsys,
                                                          tmp_path):
        traces = tmp_path / "t1"
        assert main(self.FLAGGED + ["--trace-dir", str(traces)]) == 0
        flagged = parallel.get_runner()
        assert (flagged.timeout, flagged.backend) == (50.0, "ref")
        assert "kernel: ref]" in capsys.readouterr().out
        written = sorted(traces.iterdir())
        assert written
        assert main(self.PLAIN) == 0
        runner = parallel.get_runner()
        assert runner is not flagged
        assert runner.trace is None and runner.timeout is None
        assert runner.use_cache is True and runner.backend is None
        out = capsys.readouterr().out
        assert "kernel: soa]" in out and "[trace]" not in out
        assert sorted(traces.iterdir()) == written

    def test_backend_flag_never_reaches_the_environment(self, capsys):
        assert main(self.PLAIN + ["--no-cache", "--backend", "ref"]) == 0
        assert "kernel: ref]" in capsys.readouterr().out
        assert "REPRO_BACKEND" not in os.environ

    def test_profile_is_per_command(self, capsys, tmp_path):
        assert main(self.FLAGGED + ["--trace-dir", str(tmp_path / "t")]) == 0
        out = capsys.readouterr().out
        # One epilogue order for every command: profile, trace, metrics.
        assert out.index("[kernel profile over") < out.index("[trace] 1 ")
        cycles = activity.global_profile().cycles
        assert main(self.PLAIN + ["--no-cache", "--profile"]) == 0
        assert f"[kernel profile over {cycles} cycles" \
            in capsys.readouterr().out  # its own cycles, not the sum
        assert main(self.PLAIN) == 0
        assert not activity.profiling_enabled()
        assert "kernel profile" not in capsys.readouterr().out

    def test_parsec_memo_dies_with_the_settings(self, capsys, tmp_path):
        """Figures 3 and 8-12 share one in-process PARSEC sweep - per
        runner, so a later command's ``--trace`` is not served from an
        untraced memo.  Figure 3 goes through that memo with the fewest
        points (No_PG only)."""
        fig3 = ["fig3", "--scale", "smoke", "--no-cache"]
        assert main(fig3) == 0
        report = capsys.readouterr().out
        traces = tmp_path / "D"
        assert main(fig3 + ["--trace", "--trace-limit", "500",
                            "--trace-dir", str(traces)]) == 0
        out = capsys.readouterr().out
        assert out.startswith(report)  # a pure observer
        assert f"[trace] 10 run(s) traced; artifacts in {traces}/" in out
        assert len(list(traces.glob("*.digest.json"))) == 10

    def test_resume_requires_journal(self, capsys):
        with pytest.raises(SystemExit):
            main(self.PLAIN + ["--resume"])
        assert "--resume requires --journal" in capsys.readouterr().err
