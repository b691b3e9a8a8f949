"""Unit tests for the CLI."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.cluster.worker import Worker
from repro.experiments import runner


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig_parses_number_and_seed(self):
        args = build_parser().parse_args(["fig", "12", "--seed", "7"])
        assert args.number == 12 and args.seed == 7

    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.jobs == 10 and args.alpha == 0.10
        assert args.placement == "spread" and args.rebalance == "none"

    def test_profile_flag_parses(self):
        assert build_parser().parse_args(["compare"]).profile is False
        assert build_parser().parse_args(
            ["compare", "--profile"]
        ).profile is True
        assert build_parser().parse_args(
            ["sweep", "--profile"]
        ).profile is True

    def test_failures_spec_parses(self):
        args = build_parser().parse_args(["compare"])
        assert args.failures == "none"
        args = build_parser().parse_args(
            ["compare", "--failures", "rolling:checkpoint(60)"]
        )
        assert args.failures == "rolling:checkpoint(60)"
        args = build_parser().parse_args(
            ["sweep", "--failures", "az_outage"]
        )
        assert args.failures == "az_outage"

    def test_fabric_spec_parses(self):
        args = build_parser().parse_args(["compare"])
        assert args.fabric == "ideal"
        args = build_parser().parse_args(
            ["compare", "--fabric", "partition(30..90):retry(max=5,base=0.5)"]
        )
        assert args.fabric == "partition(30..90):retry(max=5,base=0.5)"
        args = build_parser().parse_args(
            ["sweep", "--fabric", "drop(0.05)+delay(exp,0.2)"]
        )
        assert args.fabric == "drop(0.05)+delay(exp,0.2)"

    def test_bench_report_flags_parse(self):
        args = build_parser().parse_args(["bench-report"])
        assert args.dir == "benchmarks"
        assert args.filter is None and args.last is None
        args = build_parser().parse_args(
            ["bench-report", "--dir", "x", "--filter", "fleet", "--last", "3"]
        )
        assert args.dir == "x" and args.filter == "fleet" and args.last == 3

    def test_tenant_weights_parse(self):
        args = build_parser().parse_args(
            ["compare", "--tenant-weights", "interactive=4", "batch=1"]
        )
        assert args.tenant_weights == ["interactive=4", "batch=1"]

    def test_bad_tenant_weights_rejected(self):
        from repro.cli import _parse_tenant_weights
        from repro.errors import ExperimentError

        assert _parse_tenant_weights(["a=2", "b=0.5"]) == {
            "a": 2.0, "b": 0.5,
        }
        for bad in (["a"], ["=2"], ["a=0"], ["a=-1"], ["a=x"],
                    ["a=nan"], ["a=inf"]):
            with pytest.raises(ExperimentError):
                _parse_tenant_weights(bad)

    def test_slots_flag_parses(self):
        args = build_parser().parse_args(["compare", "--slots", "2"])
        assert args.slots == 2
        args = build_parser().parse_args(["sweep", "--slots", "3"])
        assert args.slots == 3
        assert build_parser().parse_args(["compare"]).slots is None

    def test_more_tenants_than_jobs_is_a_clean_cli_error(self, capsys):
        # 3 jobs, 4 tenants: must exit via the CLI error path, not a
        # raw MetricsError traceback from the per-tenant report.
        assert main([
            "compare", "--jobs", "3", "--seed", "1",
            "--tenant-weights", "a=1", "b=1", "c=1", "d=1",
        ]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "tenant" in err


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig 12" in out and "table 2" in out

    def test_zoo(self, capsys):
        assert main(["zoo"]) == 0
        out = capsys.readouterr().out
        assert "VAE (Pytorch)" in out

    def test_fig_unknown_number_errors(self, capsys):
        assert main(["fig", "99"]) == 2
        assert "no figure 99" in capsys.readouterr().err

    def test_table_unknown_number_errors(self, capsys):
        assert main(["table", "7"]) == 2

    def test_fig1(self, capsys):
        assert main(["fig", "1"]) == 0
        assert "Figure 1" in capsys.readouterr().out

    def test_fig3(self, capsys):
        assert main(["fig", "3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out and "NA" in out

    def test_table2(self, capsys):
        assert main(["table", "2"]) == 0
        out = capsys.readouterr().out
        assert "reduction %" in out

    def test_compare_fixed_three(self, capsys):
        assert main([
            "compare", "--jobs", "3", "--alpha", "0.05",
            "--itval", "20", "--seed", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "wins" in out and "makespan" in out

    def test_sweep(self, capsys):
        assert main([
            "sweep", "--alphas", "0.05", "--itvals", "20", "--seed", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "itval=20" in out

    @pytest.mark.parametrize("flags, names", [
        # --failures and --fabric are free-form specs (durability and
        # retry suffixes make choices= impossible), so validation
        # happens in the run path; the error names the registries.
        (["--failures", "meteor-strike"], ["meteor-strike", "'rolling'"]),
        (["--fabric", "carrier-pigeon"], ["carrier-pigeon", "'partition'"]),
        (["--slots", "0"], ["max_containers"]),
        (["--fabric", "drop(0.1):retry(max=nan)"], ["max=", "nan"]),
    ], ids=["failures", "fabric", "slots", "retry-max-nan"])
    def test_bad_cluster_option_is_a_clean_cli_error(
        self, capsys, flags, names
    ):
        assert main(["compare", "--jobs", "3", "--seed", "1", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        for name in names:
            assert name in err

    def test_slots_bound_autoscaled_workers(self, capsys, monkeypatch):
        made = []

        def recording_worker(*args, **kwargs):
            made.append(Worker(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(runner, "Worker", recording_worker)
        assert main([
            "compare", "--jobs", "10", "--seed", "42", "--workers", "2",
            "--slots", "2", "--autoscale", "queue_depth",
        ]) == 0
        assert len(made) > 2 * 2  # the NA and FlowCon runs both scaled up
        assert all(worker.max_containers == 2 for worker in made)

    def test_compare_with_fabric(self, capsys):
        assert main([
            "compare", "--jobs", "3", "--seed", "1", "--workers", "2",
            "--fabric", "drop(0.2)+delay(const,0.05):retry(max=6,base=0.3)",
        ]) == 0
        out = capsys.readouterr().out
        assert "fabric:" in out and "resends" in out

    def test_compare_with_failures(self, capsys):
        assert main([
            "compare", "--jobs", "3", "--seed", "1", "--workers", "2",
            "--failures", "rolling:checkpoint",
        ]) == 0
        out = capsys.readouterr().out
        assert "failures:" in out and "crash-restarts" in out

    def test_compare_profile_dumps_cprofile_to_stderr(self, capsys):
        assert main([
            "compare", "--jobs", "3", "--alpha", "0.05",
            "--itval", "20", "--seed", "1", "--profile",
        ]) == 0
        captured = capsys.readouterr()
        assert "wins" in captured.out  # the command output stays on stdout
        assert "cumulative" in captured.err  # pstats column header
        assert "function calls" in captured.err

    def test_sweep_profile_dumps_cprofile_to_stderr(self, capsys):
        assert main([
            "sweep", "--alphas", "0.05", "--itvals", "20", "--seed", "1",
            "--profile",
        ]) == 0
        captured = capsys.readouterr()
        assert "itval=20" in captured.out
        assert "cumulative" in captured.err

    def test_bench_report_renders_trajectory(self, tmp_path, capsys):
        import json

        for stamp, mean in (("20260101-000000", 0.5),
                            ("20260202-000000", 0.25)):
            (tmp_path / f"BENCH_{stamp}.json").write_text(json.dumps({
                "benchmarks": [
                    {"name": "test_speed", "stats": {"mean": mean}},
                ],
            }))
        assert main(["bench-report", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Benchmark trajectory — 2 snapshots" in out
        assert "test_speed" in out
        assert "2.00/s" in out and "4.00/s" in out  # 1/mean per column

    def test_bench_report_empty_dir_is_a_clean_cli_error(
        self, tmp_path, capsys
    ):
        assert main(["bench-report", "--dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "BENCH_" in err

    def test_compare_diurnal_stream(self, capsys):
        assert main(["compare", "--workload", "diurnal", "--jobs", "6"]) == 0
        out = capsys.readouterr().out
        assert "on 6 jobs" in out
        for label in ("Job-1", "Job-6", "makespan", "wins"):
            assert label in out

    def test_streaming_metrics_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--workload", "diurnal", "--streaming-metrics"])
        assert exc.value.code == 2
        assert "--streaming-metrics" in capsys.readouterr().err

    def test_compare_with_wfq_tenants(self, capsys):
        assert main([
            "compare", "--jobs", "3", "--seed", "1", "--workers", "2",
            "--admission", "wfq",
            "--tenant-weights", "interactive=4", "batch=1",
        ]) == 0
        out = capsys.readouterr().out
        assert "admission wfq" in out
        assert "tenant batch" in out and "tenant interactive" in out
        assert "p95 queue delay" in out
