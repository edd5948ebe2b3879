"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.engine.dispatch import COUNTS_TICK_CROSSOVER


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_simulate_command_defaults(self):
        args = build_parser().parse_args(["simulate", "two-choices", "--n", "1000"])
        assert args.command == "simulate"
        assert args.protocol == "two-choices"
        assert args.n == 1000
        assert args.reps == 1
        assert args.model == "sequential"
        assert args.topology == "complete"
        assert not args.quick and not args.json

    def test_simulate_repeatable_params(self):
        args = build_parser().parse_args(
            ["simulate", "one-extra-bit", "--n", "500", "--model", "synchronous",
             "--initial", "theorem-1-1-gap", "--initial-param", "k=8", "--initial-param", "z=2.0",
             "--param", "bp_rounds=9"]
        )
        assert args.initial_param == ["k=8", "z=2.0"]
        assert args.param == ["bp_rounds=9"]

    def test_simulate_requires_n(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "two-choices"])

    def test_run_command_defaults(self):
        args = build_parser().parse_args(["run", "T3"])
        assert args.experiment == "T3"
        assert args.scale == "quick"
        assert args.store is None

    def test_schedule_command(self):
        args = build_parser().parse_args(["schedule", "1000", "--no-sync"])
        assert args.n == 1000
        assert args.no_sync

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "T1" in out and "T12" in out
        # The registry listing rides along: protocols, topologies,
        # initial conditions and their parameter metadata.
        assert "two-choices" in out and "async-plurality" in out
        assert "complete" in out and "ring" in out
        assert "benchmark-split" in out
        assert "epsilon*" in out  # required-param marker

    def test_simulate_runs_and_summarizes(self, capsys):
        # n * reps below the counts crossover: looped agent runs ...
        assert main(["simulate", "two-choices", "--n", "2000", "--reps", "3", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "engine: SequentialEngine " in out
        assert "converged" in out and "3/3" in out
        # ... and at it, the stacked counts ensemble.
        n = str(-(-COUNTS_TICK_CROSSOVER // 3))
        assert main(["simulate", "two-choices", "--n", n, "--reps", "3", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "engine: CountsSequentialEngine " in out
        assert "converged" in out and "3/3" in out

    def test_simulate_quick_shrinks_n(self, capsys):
        assert main(["simulate", "two-choices", "--n", "10000", "--reps", "4", "--quick"]) == 0
        assert "n=5000" in capsys.readouterr().out

    def test_simulate_json_payload_round_trips(self, capsys):
        assert main(
            ["simulate", "voter", "--n", "500", "--model", "synchronous",
             "--initial", "two-colors", "--initial-param", "gap=100",
             "--reps", "2", "--seed", "5", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        from repro.api import SimulationSpec

        spec = SimulationSpec.from_dict(payload["spec"])
        assert spec.protocol == "voter" and spec.initial_params == {"gap": "100"}
        assert payload["summary"]["reps"] == 2
        assert len(payload["runs"]) == 2

    def test_simulate_spec_only_does_not_run(self, capsys):
        assert main(["simulate", "two-choices", "--n", "123456789", "--spec-only"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 123456789 and payload["protocol"] == "two-choices"

    def test_simulate_unknown_protocol_fails(self):
        with pytest.raises(Exception, match="unknown protocol"):
            main(["simulate", "no-such-protocol", "--n", "100"])

    def test_simulate_bad_param_syntax_fails(self):
        with pytest.raises(Exception, match="KEY=VALUE"):
            main(["simulate", "two-choices", "--n", "100", "--param", "oops"])

    def test_schedule(self, capsys):
        assert main(["schedule", "4096"]) == 0
        out = capsys.readouterr().out
        assert "delta" in out
        assert "part one length" in out

    def test_schedule_no_sync(self, capsys):
        assert main(["schedule", "4096", "--no-sync"]) == 0
        assert "sync_enabled=False" in capsys.readouterr().out

    def test_run_tiny_and_show(self, tmp_path, capsys):
        store_dir = str(tmp_path / "results")
        code = main(["run", "T3", "--trials", "2", "--seed", "5", "--store", store_dir])
        out = capsys.readouterr().out
        assert "T3" in out
        assert code in (0, 1)  # checks may fail at tiny trial counts
        assert main(["show", "T3", "--store", store_dir]) == 0
        shown = capsys.readouterr().out
        assert "P(C1 wins)" in shown

    def test_run_store_report_pipeline(self, tmp_path, capsys):
        """run --store -> report renders the persisted payloads."""
        store_dir = str(tmp_path / "results")
        main(["run", "T3", "--trials", "2", "--seed", "5", "--store", store_dir])
        capsys.readouterr()
        assert main(["report", "--store", store_dir, "--title", "e2e report"]) == 0
        out = capsys.readouterr().out
        assert "e2e report" in out
        assert "T3" in out
        assert "Two-Choices bias threshold" in out

    def test_report_on_empty_store(self, tmp_path, capsys):
        assert main(["report", "--store", str(tmp_path / "nothing")]) == 0
        out = capsys.readouterr().out
        assert "no stored results" in out.lower() or out.strip()

    def test_show_missing_store(self, tmp_path):
        with pytest.raises(Exception):
            main(["show", "T1", "--store", str(tmp_path / "empty")])

    def test_run_unknown_experiment(self):
        with pytest.raises(Exception):
            main(["run", "T99"])


class TestSweepParser:
    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep", "two-choices", "--axis", "n=1000,2000"])
        assert args.command == "sweep"
        assert args.axis == ["n=1000,2000"]
        assert args.workers == 1 and args.chunksize is None
        assert args.cache_dir is None
        assert args.seed == 20170725
        assert not args.zip_axes and not args.json

    def test_sweep_repeatable_axes_and_flags(self):
        args = build_parser().parse_args(
            ["sweep", "two-choices", "--axis", "n=1000,2000", "--axis", "initial_params.k=2,4",
             "--zip", "--workers", "4", "--chunksize", "2", "--cache-dir", "cache", "--json"]
        )
        assert args.axis == ["n=1000,2000", "initial_params.k=2,4"]
        assert args.zip_axes and args.json
        assert args.workers == 4 and args.chunksize == 2 and args.cache_dir == "cache"


class TestSweepMain:
    def test_sweep_runs_and_tabulates(self, capsys):
        assert main(["sweep", "two-choices", "--axis", "n=500,1000",
                     "--reps", "2", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "campaign sweep/two-choices" in out
        assert "2 point(s)" in out and "engine runs=2" in out
        assert "mean_parallel_time" in out

    def test_sweep_axis_values_coerce_numerically(self, capsys):
        assert main(["sweep", "two-choices", "--axis", "n=500", "--axis", "reps=2,3",
                     "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "3 point(s)" not in out  # 1 x 2 grid
        assert "2 point(s)" in out

    def test_sweep_spec_only_does_not_run(self, capsys):
        assert main(["sweep", "two-choices", "--axis", "n=123456789,987654321",
                     "--spec-only"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sweep"]["axes"] == {"n": [123456789, 987654321]}
        assert payload["base"]["seed"] is None  # the campaign owns seeding

    def test_sweep_requires_n_or_n_axis(self):
        with pytest.raises(Exception, match="--n or sweep an 'n' axis"):
            main(["sweep", "two-choices", "--axis", "reps=1,2"])

    def test_sweep_rejects_bad_axis_syntax(self):
        with pytest.raises(Exception, match="FIELD=V1,V2"):
            main(["sweep", "two-choices", "--axis", "oops"])

    def test_sweep_rejects_duplicate_axes(self):
        with pytest.raises(Exception, match="duplicate --axis"):
            main(["sweep", "two-choices", "--axis", "n=10", "--axis", "n=20"])

    def test_sweep_json_is_byte_identical_warm(self, tmp_path, capsys):
        """The sweep-smoke contract: cold run then warm replay emit
        byte-identical aggregate JSON on stdout, and the warm replay
        reports zero engine runs on stderr."""
        argv = ["sweep", "two-choices", "--axis", "n=500,1000", "--reps", "2",
                "--seed", "9", "--cache-dir", str(tmp_path), "--json"]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert main(argv) == 0
        warm = capsys.readouterr()
        assert cold.out == warm.out  # byte-identical payload
        assert "engine_runs=2" in cold.err and "cache_hits=0" in cold.err
        assert "engine_runs=0" in warm.err and "cache_hits=2" in warm.err
        payload = json.loads(warm.out)
        assert "execution" not in payload
        assert len(payload["rows"]) == 2

    def test_sweep_json_is_strict_even_without_convergence(self, capsys):
        """Points with zero converged reps have NaN statistics; the JSON
        boundary must emit null, never the non-strict NaN token."""
        assert main(["sweep", "two-choices", "--axis", "n=500", "--reps", "2",
                     "--seed", "1", "--max-steps", "1", "--json"]) == 0
        out = capsys.readouterr().out

        def reject(constant):  # pragma: no cover - only on regression
            raise AssertionError(f"non-strict JSON constant {constant!r}")

        payload = json.loads(out, parse_constant=reject)
        summary = payload["points"][0]["summary"]
        assert summary["converged"] == 0 and summary["mean_parallel_time"] is None

    def test_sweep_zip_mode(self, capsys):
        assert main(["sweep", "two-choices", "--initial", "two-colors",
                     "--axis", "n=500,1000", "--axis", "initial_params.gap=100,200",
                     "--zip", "--reps", "2", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "2 point(s)" in out
        assert "initial_params.gap" in out
