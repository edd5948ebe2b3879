"""The bench runner behind ``python -m repro bench NAME``.

One :class:`~repro.bench.store.Bench` declaration per perf suite; the
runner owns the shared options, printing, the payload write, the gate
check and the exit code.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.bench import perf_engines, perf_kernels, perf_robustness, perf_sparse
from repro.bench.store import Bench, Gate, bench_main
from repro.cli import main
from repro.core.exceptions import ConfigurationError

ROOT = Path(__file__).parent.parent


def _load_benchmark(name):
    path = ROOT / "benchmarks" / f"bench_{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BENCH


def _toy(criteria, gates, run=None):
    payload = {"criteria": dict(criteria), "environment": {"cpu_count": 1}}
    return Bench(
        name="toy",
        help="a toy suite",
        run=run or (lambda args: payload),
        format=lambda payload, args: "toy table",
        gates=gates,
    )


class TestGates:
    def test_failing_gate_exits_1_and_is_named_on_stderr(self, capsys, tmp_path):
        bench = _toy({"fast_ok": False, "right_ok": True}, (Gate("fast_ok"), Gate("right_ok")))
        out = tmp_path / "payload.json"
        assert bench_main(bench, ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "toy table\n"
        assert "gate fast_ok FAILED" in captured.err
        assert "right_ok" not in captured.err
        # The payload is written before the gates are checked.
        assert json.loads(out.read_text())["criteria"]["fast_ok"] is False

    def test_missing_criterion_fails(self, capsys):
        assert bench_main(_toy({}, (Gate("never_measured_ok"),)), []) == 1
        assert "gate never_measured_ok FAILED" in capsys.readouterr().err

    def test_inapplicable_gate_warns_and_exits_0(self, capsys):
        gate = Gate(
            "fast_ok",
            applicable="fast_applicable",
            reason="cpu_count={cpu_count} (measured {speedup:.2f}x)",
        )
        bench = _toy({"fast_ok": False, "fast_applicable": False, "speedup": 1.25}, (gate,))
        assert bench_main(bench, []) == 0
        captured = capsys.readouterr()
        assert "::warning::" in captured.err
        assert "'fast_ok' recorded but NOT asserted: cpu_count=1 (measured 1.25x)" in captured.err
        assert "::warning::" not in captured.out

    def test_applicable_gate_is_asserted(self, capsys):
        gate = Gate("fast_ok", applicable="fast_applicable")
        assert bench_main(_toy({"fast_ok": False, "fast_applicable": True}, (gate,)), []) == 1
        assert "::warning::" not in capsys.readouterr().err

    def test_predicate_gate(self):
        holds = Gate("rows_ok", holds=lambda payload: payload["criteria"]["n"] > 2)
        assert bench_main(_toy({"n": 3}, (holds,)), []) == 0
        assert bench_main(_toy({"n": 2}, (holds,)), []) == 1

    def test_configuration_error_is_a_usage_error(self, capsys):
        def run(args):
            raise ConfigurationError("--ns must be comma-separated integers")

        with pytest.raises(SystemExit) as exc:
            bench_main(_toy({}, (), run=run), [])
        assert exc.value.code == 2
        assert "--ns must be comma-separated integers" in capsys.readouterr().err


class TestCli:
    def test_help_lists_the_package_suites(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in ("engines", "sparse", "kernels", "robustness"):
            assert name in out

    @pytest.mark.parametrize("suite", ["engines", "sparse", "kernels"])
    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_trials_below_one_is_a_usage_error(self, capsys, suite, trials):
        with pytest.raises(SystemExit) as exc:
            main(["bench", suite, "--trials", trials])
        assert exc.value.code == 2
        assert f"--trials must be >= 1, got {trials}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["engines", "sparse", "kernels", "robustness"])
    def test_old_subcommands_are_gone(self, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--quick"])
        assert exc.value.code == 2

    def test_kernels_without_a_compiled_kernel_warns_and_passes(self, capsys):
        code = main(
            ["bench", "kernels", "--kernels", "numpy", "--no-consensus", "--n", "256", "--trials", "1"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "criterion kernels_measured: ['numpy']" in captured.out
        assert captured.err.count("::warning::") == 2


_SLUGS = [
    "two_choices_loss",
    "two_choices_stubborn",
    "two_choices_byzantine",
    "three_majority_loss",
    "three_majority_stubborn",
    "three_majority_byzantine",
    "zipf_three_majority_stubborn",
]

#: criterion -> applicability key of every gate CI asserted before the
#: runner existed (None: asserted unconditionally).
CI_GATES = {
    "engines": {"ensemble_faster_than_looped": None},
    "sparse": {
        "sparse_seq_ge_10x_vs_per_tick_torus": None,
        "consensus_faster_than_zip_apply_torus": None,
        "sparse_seq_mixed_phase_healed_torus": None,
        "sparse_seq_ge_10x_vs_per_tick_random_regular": None,
        "consensus_faster_than_zip_apply_random_regular": None,
        "sparse_seq_mixed_phase_healed_random_regular": None,
        "consensus_random_regular_converged": None,
    },
    "kernels": {
        "kernel_bit_identical": "compiled_kernel",
        "kernel_speedup_ge_2x": "compiled_kernel",
    },
    "robustness": {
        **{f"zero_fault_consensus_ok_{slug}": None for slug in _SLUGS},
        **{f"fault_injection_bites_{slug}": "degradation_assertable" for slug in _SLUGS},
    },
    "campaign": {
        "executor_identity_ok": None,
        "warm_replay_ok": None,
        "process_speedup_ok": "process_speedup_applicable",
    },
    "distributed": {
        "distributed_identity_ok": None,
        "kill_identity_ok": None,
        "worker_killed_mid_campaign": None,
        "warm_replay_ok": None,
        "speedup_ok": "speedup_applicable",
    },
    "serve": {
        "served_equals_simulate_ok": None,
        "coalesce_single_engine_run_ok": None,
        "coalesce_byte_identical_ok": None,
        "warm_p50_ok": "latency_applicable",
        "throughput_ok": "latency_applicable",
    },
}


class TestDeclarations:
    @pytest.fixture(scope="class")
    def suites(self):
        benches = [perf_engines.BENCH, perf_sparse.BENCH, perf_kernels.BENCH, perf_robustness.BENCH]
        benches += [_load_benchmark(name) for name in ("campaign", "distributed", "serve")]
        return {bench.name: bench for bench in benches}

    @pytest.mark.parametrize("name", sorted(CI_GATES))
    def test_gates_cover_what_ci_asserted(self, suites, name):
        declared = {gate.key: gate.applicable for gate in suites[name].gates}
        for key, applicable in CI_GATES[name].items():
            assert key in declared, f"{name} lost the {key} gate"
            assert declared[key] == applicable, (name, key)

    def test_engines_keeps_the_row_level_gates(self, suites):
        keys = {gate.key for gate in suites["engines"].gates}
        assert {
            "timed_runs_converged",
            "counts_seq_beats_per_tick",
            "counts_seq_beats_sequential_from_1e5",
            "ensemble_runs_converged",
            "ensemble_beats_looped_from_1e5_r100",
        } <= keys
