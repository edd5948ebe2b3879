"""One benchmark target per registered experiment (T1..T12, A1..A4, S1).

Each target runs its experiment at the selected scale under
pytest-benchmark, prints the report, persists the payload under
``benchmarks/results/`` and asserts every shape check.  Test ids are
the experiment ids, e.g. ``bench_experiments.py::test_experiment[T1]``.
"""

from pathlib import Path

import pytest

from repro.bench import ResultStore, experiment_ids, run_experiment

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.mark.parametrize("experiment_id", experiment_ids())
def test_experiment(benchmark, bench_scale, experiment_id):
    # One pedantic round: the experiments are statistical sweeps with
    # internal trial replication, so harness-level repeats add nothing.
    report = benchmark.pedantic(
        run_experiment,
        args=(experiment_id,),
        kwargs={"scale": bench_scale, "store": ResultStore(RESULTS_DIR)},
        iterations=1,
        rounds=1,
    )
    print()
    print(report.format())
    failed = [name for name, ok in report.checks.items() if not ok]
    assert not failed, f"{experiment_id} shape checks failed: {failed}"
