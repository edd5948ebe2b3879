"""One benchmark target per perf suite, each run by the bench runner.

The four package suites (``repro bench NAME``) and the three that live
here because they start servers and worker subprocesses
(``bench_campaign.py``, ``bench_distributed.py``, ``bench_serve.py``)
run at ``--quick`` scale, or at full scale under
``REPRO_BENCH_SCALE=full``.  Only a full-scale run writes
``BENCH_<name>.json`` at the repo root; a quick run writes it to the
test's temporary directory, so it never overwrites the committed
full-scale payloads.  A target passes when the runner exits 0: every
gate held or was recorded with a ``::warning::`` where it does not
apply.
"""

from pathlib import Path

import bench_campaign
import bench_distributed
import bench_serve
import pytest

from repro.bench import QUICK, perf_engines, perf_kernels, perf_robustness, perf_sparse
from repro.bench.store import bench_main

ROOT = Path(__file__).parent.parent

SUITES = {
    module.BENCH.name: module.BENCH
    for module in (
        perf_engines,
        perf_sparse,
        perf_kernels,
        perf_robustness,
        bench_campaign,
        bench_distributed,
        bench_serve,
    )
}


@pytest.mark.parametrize("name", list(SUITES))
def test_suite(benchmark, bench_scale, name, tmp_path):
    quick = bench_scale is QUICK
    argv = ["--out", str((tmp_path if quick else ROOT) / f"BENCH_{name}.json")]
    if quick:
        argv.append("--quick")
    code = benchmark.pedantic(bench_main, args=(SUITES[name], argv), iterations=1, rounds=1)
    assert code == 0, f"{name}: a gate failed (named on stderr)"
