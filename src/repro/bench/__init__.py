"""Benchmark harness: the experiment registry and its plumbing."""

from .experiments import EXPERIMENTS, experiment_ids, run_experiment
from .harness import FULL, QUICK, ExperimentReport, ExperimentScale, run_engine_trials, run_trials
from .report import render_markdown_table, render_payload, render_report
from .store import ResultStore, bench_environment, save_bench_payload
from .tables import format_table

__all__ = [
    "EXPERIMENTS",
    "experiment_ids",
    "run_experiment",
    "FULL",
    "QUICK",
    "ExperimentReport",
    "ExperimentScale",
    "run_trials",
    "run_engine_trials",
    "ResultStore",
    "bench_environment",
    "save_bench_payload",
    "render_markdown_table",
    "render_payload",
    "render_report",
    "format_table",
]
