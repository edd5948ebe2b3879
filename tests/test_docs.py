"""Documentation consistency gates.

DESIGN.md promises an experiment index and EXPERIMENTS.md promises the
paper-vs-measured record; these tests keep both in sync with the
registry and the benchmark directory as the project evolves.
"""

from pathlib import Path

import pytest

from repro.bench import experiment_ids

ROOT = Path(__file__).parent.parent


@pytest.fixture(scope="module")
def design_text():
    return (ROOT / "DESIGN.md").read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def experiments_text():
    return (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def readme_text():
    return (ROOT / "README.md").read_text(encoding="utf-8")


def test_required_documents_exist():
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
        assert (ROOT / name).exists(), f"{name} is missing"


def test_design_indexes_every_experiment(design_text):
    for eid in experiment_ids():
        assert f"| {eid} |" in design_text, f"DESIGN.md lacks an index row for {eid}"


def test_experiments_records_every_experiment(experiments_text):
    for eid in experiment_ids():
        assert eid in experiments_text, f"EXPERIMENTS.md does not mention {eid}"


def test_every_experiment_has_a_benchmark_target():
    """``benchmarks/bench_experiments.py`` holds one target per registered id."""
    source = (ROOT / "benchmarks" / "bench_experiments.py").read_text(encoding="utf-8")
    assert '@pytest.mark.parametrize("experiment_id", experiment_ids())' in source


def test_design_declares_paper_identity_check(design_text):
    assert "Paper identity check" in design_text
    assert "matches the target paper" in design_text


def test_readme_mentions_all_examples(readme_text):
    examples = (ROOT / "examples").glob("*.py")
    for example in examples:
        assert example.name in readme_text, f"README.md does not mention {example.name}"


def test_design_documents_every_substitution(design_text):
    assert "Substitution record" in design_text


def test_examples_reference_real_api():
    """Every example imports successfully (compile check without run)."""
    import py_compile

    for example in (ROOT / "examples").glob("*.py"):
        py_compile.compile(str(example), doraise=True)
