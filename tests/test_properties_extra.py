"""Deeper property-based tests on mathematical invariants.

These pin down structural facts the experiments rely on implicitly:
theory predictions are monotone in their arguments, traces conserve
population, and the schedule's action layout is permutation-free (each
slot has exactly one meaning).
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis import theory
from repro.core.colors import ColorConfiguration
from repro.engine.counts import CountsEngine
from repro.protocols.schedule import PhaseSchedule
from repro.protocols.two_choices import TwoChoicesCounts
from repro.workloads.initial import additive_gap, multiplicative_bias


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=16, max_value=10**8),
    c1_fraction=st.floats(min_value=0.01, max_value=1.0),
)
def test_theory_two_choices_monotone_in_c1(n, c1_fraction):
    """Fewer supporters -> more predicted rounds, always."""
    c1 = max(1, int(c1_fraction * n))
    smaller_c1 = max(1, c1 // 2)
    assert theory.two_choices_rounds(n, smaller_c1) >= theory.two_choices_rounds(n, c1)
    assert theory.two_choices_lower_bound(n, smaller_c1) >= theory.two_choices_lower_bound(n, c1)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=4, max_value=10**9))
def test_theory_thresholds_ordered(n):
    """The paper's three bias scales are strictly ordered for n >= 4:
    sqrt(n) < sqrt(n log n) < sqrt(n) log^{3/2} n."""
    assert theory.critical_gap(n) < theory.two_choices_required_gap(n)
    assert theory.two_choices_required_gap(n) < theory.one_extra_bit_required_gap(n)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=2, max_value=10**7))
def test_schedule_slots_partition(n):
    """Every phase's slot counts add up exactly to the phase length."""
    schedule = PhaseSchedule.compile(n)
    actions = schedule.actions[: schedule.phase_length]
    total = actions.size
    counted = sum(int((actions == code).sum()) for code in range(6))
    assert counted == total


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=20, max_value=5_000),
    k=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_counts_run_ends_in_valid_state(n, k, seed):
    """Any biased workload through the counts engine ends with the
    population conserved and, on convergence, a single colour."""
    assume(n >= 4 * k)
    config = multiplicative_bias(n, k, 1.5)
    result = CountsEngine(TwoChoicesCounts()).run(config, seed=seed, max_rounds=2_000)
    assert sum(result.final.counts) == n
    if result.converged:
        assert result.final.is_consensus()
        assert result.winner is not None


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=10, max_value=100_000),
    k=st.integers(min_value=2, max_value=10),
    gap_fraction=st.floats(min_value=0.0, max_value=0.4),
)
def test_additive_gap_structure(n, k, gap_fraction):
    """additive_gap always realises >= the requested gap with balanced
    runners-up, or raises cleanly."""
    from repro.core.exceptions import ConfigurationError

    assume(n >= 2 * k)
    gap = int(gap_fraction * n)
    try:
        config = additive_gap(n, k, gap)
    except ConfigurationError:
        return  # infeasible combination rejected, which is fine
    assert config.n == n
    assert config.additive_bias >= gap
    runners = config.counts[1:]
    if runners:
        assert max(runners) == min(runners)
