"""Tests for the phase schedule (repro.protocols.schedule)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import ScheduleError
from repro.protocols.schedule import (
    ACTION_BP,
    ACTION_NOP,
    ACTION_SYNC_JUMP,
    ACTION_SYNC_SAMPLE,
    ACTION_TC_COMMIT,
    ACTION_TC_SAMPLE,
    PhaseSchedule,
    default_delta,
    default_phase_count,
    default_sync_samples,
)


class TestDefaults:
    def test_delta_grows_with_n(self):
        assert default_delta(10**6) >= default_delta(10**3)

    def test_delta_positive(self):
        assert default_delta(2) >= 1

    def test_delta_factor(self):
        assert default_delta(10**6, delta_factor=2.0) >= 2 * default_delta(10**6) - 1

    def test_phase_count_grows_with_n(self):
        assert default_phase_count(10**9) >= default_phase_count(10**2)

    def test_sync_samples_matches_log_cubed(self):
        import math

        n = 10**6
        expected = math.ceil(max(math.log(math.log(n)), 1.5) ** 3)
        assert default_sync_samples(n) == expected

    def test_zero_phases_is_the_endgame_alone(self):
        schedule = PhaseSchedule.compile(1000, phases=0, endgame_factor=10.0)
        assert schedule.part_one_length == 0
        assert schedule.actions.size == 0
        assert schedule.total_length == schedule.endgame_ticks == math.ceil(10.0 * math.log(1000))
        assert schedule.in_endgame(0)

    def test_validation(self):
        with pytest.raises(ScheduleError):
            default_delta(1)
        with pytest.raises(ScheduleError):
            default_phase_count(0)
        with pytest.raises(ScheduleError):
            default_sync_samples(1)


class TestCompiledLayout:
    def test_lengths_consistent(self):
        schedule = PhaseSchedule.compile(4096)
        assert schedule.part_one_length == schedule.phases * schedule.phase_length
        assert schedule.total_length == schedule.part_one_length + schedule.endgame_ticks
        assert schedule.actions.size == schedule.part_one_length

    def test_each_phase_has_one_sample_and_one_commit(self):
        schedule = PhaseSchedule.compile(4096)
        actions = schedule.actions
        for p, start in enumerate(schedule.phase_starts):
            phase = actions[start:start + schedule.phase_length]
            assert (phase == ACTION_TC_SAMPLE).sum() == 1
            assert (phase == ACTION_TC_COMMIT).sum() == 1
            assert (phase == ACTION_SYNC_JUMP).sum() == 1
            assert (phase == ACTION_SYNC_SAMPLE).sum() == schedule.sync_samples

    def test_commit_is_two_blocks_after_sample(self):
        schedule = PhaseSchedule.compile(10_000)
        for start in schedule.phase_starts:
            assert schedule.actions[start] == ACTION_TC_SAMPLE
            assert schedule.actions[start + 2 * schedule.delta] == ACTION_TC_COMMIT

    def test_bp_block_is_contiguous(self):
        schedule = PhaseSchedule.compile(10_000)
        start = schedule.phase_starts[0]
        bp_start = start + 4 * schedule.delta
        bp_len = schedule.bp_blocks * schedule.delta
        assert (schedule.actions[bp_start:bp_start + bp_len] == ACTION_BP).all()

    def test_jump_is_last_slot_of_phase(self):
        schedule = PhaseSchedule.compile(10_000)
        for p, jump in enumerate(schedule.jump_slots):
            assert jump == schedule.phase_starts[p] + schedule.phase_length - 1
            assert schedule.actions[jump] == ACTION_SYNC_JUMP

    def test_sync_sampling_fits_before_jump(self):
        schedule = PhaseSchedule.compile(50)
        # sampling slots + at least one wait + the jump fit the sub-phase
        assert schedule.sync_samples <= schedule.sync_blocks * schedule.delta - 2

    def test_sync_disabled_removes_gadget_actions(self):
        schedule = PhaseSchedule.compile(4096, sync_enabled=False)
        assert (schedule.actions != ACTION_SYNC_JUMP).all()
        assert (schedule.actions != ACTION_SYNC_SAMPLE).all()
        # layout lengths stay identical so the ablation is like-for-like
        reference = PhaseSchedule.compile(4096, sync_enabled=True)
        assert schedule.part_one_length == reference.part_one_length

    def test_action_at_beyond_part_one_is_nop(self):
        schedule = PhaseSchedule.compile(1000)
        assert schedule.action_at(schedule.part_one_length + 5) == ACTION_NOP

    def test_phase_of(self):
        schedule = PhaseSchedule.compile(1000, phases=4)
        assert schedule.phase_of(0) == 0
        assert schedule.phase_of(schedule.phase_length) == 1
        assert schedule.phase_of(10 * schedule.part_one_length) == 3

    def test_phase_of_negative_rejected(self):
        with pytest.raises(ScheduleError):
            PhaseSchedule.compile(1000).phase_of(-1)

    def test_in_endgame(self):
        schedule = PhaseSchedule.compile(1000)
        assert not schedule.in_endgame(0)
        assert schedule.in_endgame(schedule.part_one_length)

    def test_describe_mentions_key_fields(self):
        text = PhaseSchedule.compile(1000).describe()
        assert "delta" in text and "phases" in text

    def test_explicit_overrides(self):
        schedule = PhaseSchedule.compile(1000, phases=3, sync_samples=4)
        assert schedule.phases == 3
        assert schedule.sync_samples == 4

    def test_zero_phases_is_the_endgame_alone(self):
        schedule = PhaseSchedule.compile(1000, phases=0, endgame_factor=10.0)
        assert schedule.part_one_length == 0
        assert schedule.actions.size == 0
        assert schedule.total_length == schedule.endgame_ticks == math.ceil(10.0 * math.log(1000))
        assert schedule.in_endgame(0)

    def test_validation(self):
        with pytest.raises(ScheduleError):
            PhaseSchedule.compile(1)
        with pytest.raises(ScheduleError):
            PhaseSchedule.compile(100, phases=-1)
        with pytest.raises(ScheduleError):
            PhaseSchedule.compile(100, bp_blocks=0)
        with pytest.raises(ScheduleError):
            PhaseSchedule.compile(100, sync_samples=0)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=2, max_value=10**7))
def test_property_schedule_invariants(n):
    schedule = PhaseSchedule.compile(n)
    assert schedule.delta >= 1
    assert schedule.phases >= 1
    assert schedule.endgame_ticks >= 1
    assert schedule.actions.size == schedule.phases * schedule.phase_length
    # every working-time slot has a defined action code
    assert set(np.unique(schedule.actions)) <= {
        ACTION_NOP,
        ACTION_TC_SAMPLE,
        ACTION_TC_COMMIT,
        ACTION_BP,
        ACTION_SYNC_SAMPLE,
        ACTION_SYNC_JUMP,
    }
