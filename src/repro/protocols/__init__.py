"""Protocols: the paper's algorithms plus standard baselines.

* Two-Choices (Theorem 1.1) — sync / counts-exact / sequential.
* OneExtraBit (Theorem 1.2) — sync agent-based and counts-exact.
* AsyncPluralityProtocol (Theorem 1.3) — the main contribution, with
  its PhaseSchedule and Sync Gadget, run by the generic tick engines.
* Baselines: Voter, 3-Majority, Undecided-State Dynamics.
"""

from .async_plurality import AsyncPluralityProtocol
from .base import (
    CountsProtocol,
    SequentialCountsProtocol,
    SequentialProtocol,
    SynchronousProtocol,
)
from .faults import ByzantineProtocol, FaultMaskedState, StubbornProtocol
from .lossy import LossyProtocol
from .one_extra_bit import (
    OneExtraBitCounts,
    OneExtraBitState,
    OneExtraBitSynchronous,
    default_bp_rounds,
)
from .rumor import RumorState, spread_rumor_agents, spread_rumor_counts
from .schedule import (
    ACTION_BP,
    ACTION_NAMES,
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
from .slow_clocks import SlowClocks
from .sync_gadget import SyncSampleBuffer, jump_target, median_of_samples
from .three_majority import (
    ThreeMajorityCounts,
    ThreeMajoritySequential,
    ThreeMajoritySequentialCounts,
    ThreeMajoritySynchronous,
)
from .two_choices import (
    TwoChoicesCounts,
    TwoChoicesSequential,
    TwoChoicesSequentialCounts,
    TwoChoicesSynchronous,
)
from .undecided_state import (
    UndecidedStateCounts,
    UndecidedStateSequential,
    UndecidedStateSequentialCounts,
    UndecidedStateSynchronous,
)
from .voter import VoterCounts, VoterSequential, VoterSequentialCounts, VoterSynchronous

__all__ = [
    "AsyncPluralityProtocol",
    "CountsProtocol",
    "SequentialCountsProtocol",
    "SequentialProtocol",
    "SynchronousProtocol",
    "ByzantineProtocol",
    "FaultMaskedState",
    "StubbornProtocol",
    "LossyProtocol",
    "SlowClocks",
    "OneExtraBitCounts",
    "OneExtraBitState",
    "OneExtraBitSynchronous",
    "default_bp_rounds",
    "ACTION_BP",
    "ACTION_NAMES",
    "ACTION_NOP",
    "ACTION_SYNC_JUMP",
    "ACTION_SYNC_SAMPLE",
    "ACTION_TC_COMMIT",
    "ACTION_TC_SAMPLE",
    "PhaseSchedule",
    "RumorState",
    "spread_rumor_agents",
    "spread_rumor_counts",
    "default_delta",
    "default_phase_count",
    "default_sync_samples",
    "SyncSampleBuffer",
    "jump_target",
    "median_of_samples",
    "ThreeMajorityCounts",
    "ThreeMajoritySequential",
    "ThreeMajoritySequentialCounts",
    "ThreeMajoritySynchronous",
    "TwoChoicesCounts",
    "TwoChoicesSequential",
    "TwoChoicesSequentialCounts",
    "TwoChoicesSynchronous",
    "UndecidedStateCounts",
    "UndecidedStateSequential",
    "UndecidedStateSequentialCounts",
    "UndecidedStateSynchronous",
    "VoterCounts",
    "VoterSequential",
    "VoterSequentialCounts",
    "VoterSynchronous",
]
