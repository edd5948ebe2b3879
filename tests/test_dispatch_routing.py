"""The DESIGN.md engine routing table, executable.

One parametrized test per cell of `fastest_engine`'s routing table:
protocol family x model x topology x n_reps, asserting the *exact*
engine class returned (not just "some engine that runs").  If a new
fast path changes the routing, this file is the spec that must change
with it.
"""

import pytest

from repro.core.exceptions import ConfigurationError
from repro.engine.continuous import ContinuousEngine
from repro.engine.counts import CountsEngine
from repro.engine.counts_async import CountsContinuousEngine, CountsSequentialEngine
from repro.engine.delays import ExponentialDelay, FixedDelay
from repro.engine.dispatch import COUNTS_TICK_CROSSOVER, fastest_engine
from repro.engine.ensemble import (
    EnsembleCountsContinuousEngine,
    EnsembleCountsEngine,
    EnsembleCountsSequentialEngine,
)
from repro.engine.sequential import SequentialEngine
from repro.engine.synchronous import SynchronousEngine
from repro.graphs.complete import CompleteGraph
from repro.graphs.dynamic import ChurnTopology
from repro.graphs.sparse import ring
from repro.protocols.async_plurality import AsyncPluralityProtocol
from repro.protocols.faults import ByzantineProtocol, StubbornProtocol
from repro.protocols.lossy import LossyProtocol
from repro.protocols.one_extra_bit import OneExtraBitCounts, OneExtraBitSynchronous
from repro.protocols.three_majority import ThreeMajorityCounts, ThreeMajoritySequential
from repro.protocols.two_choices import (
    TwoChoicesCounts,
    TwoChoicesSequential,
    TwoChoicesSequentialCounts,
    TwoChoicesSynchronous,
)
from repro.protocols.undecided_state import UndecidedStateCounts, UndecidedStateSequential
from repro.protocols.voter import VoterCounts, VoterSequential

K_N = CompleteGraph(64)
# K_n tick specs take the counts companion from n * n_reps >=
# COUNTS_TICK_CROSSOVER: graphs at and just below it, for one run and
# for R = 8 stacked replications (complete graphs cost nothing to build).
R = 8
BIG_K_N = CompleteGraph(COUNTS_TICK_CROSSOVER)
SUB_K_N = CompleteGraph(COUNTS_TICK_CROSSOVER - 1)
BIG_K_N_R = CompleteGraph(-(-COUNTS_TICK_CROSSOVER // R))
SUB_K_N_R = CompleteGraph(-(-COUNTS_TICK_CROSSOVER // R) - 1)
RING = ring(64)
# Off K_n the size does not route: a big ring takes the same per-tick
# engines as a small one (CSR rings are cheap to build at this size).
BIG_RING = ring(30_000)
DYNAMIC_RING = ChurnTopology(ring(64), churn_rate=0.1)
BIG_DYNAMIC_RING = ChurnTopology(ring(30_000), churn_rate=0.1)


def _lossy():
    return LossyProtocol(TwoChoicesSequential(), 0.2)


def _stubborn():
    return StubbornProtocol(TwoChoicesSequential(), 0.1)


def _byzantine():
    return ByzantineProtocol(TwoChoicesSequential(), 0.1)


def _stubborn_lossy():
    return StubbornProtocol(LossyProtocol(TwoChoicesSequential(), 0.2), 0.1)

# (case id, protocol factory, model, topology, delay, n_reps, expected engine class)
ROUTING_TABLE = [
    # --- synchronous model ------------------------------------------------
    ("counts/sync/K_n/1", TwoChoicesCounts, "synchronous", K_N, None, 1, CountsEngine),
    ("counts/sync/K_n/R", TwoChoicesCounts, "synchronous", K_N, None, 8, EnsembleCountsEngine),
    ("counts-voter/sync/K_n/R", VoterCounts, "synchronous", K_N, None, 8, EnsembleCountsEngine),
    ("counts-3maj/sync/K_n/R", ThreeMajorityCounts, "synchronous", K_N, None, 8, EnsembleCountsEngine),
    ("counts-usd/sync/K_n/R", UndecidedStateCounts, "synchronous", K_N, None, 8, EnsembleCountsEngine),
    # OneExtraBit's (R, 2k+1) round hook stacks replications like the others.
    ("counts-oeb/sync/K_n/1", OneExtraBitCounts, "synchronous", K_N, None, 1, CountsEngine),
    ("counts-oeb/sync/K_n/R", OneExtraBitCounts, "synchronous", K_N, None, 8, EnsembleCountsEngine),
    # Agent-level synchronous protocols run the reference engine anywhere.
    ("agent/sync/K_n/1", TwoChoicesSynchronous, "synchronous", K_N, None, 1, SynchronousEngine),
    ("agent/sync/ring/1", TwoChoicesSynchronous, "synchronous", RING, None, 1, SynchronousEngine),
    ("agent/sync/ring/R", TwoChoicesSynchronous, "synchronous", RING, None, 8, SynchronousEngine),
    ("agent-oeb/sync/ring/1", OneExtraBitSynchronous, "synchronous", RING, None, 1, SynchronousEngine),
    # --- sequential model -------------------------------------------------
    # Tick protocols with a counts companion upgrade on K_n from the
    # counts crossover in n * n_reps; below it the per-tick agent engine
    # wins (run_replicated loops it for reps > 1) ...
    ("seq/K_n/1", TwoChoicesSequential, "sequential", K_N, None, 1, SequentialEngine),
    ("seq/K_n/R", TwoChoicesSequential, "sequential", K_N, None, R, SequentialEngine),
    ("seq/sub-K_n/1", TwoChoicesSequential, "sequential", SUB_K_N, None, 1, SequentialEngine),
    ("seq/sub-K_n/R", TwoChoicesSequential, "sequential", SUB_K_N_R, None, R, SequentialEngine),
    ("seq/big-K_n/1", TwoChoicesSequential, "sequential", BIG_K_N, None, 1, CountsSequentialEngine),
    ("seq/big-K_n/R", TwoChoicesSequential, "sequential", BIG_K_N_R, None, R, EnsembleCountsSequentialEngine),
    # n alone does not decide: a graph below the crossover for one run
    # crosses it with enough replications.
    ("seq/big-K_n-R/1", TwoChoicesSequential, "sequential", BIG_K_N_R, None, 1, SequentialEngine),
    ("seq-voter/K_n/1", VoterSequential, "sequential", K_N, None, 1, SequentialEngine),
    ("seq-voter/K_n/R", VoterSequential, "sequential", K_N, None, R, SequentialEngine),
    ("seq-voter/big-K_n/1", VoterSequential, "sequential", BIG_K_N, None, 1, CountsSequentialEngine),
    ("seq-voter/big-K_n/R", VoterSequential, "sequential", BIG_K_N_R, None, R, EnsembleCountsSequentialEngine),
    ("seq-3maj/K_n/R", ThreeMajoritySequential, "sequential", K_N, None, R, SequentialEngine),
    ("seq-3maj/sub-K_n/R", ThreeMajoritySequential, "sequential", SUB_K_N_R, None, R, SequentialEngine),
    ("seq-3maj/big-K_n/R", ThreeMajoritySequential, "sequential", BIG_K_N_R, None, R, EnsembleCountsSequentialEngine),
    ("seq-usd/K_n/R", UndecidedStateSequential, "sequential", K_N, None, R, SequentialEngine),
    ("seq-usd/sub-K_n/1", UndecidedStateSequential, "sequential", SUB_K_N, None, 1, SequentialEngine),
    ("seq-usd/big-K_n/1", UndecidedStateSequential, "sequential", BIG_K_N, None, 1, CountsSequentialEngine),
    ("seq-usd/big-K_n/R", UndecidedStateSequential, "sequential", BIG_K_N_R, None, R, EnsembleCountsSequentialEngine),
    # ... while counts tick protocols route there directly at any size.
    ("seq-counts/K_n/1", TwoChoicesSequentialCounts, "sequential", K_N, None, 1, CountsSequentialEngine),
    ("seq-counts/K_n/R", TwoChoicesSequentialCounts, "sequential", K_N, None, R, EnsembleCountsSequentialEngine),
    # Off K_n every tick protocol runs on SequentialEngine at every n;
    # footprint protocols take its hazard-batched blocks, the others
    # its per-tick loop.  run_replicated loops it for reps.
    ("seq/ring/1", TwoChoicesSequential, "sequential", RING, None, 1, SequentialEngine),
    ("seq/ring/R", TwoChoicesSequential, "sequential", RING, None, 8, SequentialEngine),
    ("seq-voter/ring/1", VoterSequential, "sequential", RING, None, 1, SequentialEngine),
    ("seq-3maj/ring/1", ThreeMajoritySequential, "sequential", RING, None, 1, SequentialEngine),
    ("seq-usd/ring/1", UndecidedStateSequential, "sequential", RING, None, 1, SequentialEngine),
    ("seq/big-ring/1", TwoChoicesSequential, "sequential", BIG_RING, None, 1, SequentialEngine),
    ("seq/big-ring/R", TwoChoicesSequential, "sequential", BIG_RING, None, 8, SequentialEngine),
    ("seq-voter/big-ring/1", VoterSequential, "sequential", BIG_RING, None, 1, SequentialEngine),
    ("seq-3maj/big-ring/1", ThreeMajoritySequential, "sequential", BIG_RING, None, 1, SequentialEngine),
    ("seq-usd/big-ring/1", UndecidedStateSequential, "sequential", BIG_RING, None, 1, SequentialEngine),
    # No footprint (phase-dependent sampling): the per-tick reference
    # engine remains the only exact option off K_n.
    ("seq-async-plurality/ring/1", AsyncPluralityProtocol, "sequential", RING, None, 1, SequentialEngine),
    # No counts companion (the phased protocol): agent engine even on K_n.
    ("seq-async-plurality/K_n/1", AsyncPluralityProtocol, "sequential", K_N, None, 1, SequentialEngine),
    ("seq-async-plurality/K_n/R", AsyncPluralityProtocol, "sequential", K_N, None, 8, SequentialEngine),
    ("seq-async-plurality/big-K_n/1", AsyncPluralityProtocol, "sequential", BIG_K_N, None, 1, SequentialEngine),
    # --- fault wrappers ---------------------------------------------------
    # Wrappers never expose a counts companion (per-node masks have no
    # counts-level law), so even on K_n the agent engines run.  Lossy
    # has no footprint — its sampling depends on the loss draws — so it
    # takes SequentialEngine's per-tick loop; the mask-based wrappers
    # delegate the inner footprint and take its hazard-batched blocks.
    ("fault-lossy/K_n/1", _lossy, "sequential", K_N, None, 1, SequentialEngine),
    ("fault-lossy/ring/1", _lossy, "sequential", RING, None, 1, SequentialEngine),
    ("fault-lossy/big-ring/1", _lossy, "sequential", BIG_RING, None, 1, SequentialEngine),
    ("fault-lossy/ring/cont", _lossy, "continuous", RING, None, 1, ContinuousEngine),
    ("fault-stubborn/K_n/1", _stubborn, "sequential", K_N, None, 1, SequentialEngine),
    ("fault-stubborn/big-K_n/1", _stubborn, "sequential", BIG_K_N, None, 1, SequentialEngine),
    ("fault-stubborn/ring/1", _stubborn, "sequential", RING, None, 1, SequentialEngine),
    ("fault-stubborn/big-ring/1", _stubborn, "sequential", BIG_RING, None, 1, SequentialEngine),
    ("fault-stubborn/ring/cont", _stubborn, "continuous", RING, None, 1, ContinuousEngine),
    ("fault-byzantine/big-ring/1", _byzantine, "sequential", BIG_RING, None, 1, SequentialEngine),
    # Composition inherits the innermost footprint-less seam: a lossy
    # layer anywhere in the stack pins the per-tick engine.
    ("fault-stubborn-lossy/big-ring/1", _stubborn_lossy, "sequential", BIG_RING, None, 1, SequentialEngine),
    # --- dynamic topologies -----------------------------------------------
    # The epoch clock rides SequentialEngine's block loop (ChurnTopology
    # keeps the CSR presampling fast path).
    ("dynamic-ring/seq/1", TwoChoicesSequential, "sequential", DYNAMIC_RING, None, 1, SequentialEngine),
    ("dynamic-ring/seq/R", TwoChoicesSequential, "sequential", DYNAMIC_RING, None, 8, SequentialEngine),
    ("dynamic-big-ring/seq/1", TwoChoicesSequential, "sequential", BIG_DYNAMIC_RING, None, 1, SequentialEngine),
    ("dynamic-ring/seq/stubborn", _stubborn, "sequential", DYNAMIC_RING, None, 1, SequentialEngine),
    # --- continuous model -------------------------------------------------
    # The counts crossover applies to the Poisson-clock model too; below
    # it and off K_n ContinuousEngine runs.
    ("cont/K_n/1", TwoChoicesSequential, "continuous", K_N, None, 1, ContinuousEngine),
    ("cont/K_n/R", TwoChoicesSequential, "continuous", K_N, None, R, ContinuousEngine),
    ("cont/sub-K_n/1", TwoChoicesSequential, "continuous", SUB_K_N, None, 1, ContinuousEngine),
    ("cont/sub-K_n/R", TwoChoicesSequential, "continuous", SUB_K_N_R, None, R, ContinuousEngine),
    ("cont/big-K_n/1", TwoChoicesSequential, "continuous", BIG_K_N, None, 1, CountsContinuousEngine),
    ("cont/big-K_n/R", TwoChoicesSequential, "continuous", BIG_K_N_R, None, R, EnsembleCountsContinuousEngine),
    ("cont-3maj/big-K_n/R", ThreeMajoritySequential, "continuous", BIG_K_N_R, None, R, EnsembleCountsContinuousEngine),
    ("cont-usd/sub-K_n/R", UndecidedStateSequential, "continuous", SUB_K_N_R, None, R, ContinuousEngine),
    ("cont-counts/K_n/1", TwoChoicesSequentialCounts, "continuous", K_N, None, 1, CountsContinuousEngine),
    ("cont/ring/1", TwoChoicesSequential, "continuous", RING, None, 1, ContinuousEngine),
    ("cont-async-plurality/ring/1", AsyncPluralityProtocol, "continuous", RING, None, 1, ContinuousEngine),
    # A zero delay model keeps the batched fast paths ...
    ("cont-zero-delay/K_n/1", TwoChoicesSequential, "continuous", K_N, FixedDelay(0.0), 1, ContinuousEngine),
    ("cont-zero-delay/big-K_n/1", TwoChoicesSequential, "continuous", BIG_K_N, FixedDelay(0.0), 1, CountsContinuousEngine),
    ("cont-zero-delay/ring/1", TwoChoicesSequential, "continuous", RING, FixedDelay(0.0), 1, ContinuousEngine),
    # ... a real one forces the event-queue reference engine.
    ("cont-delay/K_n/1", TwoChoicesSequential, "continuous", K_N, ExponentialDelay(1.0), 1, ContinuousEngine),
    ("cont-delay/K_n/R", TwoChoicesSequential, "continuous", K_N, ExponentialDelay(1.0), 8, ContinuousEngine),
    ("cont-delay/big-K_n/1", TwoChoicesSequential, "continuous", BIG_K_N, ExponentialDelay(1.0), 1, ContinuousEngine),
    ("cont-delay/ring/1", TwoChoicesSequential, "continuous", RING, ExponentialDelay(1.0), 1, ContinuousEngine),
    ("cont-async-plurality/K_n/1", AsyncPluralityProtocol, "continuous", K_N, None, 1, ContinuousEngine),
]


@pytest.mark.parametrize(
    "factory,model,topology,delay,n_reps,expected",
    [pytest.param(*row[1:], id=row[0]) for row in ROUTING_TABLE],
)
def test_routing_table_cell(factory, model, topology, delay, n_reps, expected):
    engine = fastest_engine(factory(), topology, model=model, delay_model=delay, n_reps=n_reps)
    assert type(engine) is expected


# (case id, protocol factory, model, topology, delay, n_reps, error match)
REJECTION_TABLE = [
    ("counts-needs-K_n", TwoChoicesCounts, "synchronous", RING, None, 1, "needs K_n"),
    ("seq-counts-needs-K_n", TwoChoicesSequentialCounts, "sequential", RING, None, 1, "needs K_n"),
    ("sync-rejects-delays", TwoChoicesCounts, "synchronous", K_N, ExponentialDelay(1.0), 1, "delay"),
    ("seq-rejects-delays", TwoChoicesSequential, "sequential", K_N, ExponentialDelay(1.0), 1, "delay"),
    ("counts-protocol-lacks-sync", TwoChoicesSequentialCounts, "synchronous", K_N, None, 1, "synchronous"),
    ("sync-protocol-lacks-seq", TwoChoicesSynchronous, "sequential", K_N, None, 1, "sequential"),
    ("unknown-model", TwoChoicesSequential, "adiabatic", K_N, None, 1, "unknown model"),
    ("bad-n-reps", TwoChoicesSequential, "sequential", K_N, None, 0, "n_reps"),
    # Dynamic topologies advance on a tick-epoch clock: only the
    # sequential engines cut their blocks at epoch boundaries.
    ("dynamic-rejects-continuous", TwoChoicesSequential, "continuous", DYNAMIC_RING, None, 1, "tick-epoch"),
    ("dynamic-rejects-synchronous", TwoChoicesSynchronous, "synchronous", DYNAMIC_RING, None, 1, "tick-epoch"),
]


@pytest.mark.parametrize(
    "factory,model,topology,delay,n_reps,match",
    [pytest.param(*row[1:], id=row[0]) for row in REJECTION_TABLE],
)
def test_routing_table_rejections(factory, model, topology, delay, n_reps, match):
    with pytest.raises(ConfigurationError, match=match):
        fastest_engine(factory(), topology, model=model, delay_model=delay, n_reps=n_reps)
