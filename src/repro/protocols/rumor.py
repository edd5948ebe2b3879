"""Rumour spreading: push, pull, and push–pull broadcast.

The paper's speed-up comes from combining Two-Choices "with the speed
of broadcasting" (Section 2) — Bit-Propagation *is* a pull-style rumour
spreading of the bit.  This module implements the three classic
broadcast primitives as standalone protocols so the substrate can be
validated independently (experiment S1: informed counts double per
round; completion in Θ(log n) rounds):

* **push** — every informed node tells one uniform neighbour;
* **pull** — every uninformed node asks one uniform neighbour;
* **push–pull** — both per round (Karp et al.'s `log₃ n + O(log log n)`
  classic).

Agent-based variants run on any topology; the counts-level variant is
exact on ``K_n``: pull infections are a binomial draw, and push
infections sample the occupancy law directly (``m`` uniform throws into
the uninformed set, counting distinct bins hit — simulated exactly in
O(m)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.exceptions import ConfigurationError
from ..core.results import RunResult, Trace
from ..core.rng import SeedLike, as_generator
from ..engine.base import build_result
from ..graphs.topology import Topology

__all__ = ["RumorState", "spread_rumor_agents", "spread_rumor_counts"]

_MODES = ("push", "pull", "push-pull")


@dataclass
class RumorState:
    """Informed/uninformed bitmap over the node set."""

    informed: np.ndarray

    def __post_init__(self):
        self.informed = np.asarray(self.informed, dtype=bool)
        if self.informed.ndim != 1 or self.informed.size == 0:
            raise ConfigurationError("informed must be a non-empty 1-D bool array")
        if not self.informed.any():
            raise ConfigurationError("at least one node must start informed")

    @property
    def n(self) -> int:
        return self.informed.size

    @property
    def count(self) -> int:
        return int(self.informed.sum())

    def all_informed(self) -> bool:
        return bool(self.informed.all())


def _check_mode(mode: str) -> None:
    if mode not in _MODES:
        raise ConfigurationError(f"mode must be one of {_MODES}, got {mode!r}")


def _push_round_agents(state: RumorState, topology: Topology, rng: np.random.Generator) -> None:
    informed_nodes = np.flatnonzero(state.informed)
    targets = topology.sample_neighbors_block(informed_nodes, 1, rng)[:, 0]
    state.informed[targets] = True


def _pull_round_agents(state: RumorState, topology: Topology, rng: np.random.Generator, snapshot: np.ndarray) -> None:
    uninformed_nodes = np.flatnonzero(~state.informed)
    if uninformed_nodes.size == 0:
        return
    targets = topology.sample_neighbors_block(uninformed_nodes, 1, rng)[:, 0]
    hits = snapshot[targets]
    state.informed[uninformed_nodes[hits]] = True


def spread_rumor_agents(
    topology: Topology,
    mode: str = "push-pull",
    source: int = 0,
    max_rounds: int = 10_000,
    seed: SeedLike = None,
    record_trace: bool = True,
) -> RunResult:
    """Run broadcast rounds until everyone is informed.

    Returns a :class:`RunResult` whose two "colours" are
    ``(informed, uninformed)`` counts; ``rounds``/``parallel_time`` is
    the number of synchronous rounds used; the optional trace records
    the informed count per round (the doubling curve).
    """
    _check_mode(mode)
    rng = as_generator(seed)
    n = topology.n
    if not 0 <= source < n:
        raise ConfigurationError(f"source {source} out of range 0..{n - 1}")
    informed = np.zeros(n, dtype=bool)
    informed[source] = True
    state = RumorState(informed=informed)
    trace = Trace() if record_trace else None
    if trace is not None:
        trace.record(0, [state.count, n - state.count])

    rounds = 0
    while not state.all_informed() and rounds < max_rounds:
        snapshot = state.informed.copy()
        if mode in ("push", "push-pull"):
            _push_round_agents(state, topology, rng)
        if mode in ("pull", "push-pull"):
            _pull_round_agents(state, topology, rng, snapshot)
        rounds += 1
        if trace is not None:
            trace.record(rounds, [state.count, n - state.count])

    count = state.count
    return build_result(
        converged=state.all_informed(),
        initial_counts=np.array([1, n - 1]),
        final_counts=np.array([count, n - count]),
        rounds=rounds,
        parallel_time=float(rounds),
        trace=trace,
        metadata={"engine": "rumor/agents", "protocol": f"rumor/{mode}"},
    )


def _push_round_counts(informed: int, n: int, rng: np.random.Generator) -> int:
    """Newly informed nodes from one push round on ``K_n`` (exact).

    Each of the ``informed`` nodes throws one ball at a uniform
    neighbour; a throw lands in the uninformed set with probability
    ``U / (n - 1)``, and distinct uninformed targets become informed.
    """
    uninformed = n - informed
    if uninformed == 0:
        return 0
    hits = rng.binomial(informed, uninformed / (n - 1))
    if hits == 0:
        return 0
    # Occupancy: `hits` uniform throws into `uninformed` bins; the
    # number of distinct bins hit is sampled exactly by simulation.
    return int(np.unique(rng.integers(0, uninformed, size=hits)).size)


def _pull_round_counts(informed: int, n: int, rng: np.random.Generator) -> int:
    """Newly informed nodes from one pull round on ``K_n`` (exact)."""
    uninformed = n - informed
    if uninformed == 0:
        return 0
    # Each uninformed node asks one uniform neighbour; it gets the
    # rumour iff the neighbour is informed: Binomial(U, I/(n-1)).
    return int(rng.binomial(uninformed, informed / (n - 1)))


def spread_rumor_counts(
    n: int,
    mode: str = "push-pull",
    initial_informed: int = 1,
    max_rounds: int = 10_000,
    seed: SeedLike = None,
    record_trace: bool = True,
) -> RunResult:
    """Exact counts-level broadcast on ``K_n`` (scales to huge ``n``)."""
    _check_mode(mode)
    if n < 2:
        raise ConfigurationError(f"n must be >= 2, got {n}")
    if not 1 <= initial_informed <= n:
        raise ConfigurationError(f"initial_informed must be in 1..{n}")
    rng = as_generator(seed)
    informed = initial_informed
    trace = Trace() if record_trace else None
    if trace is not None:
        trace.record(0, [informed, n - informed])

    rounds = 0
    while informed < n and rounds < max_rounds:
        snapshot = informed
        if mode in ("push", "push-pull"):
            informed += _push_round_counts(snapshot, n, rng)
        if mode in ("pull", "push-pull"):
            # Pull reads the same pre-round snapshot (simultaneity).
            gained = _pull_round_counts(snapshot, n, rng)
            informed = min(n, informed + _pull_overlap_correction(snapshot, informed, gained, n, rng))
        rounds += 1
        if trace is not None:
            trace.record(rounds, [informed, n - informed])

    return build_result(
        converged=informed == n,
        initial_counts=np.array([initial_informed, n - initial_informed]),
        final_counts=np.array([informed, n - informed]),
        rounds=rounds,
        parallel_time=float(rounds),
        trace=trace,
        metadata={"engine": "rumor/counts", "protocol": f"rumor/{mode}"},
    )


def _pull_overlap_correction(snapshot: int, informed_after_push: int, pull_gains: int, n: int, rng: np.random.Generator) -> int:
    """Resolve push/pull overlap in a combined round, exactly.

    ``pull_gains`` uninformed nodes learned the rumour by pulling; some
    of them may be the same nodes that were just pushed to.  Each
    pulled node is a uniform member of the pre-round uninformed set, of
    which ``informed_after_push - snapshot`` were already pushed to, so
    the number of *new* nodes among the pullers is hypergeometric.
    """
    if pull_gains == 0:
        return 0
    uninformed_before = n - snapshot
    pushed = informed_after_push - snapshot
    if pushed == 0:
        return pull_gains
    fresh = rng.hypergeometric(uninformed_before - pushed, pushed, pull_gains)
    return int(fresh)
