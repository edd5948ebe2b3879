"""Undecided-State Dynamics (USD) — third-state baseline.

The population-protocol classic (Angluin et al.; analysed for gossip
plurality consensus by Becchetti et al., SODA'15): nodes are *decided*
(hold a colour) or *undecided*.  A node samples one neighbour:

* a decided node that samples a *different decided* colour becomes
  undecided (conflicting evidence);
* a decided node that samples its own colour or an undecided node keeps
  its colour;
* an undecided node adopts the colour of a sampled decided node and
  stays undecided when it samples another undecided node.

State encoding: colours ``0..k-1`` plus the extra label ``k`` for
"undecided"; counts vectors reported by these protocols therefore have
``k + 1`` entries with the undecided bucket **last**.  Note the
all-undecided configuration is absorbing — it is reached only with
vanishing probability from biased starts, but budget-bounded callers
should check for it (``is_absorbed`` does).  Both absorbing kinds are
exactly the label histograms with one non-empty bucket, so the counts
realisations keep the default fixed-point test.
"""

from __future__ import annotations

import numpy as np

from ..api.registry import register_protocol
from ..core.colors import ColorConfiguration
from ..core.state import NodeArrayState
from .base import (
    CountsProtocol,
    SequentialCountsProtocol,
    SequentialProtocol,
    TickFootprint,
    diagonals,
    draw_classes,
    self_excluded_sample_probabilities_ensemble,
)

__all__ = [
    "UndecidedStateCounts",
    "UndecidedStateSequential",
    "UndecidedStateSequentialCounts",
]


class UndecidedStateCounts(CountsProtocol):
    """Exact counts-level USD on ``K_n``.

    Counts state: ``int64[k + 1]`` with the undecided bucket last.
    """

    name = "undecided-state/counts"

    def init_counts(self, config: ColorConfiguration) -> np.ndarray:
        return np.asarray(list(config.counts) + [0], dtype=np.int64)

    def step_ensemble(self, states: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        # Every node makes one tick move from the pre-round histogram.
        # A decided row has two non-zero slots, its own colour and the
        # undecided slot, so its multinomial is exactly one binomial.
        pvals = UndecidedStateSequentialCounts().tick_transition_matrices(states)
        undecided = pvals[:, -1]
        undecided /= undecided.sum(axis=-1, keepdims=True)
        return draw_classes(rng, states, pvals).sum(axis=0)


class UndecidedStateSequential(SequentialProtocol):
    """Tick-based USD: the asynchronous engines and agent rounds."""

    name = "undecided-state/seq"
    # One state-independent uniform sample; the update also reads the
    # acting node's own colour (decided vs undecided branch).
    tick_footprint = TickFootprint(samples=1, reads_own=True)
    tick_kernel = "undecided-state"

    def make_state(self, colors: np.ndarray, k: int) -> NodeArrayState:
        # Widen the label space by one for the undecided label.
        return NodeArrayState(colors=np.asarray(colors, dtype=np.int64), k=k + 1)

    def tick_rule(self, state: NodeArrayState, colors: list, nodes: list, columns: list) -> list:
        undecided = state.k - 1
        written = []
        for node, target in zip(nodes, columns[0]):
            own = colors[node]
            seen = colors[target]
            if own == undecided:
                if seen != undecided:
                    colors[node] = seen
                    written.append(node)
            elif seen != undecided and seen != own:
                colors[node] = undecided
                written.append(node)
        return written

    def is_absorbed(self, state: NodeArrayState) -> bool:
        counts = state.counts()
        support = int(np.count_nonzero(counts[:-1]))
        # Absorbing states: one decided colour with no undecided mass,
        # or everyone undecided.
        return (support <= 1 and counts[-1] == 0) or support == 0

    def tick_values(self, state: NodeArrayState, own: np.ndarray, observed: np.ndarray) -> np.ndarray:
        undecided = state.k - 1
        seen = observed[:, 0]
        decided_seen = seen != undecided
        own_undecided = own == undecided
        values = np.where(own_undecided & decided_seen, seen, own)
        clash = ~own_undecided & decided_seen & (seen != own)
        return np.where(clash, undecided, values)

    def as_sequential_counts(self) -> "UndecidedStateSequentialCounts":
        return UndecidedStateSequentialCounts()


class UndecidedStateSequentialCounts(SequentialCountsProtocol):
    """Exact counts-level tick law of sequential USD on ``K_n``.

    Label space: colours ``0..k-1`` plus the undecided bucket last,
    matching the other USD realisations.  With ``q`` the self-excluded
    sample distribution of an acting label-``i`` node:

    * decided ``i``: stays with probability ``q_i + q_undecided``, turns
      undecided otherwise (a different decided sample);
    * undecided: adopts decided ``j`` with probability ``q_j``, stays
      undecided with probability ``q_undecided``.
    """

    name = "undecided-state/seq-counts"

    def init_counts(self, config: ColorConfiguration) -> np.ndarray:
        return np.asarray(list(config.counts) + [0], dtype=np.int64)

    def tick_transition_matrices(self, states: np.ndarray) -> np.ndarray:
        states = np.asarray(states)
        reps, m = states.shape
        undecided = m - 1
        q = self_excluded_sample_probabilities_ensemble(states)
        transition = np.zeros((reps, m, m))
        stay = np.add(diagonals(q)[:, :undecided], q[:, :undecided, undecided])
        np.minimum(np.maximum(stay, 0.0, out=stay), 1.0, out=stay)
        diagonals(transition)[:, :undecided] = stay
        transition[:, :undecided, undecided] = 1.0 - stay
        transition[:, undecided, :] = q[:, undecided, :]
        return transition


register_protocol(
    "undecided-state",
    description="Undecided-State Dynamics: clash with a disagreeing neighbour, then re-adopt",
    counts=UndecidedStateCounts,
    synchronous=UndecidedStateSequential,
    sequential=UndecidedStateSequential,
)
