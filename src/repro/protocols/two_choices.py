"""The Two-Choices plurality-consensus protocol.

Cooper, Elsässer & Radzik's process (the paper's reference [2]) and the
object of Theorem 1.1: a node samples two neighbours uniformly at
random, with replacement, and adopts their colour if and only if the
two sampled colours coincide.

Three interchangeable realisations are provided:

* :class:`TwoChoicesCounts` — the exact counts-level transition on
  ``K_n``: a node of colour ``i`` adopts colour ``j`` with probability
  ``((c_j - [i == j]) / (n - 1))^2`` and keeps its colour otherwise, so
  a round is a sum of per-colour-class multinomials.
* :class:`TwoChoicesSequential` — the tick-based rule used by the
  sequential and continuous asynchronous engines (and by the endgame of
  the paper's main protocol); its round, every node ticking at once on
  the pre-round state, is the agent-based synchronous model on any
  topology.
* :class:`TwoChoicesSequentialCounts` — the exact counts-level *tick*
  law on ``K_n`` for the batched asynchronous engines
  (:mod:`repro.engine.counts_async`): an acting node of colour ``i``
  switches to ``j != i`` with probability ``((c_j - [i == j]) / (n - 1))^2``.
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
    "TwoChoicesCounts",
    "TwoChoicesSequential",
    "TwoChoicesSequentialCounts",
]


class TwoChoicesCounts(CountsProtocol):
    """Exact counts-level Two-Choices on ``K_n``.

    The counts state is the plain ``int64[k]`` histogram.
    """

    name = "two-choices/counts"

    def init_counts(self, config: ColorConfiguration) -> np.ndarray:
        return np.asarray(config.counts, dtype=np.int64)

    def step_ensemble(self, states: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """A colour-``i`` node's outcome slots ``0..k-1`` hold the adopt
        probabilities, slot ``k`` the keep mass."""
        reps, k = states.shape
        # Sampling excludes the caller itself: a colour-i node sees
        # colour-j mass (c_j - [i == j]) among its n-1 neighbours.
        q = self_excluded_sample_probabilities_ensemble(states)
        pvals = np.empty((reps, k, k + 1))
        adopt = np.multiply(q, q, out=pvals[..., :k])
        pvals[..., k] = 1.0 - adopt.sum(axis=-1)
        clipped = pvals[..., k] < 0.0
        if clipped.any():
            # Float error pushed the adopt mass past one; clip and
            # renormalise (only then is the division needed).
            pvals[clipped, k] = 0.0
            pvals[clipped] /= pvals[clipped].sum(axis=-1, keepdims=True)
        draws = draw_classes(rng, states, pvals)
        return draws[..., :k].sum(axis=0) + draws[..., k].T


class TwoChoicesSequential(SequentialProtocol):
    """Tick-based Two-Choices: the asynchronous engines and agent rounds."""

    name = "two-choices/seq"
    # Two state-independent uniform samples; writes only the acting
    # node; the decision never reads the actor's own colour.
    tick_footprint = TickFootprint(samples=2, reads_own=False)
    tick_kernel = "two-choices"

    def tick_rule(self, state: NodeArrayState, colors: list, nodes: list, columns: list) -> list:
        written = []
        for node, first, second in zip(nodes, *columns):
            seen = colors[first]
            if seen == colors[second] and seen != colors[node]:
                colors[node] = seen
                written.append(node)
        return written

    def tick_values(self, state: NodeArrayState, own: np.ndarray, observed: np.ndarray) -> np.ndarray:
        first = observed[:, 0]
        return np.where(first == observed[:, 1], first, own)

    def as_sequential_counts(self) -> "TwoChoicesSequentialCounts":
        return TwoChoicesSequentialCounts()


class TwoChoicesSequentialCounts(SequentialCountsProtocol):
    """Exact counts-level tick law of sequential Two-Choices on ``K_n``.

    ``P[i, j] = q_j^2`` for ``j != i`` where ``q`` is the self-excluded
    sample distribution of a colour-``i`` node; the diagonal carries the
    keep mass (own colour, or the two samples disagreed).
    """

    name = "two-choices/seq-counts"

    def init_counts(self, config: ColorConfiguration) -> np.ndarray:
        return np.asarray(config.counts, dtype=np.int64)

    def tick_transition_matrices(self, states: np.ndarray) -> np.ndarray:
        q = self_excluded_sample_probabilities_ensemble(states)
        transition = np.multiply(q, q, out=q)
        diagonal = diagonals(transition)
        diagonal[...] = 0.0
        keep = np.subtract(1.0, transition.sum(axis=-1))
        diagonal[...] = np.minimum(np.maximum(keep, 0.0, out=keep), 1.0, out=keep)
        return transition


register_protocol(
    "two-choices",
    description="Sample two uniform neighbours; switch iff their colours agree (Theorem 1.1)",
    counts=TwoChoicesCounts,
    synchronous=TwoChoicesSequential,
    sequential=TwoChoicesSequential,
)
