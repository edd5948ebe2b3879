"""The 3-Majority dynamics — standard plurality-consensus baseline.

A node samples three neighbours (uniformly, with replacement) and
adopts the majority colour among the three samples; if all three
samples are distinct it adopts the first sample's colour (the common
random-tie-break variant, e.g. Becchetti et al., SODA'16).

The counts-level transition on ``K_n`` is exact: with per-group sample
probabilities ``q_j`` the adopted colour is ``j`` with probability

    P(adopt j) = q_j^3 + 3 q_j^2 (1 - q_j) + q_j * [(1 - q_j)^2 - (S2 - q_j^2)]

where ``S2 = sum_a q_a^2`` — the three terms are "all three ``j``",
"exactly two ``j``", and "all distinct with first sample ``j``".
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
    draw_classes,
    self_excluded_sample_probabilities_ensemble,
)

__all__ = [
    "ThreeMajorityCounts",
    "ThreeMajoritySequential",
    "ThreeMajoritySequentialCounts",
]


def _adoption_probabilities(q: np.ndarray) -> np.ndarray:
    """P(adopted colour = j) for one node with sample distribution *q*.

    Vectorised over rows when *q* is 2-D (one row per actor colour);
    the three terms are "all three j", "exactly two j", and "all three
    distinct with first sample j" (see the module docstring).
    """
    s2 = np.sum(q * q, axis=-1, keepdims=True)
    adopt = q**3 + 3.0 * q**2 * (1.0 - q) + q * ((1.0 - q) ** 2 - (s2 - q**2))
    return np.maximum(adopt, 0.0, out=adopt)


def _majority_of_three(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Vectorised majority with first-sample tie-break."""
    out = a.copy()
    # b wins when it pairs with c against a lone a.
    out = np.where((b == c) & (a != b), b, out)
    return out


class ThreeMajorityCounts(CountsProtocol):
    """Exact counts-level 3-Majority on ``K_n``."""

    name = "three-majority/counts"

    def init_counts(self, config: ColorConfiguration) -> np.ndarray:
        return np.asarray(config.counts, dtype=np.int64)

    def step_ensemble(self, states: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        # Every node makes one tick move from the pre-round histogram.
        adopt = ThreeMajoritySequentialCounts().tick_transition_matrices(states)
        return draw_classes(rng, states, adopt).sum(axis=0)


class ThreeMajoritySequential(SequentialProtocol):
    """Tick-based 3-Majority: the asynchronous engines and agent rounds."""

    name = "three-majority/seq"
    # Three state-independent uniform samples; always adopts one of
    # them, so the actor's own colour is never read.
    tick_footprint = TickFootprint(samples=3, reads_own=False)
    tick_kernel = "three-majority"

    def tick_rule(self, state: NodeArrayState, colors: list, nodes: list, columns: list) -> list:
        written = []
        for node, first, second, third in zip(nodes, *columns):
            a = colors[first]
            b = colors[second]
            # Majority of three, first-sample tie-break.
            value = b if b == colors[third] and a != b else a
            if value != colors[node]:
                colors[node] = value
                written.append(node)
        return written

    def tick_values(self, state: NodeArrayState, own: np.ndarray, observed: np.ndarray) -> np.ndarray:
        return _majority_of_three(observed[:, 0], observed[:, 1], observed[:, 2])

    def as_sequential_counts(self) -> "ThreeMajoritySequentialCounts":
        return ThreeMajoritySequentialCounts()


class ThreeMajoritySequentialCounts(SequentialCountsProtocol):
    """Exact counts-level tick law of sequential 3-Majority on ``K_n``.

    A tick always adopts one of the three sampled colours, so the
    transition row of an acting colour-``i`` node is the adoption
    distribution itself (which may return mass to ``i``).
    """

    name = "three-majority/seq-counts"

    def init_counts(self, config: ColorConfiguration) -> np.ndarray:
        return np.asarray(config.counts, dtype=np.int64)

    def tick_transition_matrices(self, states: np.ndarray) -> np.ndarray:
        q = self_excluded_sample_probabilities_ensemble(states)
        transition = _adoption_probabilities(q)
        # The adoption law is exhaustive; renormalise float error away.
        totals = transition.sum(axis=-1, keepdims=True)
        np.divide(transition, totals, out=transition, where=totals > 0)
        return transition


register_protocol(
    "three-majority",
    description="Sample three uniform neighbours; adopt the majority colour (random tie-break)",
    counts=ThreeMajorityCounts,
    synchronous=ThreeMajoritySequential,
    sequential=ThreeMajoritySequential,
)
