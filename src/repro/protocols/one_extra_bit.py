"""The OneExtraBit protocol (Theorem 1.2, synchronous memory model).

Section 2 of the paper: to beat the ``Omega(k)`` lower bound of plain
Two-Choices, each node carries **one extra bit** and the process runs
in *phases*.  A phase consists of

1. one **Two-Choices round** — sample two uniform neighbours; if their
   colours coincide, adopt that colour; the bit is set to ``True`` iff
   the two samples coincided (i.e. the node (re-)adopted a colour this
   round).  This concentrates the number of bit-set nodes with colour
   ``C_j`` around ``c_j^2 / n``.
2. ``R = Theta(log k + log log n)`` **Bit-Propagation rounds** — every
   node whose bit is unset samples one uniform neighbour per round; if
   the sampled node's bit is set, the sampler adopts its colour and
   sets its own bit (so it starts answering queries too).

After Bit-Propagation the colour shares among bit-set nodes are close
to ``c_j^2 / x`` (``x`` = total bits after the Two-Choices round), so
the ratio ``c_1 / c_j`` squares once per phase — the quadratic
amplification that experiment T5 measures.  Nodes that never meet a
bit-set neighbour within the ``R`` rounds simply keep their colour (a
low-probability event that the analysis absorbs).

Bit semantics note: we set the bit at the Two-Choices round iff the two
samples *coincided*, not iff the colour literally changed.  This
matches the paper's stated concentration ``c_1^2 / n`` for bit-set
``C_1`` nodes (the probability both samples show ``C_1``), which counts
nodes that re-adopted their own colour.

Both an agent-based and an exact counts-based realisation are provided;
a counts state row holds ``(A_j, B_j)`` — bit-set / bit-unset nodes per
colour — and the round index, which fixes the position inside the
phase.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..api.registry import ParamSpec, register_protocol
from ..core.colors import ColorConfiguration
from ..core.exceptions import ConfigurationError
from ..core.state import NodeArrayState
from ..graphs.topology import Topology
from .base import (
    CountsProtocol,
    SynchronousProtocol,
    draw_classes,
    self_excluded_sample_probabilities_ensemble,
)

__all__ = [
    "default_bp_rounds",
    "OneExtraBitState",
    "OneExtraBitSynchronous",
    "OneExtraBitCounts",
]


@functools.lru_cache(maxsize=None)
def default_bp_rounds(n: int, k: int, extra: int = 2) -> int:
    """The paper's ``Theta(log k + log log n)`` Bit-Propagation length.

    ``log2 k`` rounds double the bit-set population from its ``~n/k``
    floor up to ``Theta(n)``; ``log2 log2 n`` more cover the saturation
    tail; *extra* constant rounds absorb small-``n`` effects.
    """
    if n < 2:
        raise ConfigurationError(f"n must be >= 2, got {n}")
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    log_k = np.log2(max(k, 2))
    log_log_n = np.log2(max(np.log2(n), 2.0))
    return int(np.ceil(log_k) + np.ceil(log_log_n)) + int(extra)


@dataclass
class OneExtraBitState(NodeArrayState):
    """Agent state: colours + the extra bit + phase position."""

    bit: np.ndarray = None
    round_index: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.bit is None:
            self.bit = np.zeros(self.n, dtype=bool)
        if self.bit.shape != (self.n,):
            raise ConfigurationError(f"bit must have shape ({self.n},)")


class OneExtraBitSynchronous(SynchronousProtocol):
    """Agent-based OneExtraBit.

    Parameters
    ----------
    bp_rounds:
        Bit-Propagation rounds per phase; ``None`` selects the paper's
        ``Theta(log k + log log n)`` default at state-creation time
        (needs ``n`` and ``k``, hence resolved lazily).
    """

    name = "one-extra-bit/sync"

    def __init__(self, bp_rounds: int = None):
        if bp_rounds is not None and bp_rounds < 1:
            raise ConfigurationError(f"bp_rounds must be >= 1, got {bp_rounds}")
        self._bp_rounds = bp_rounds

    def make_state(self, colors: np.ndarray, k: int) -> OneExtraBitState:
        return OneExtraBitState(colors=np.asarray(colors, dtype=np.int64), k=k)

    def bp_rounds_for(self, n: int, k: int) -> int:
        return self._bp_rounds if self._bp_rounds is not None else default_bp_rounds(n, k)

    def round_update(self, state: OneExtraBitState, topology: Topology, rng: np.random.Generator) -> None:
        phase_length = 1 + self.bp_rounds_for(state.n, state.k)
        position = state.round_index % phase_length
        if position == 0:
            self._two_choices_round(state, topology, rng)
        else:
            self._bit_propagation_round(state, topology, rng)
        state.round_index += 1

    def _two_choices_round(self, state: OneExtraBitState, topology: Topology, rng: np.random.Generator) -> None:
        nodes = np.arange(state.n, dtype=np.int64)
        pairs = topology.sample_neighbor_pairs(nodes, rng)
        first = state.colors[pairs[:, 0]]
        second = state.colors[pairs[:, 1]]
        agree = first == second
        state.colors = np.where(agree, first, state.colors)
        state.bit = agree.copy()

    def _bit_propagation_round(self, state: OneExtraBitState, topology: Topology, rng: np.random.Generator) -> None:
        seekers = np.flatnonzero(~state.bit)
        if seekers.size == 0:
            return
        targets = topology.sample_neighbors_many(seekers, rng)
        # Reads come from the pre-round snapshot: simultaneous updates.
        target_bit = state.bit[targets]
        target_color = state.colors[targets]
        hits = np.flatnonzero(target_bit)
        winners = seekers[hits]
        state.colors[winners] = target_color[hits]
        state.bit[winners] = True


class OneExtraBitCounts(CountsProtocol):
    """Exact counts-level OneExtraBit on ``K_n``.

    A state row is ``int64[2k + 1]``: bit-set counts per colour
    (``A_j``), bit-unset counts per colour (``B_j``), then the round
    index.  Replications advance in lockstep from round 0, so every row
    of an ensemble sits at the same position in the phase schedule.
    """

    name = "one-extra-bit/counts"

    def __init__(self, bp_rounds: int = None):
        if bp_rounds is not None and bp_rounds < 1:
            raise ConfigurationError(f"bp_rounds must be >= 1, got {bp_rounds}")
        self._bp_rounds = bp_rounds

    def bp_rounds_for(self, n: int, k: int) -> int:
        return self._bp_rounds if self._bp_rounds is not None else default_bp_rounds(n, k)

    def init_counts(self, config: ColorConfiguration) -> np.ndarray:
        counts = np.asarray(config.counts, dtype=np.int64)
        return np.concatenate([np.zeros_like(counts), counts, [0]])

    def color_counts_ensemble(self, states: np.ndarray) -> np.ndarray:
        k = states.shape[1] // 2
        return states[:, :k] + states[:, k : 2 * k]

    def step_ensemble(self, states: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Advance R replications one round: the phase's Two-Choices
        round or one Bit-Propagation round, by the shared round index."""
        k = states.shape[1] // 2
        totals = self.color_counts_ensemble(states)
        n = int(totals[0].sum())
        round_index = int(states[0, 2 * k])
        if round_index % (1 + self.bp_rounds_for(n, k)) == 0:
            new_states = self._two_choices_step(totals, rng)
        else:
            new_states = self._bit_propagation_step(states, rng)
        new_states[:, 2 * k] = round_index + 1
        return new_states

    @staticmethod
    def _two_choices_step(totals: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Every node runs Two-Choices; its bit is set iff the samples
        agreed (outcome slots as in
        :class:`~repro.protocols.two_choices.TwoChoicesCounts`)."""
        reps, k = totals.shape
        q = self_excluded_sample_probabilities_ensemble(totals)
        pvals = np.empty((reps, k, k + 1))
        adopt = np.multiply(q, q, out=pvals[..., :k])
        pvals[..., k] = np.maximum(1.0 - adopt.sum(axis=-1), 0.0)
        pvals /= pvals.sum(axis=-1, keepdims=True)
        draws = draw_classes(rng, totals, pvals)
        new_states = np.empty((reps, 2 * k + 1), dtype=np.int64)
        new_states[:, :k] = draws[..., :k].sum(axis=0)
        new_states[:, k : 2 * k] = draws[..., k].T
        return new_states

    @staticmethod
    def _bit_propagation_step(states: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Every bit-unset node samples one neighbour and copies colour
        and bit when the neighbour's bit is set."""
        reps = states.shape[0]
        k = states.shape[1] // 2
        if not states[:, k : 2 * k].any():
            return states.copy()  # every bit is set: nobody seeks
        n = int(states[0, : 2 * k].sum())
        # A seeker samples one of its n-1 neighbours; the seeker itself
        # is bit-unset, so the bit-set mass among neighbours is exactly
        # the pre-round bit-set counts (simultaneous updates).
        pvals = np.empty((reps, k + 1))
        np.divide(states[:, :k], n - 1, out=pvals[:, :k])
        pvals[:, k] = np.maximum(1.0 - pvals[:, :k].sum(axis=1), 0.0)
        pvals /= pvals.sum(axis=1, keepdims=True)
        # Every bit-unset class of a row shares the row's pvals.
        draws = draw_classes(rng, states[:, k : 2 * k], np.broadcast_to(pvals[:, None], (reps, k, k + 1)))
        new_states = np.empty_like(states)
        new_states[:, :k] = states[:, :k] + draws[..., :k].sum(axis=0)
        new_states[:, k : 2 * k] = draws[..., k].T
        return new_states


register_protocol(
    "one-extra-bit",
    description="Two-Choices phases + Bit-Propagation on one memory bit (Theorem 1.2)",
    counts=OneExtraBitCounts,
    synchronous=OneExtraBitSynchronous,
    params=[
        ParamSpec(
            "bp_rounds",
            kind="int",
            doc="Bit-Propagation rounds per phase (default: the Theta(log k + log log n) schedule)",
        ),
    ],
)
