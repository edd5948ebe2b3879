"""Message-loss failure injection for sequential protocols.

The paper's model assumes every contact succeeds.  Real gossip loses
messages; :class:`LossyProtocol` wraps any
:class:`~repro.protocols.base.SequentialProtocol` and drops each
observation independently with probability ``loss_probability`` before
the inner protocol sees it.

The wrapped protocol's own robustness decides what a dropped
observation means: Two-Choices receiving fewer than two colours adopts
nothing (its agreement check fails closed), Voter receiving nothing
keeps its opinion, 3-Majority receiving fewer than three samples keeps
its opinion.  The observable effect is a clean slowdown — with
per-observation loss ``p``, a Two-Choices tick completes with
probability ``(1-p)²``, so consensus time inflates by ``1/(1-p)²``
(measured in the tests).
"""

from __future__ import annotations

import numpy as np

from ..core.exceptions import ConfigurationError
from ..core.rng import as_generator
from ..core.state import NodeArrayState
from ..graphs.topology import Topology
from .base import SequentialProtocol

__all__ = ["LossyProtocol"]


class LossyProtocol(SequentialProtocol):
    """Drop each observation with probability ``loss_probability``.

    The wrapper is transparent to the engines: it delegates state
    construction and absorption checks to the inner protocol and only
    filters the observed colours between ``tick_targets`` and
    ``tick_apply``.
    """

    def __init__(self, inner: SequentialProtocol, loss_probability: float):
        if not 0.0 <= loss_probability < 1.0:
            raise ConfigurationError(
                f"loss_probability must be in [0, 1), got {loss_probability}"
            )
        self.inner = inner
        self.loss_probability = float(loss_probability)
        self.name = f"{inner.name}+loss({loss_probability:g})"
        self._rng_for_loss = None

    def make_state(self, colors: np.ndarray, k: int) -> NodeArrayState:
        """Delegate state construction to the wrapped protocol."""
        return self.inner.make_state(colors, k)

    def tick_targets(self, state: NodeArrayState, node: int, topology: Topology, rng: np.random.Generator) -> np.ndarray:
        """Delegate target selection (losses happen on the way back)."""
        # Remember the engine's generator so seq_tick-independent paths
        # (the continuous engine calls tick_apply directly) still have
        # a stream to draw loss events from.
        self._rng_for_loss = rng
        return self.inner.tick_targets(state, node, topology, rng)

    def tick_apply(self, state: NodeArrayState, node: int, observed_colors: np.ndarray) -> None:
        """Drop observations i.i.d., then hand the survivors down.

        Fallback contract: loss events draw from the engine generator
        captured in :meth:`tick_targets`.  If ``tick_apply`` is called
        before any ``tick_targets`` (possible only when a caller drives
        the hook directly, outside an engine), the stream is coerced via
        :func:`repro.core.rng.as_generator`, whose ``None`` branch is
        the repo's single sanctioned OS-entropy fallback — such a run
        is unseeded by construction and makes no replay promise.
        """
        if len(observed_colors) and self.loss_probability > 0.0:
            rng = as_generator(self._rng_for_loss)
            keep = rng.random(len(observed_colors)) >= self.loss_probability
            observed_colors = observed_colors[keep]
        self.inner.tick_apply(state, node, observed_colors)

    def is_absorbed(self, state: NodeArrayState) -> bool:
        """Delegate absorption to the wrapped protocol."""
        return self.inner.is_absorbed(state)

    def default_budget(self, n: int) -> float:
        """Delegate the run budget to the wrapped protocol."""
        return self.inner.default_budget(n)
