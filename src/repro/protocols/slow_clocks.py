"""Slow Poisson clocks for a fraction of the nodes (ablation A1).

The paper's weak-synchronicity notion tolerates ``o(n)`` poorly
synchronised nodes.  :class:`SlowClocks` creates them on purpose: the
first ``round(fraction * n)`` node ids tick at ``rate`` relative to the
unit rate of the rest, so ``SlowClocks(p, 0.05, 0.3)`` runs 5% of the
population at 30% speed.

Mechanics: Poisson thinning.  The tick engines pick every tick's actor
uniformly, i.e. run every clock at rate 1; :meth:`SlowClocks.seq_tick_batch`
keeps each tick of a slow actor with probability ``rate`` and drops the
others before it hands the block on.  A rate-1 Poisson process thinned
with probability ``rate`` is a rate-``rate`` Poisson process, so a run
is equal in law to clocks of those rates, and parallel time stays
``ticks / n``.  On ``K_n`` with a shuffled initial assignment the first
ids are equal in law to a random set, so the wrapper needs no seed.

Thinning cannot speed a clock up, so rates above 1 are rejected (see
DESIGN.md for what a fast minority does to tick-counted termination).
The per-tick path that the delayed continuous engine drives
(``tick_targets`` / ``tick_apply``) cannot see the thinning and is
refused.  Specs name the wrapper as the ``slow-clocks`` fault
(``{"fraction": ..., "rate": ...}``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..api.registry import ParamSpec, register_fault
from ..core.exceptions import ConfigurationError
from ..core.state import NodeArrayState
from ..graphs.topology import Topology
from .base import SequentialProtocol

__all__ = ["SlowClocks"]


class SlowClocks(SequentialProtocol):
    """Run the first ``round(fraction * n)`` nodes' clocks at ``rate``."""

    def __init__(self, inner: SequentialProtocol, fraction: float, rate: float):
        if not isinstance(inner, SequentialProtocol):
            raise ConfigurationError(f"SlowClocks wraps sequential protocols, got {type(inner).__name__}")
        if not 0.0 <= fraction < 1.0:
            raise ConfigurationError(f"fraction must be in [0, 1), got {fraction}")
        if not 0.0 < rate <= 1.0:
            raise ConfigurationError(f"rate must be in (0, 1] (thinning only slows clocks), got {rate}")
        self.inner = inner
        self.fraction = float(fraction)
        self.rate = float(rate)
        self.name = f"{inner.name}+slow({fraction:g}@{rate:g})"

    def slow_count(self, n: int) -> int:
        """Number of slow nodes (ids ``0 .. slow_count - 1``) among *n*."""
        return int(round(self.fraction * n)) if self.rate < 1.0 else 0

    def make_state(self, colors: np.ndarray, k: int) -> NodeArrayState:
        """Delegate state construction to the wrapped protocol."""
        return self.inner.make_state(colors, k)

    def seq_tick_batch(self, state: NodeArrayState, nodes: np.ndarray, topology: Topology, rng: np.random.Generator) -> None:
        """Drop each slow actor's tick with probability ``1 - rate``,
        then hand the rest of the block to the wrapped protocol."""
        slow = self.slow_count(state.n)
        if slow:
            nodes = np.asarray(nodes, dtype=np.int64)
            nodes = nodes[(nodes >= slow) | (rng.random(nodes.size) < self.rate)]
            if not nodes.size:
                return
        self.inner.seq_tick_batch(state, nodes, topology, rng)

    def tick_targets(self, state: NodeArrayState, node: int, topology: Topology, rng: np.random.Generator) -> np.ndarray:
        """Refused: a per-tick caller would bypass the thinning."""
        raise ConfigurationError(
            "SlowClocks thins the engines' tick blocks; the per-tick path "
            "(delayed responses) cannot honour it"
        )

    def is_absorbed(self, state: NodeArrayState) -> bool:
        """Delegate absorption to the wrapped protocol."""
        return self.inner.is_absorbed(state)

    def trace_fields(self, state: NodeArrayState) -> Optional[dict]:
        """Delegate the trace observables to the wrapped protocol."""
        return self.inner.trace_fields(state)

    def default_budget(self, n: int) -> float:
        """The wrapped protocol's budget, stretched by ``1 / rate`` when
        some clocks are slow: their schedule takes that much longer."""
        budget = self.inner.default_budget(n)
        return budget / self.rate if self.slow_count(n) else budget


register_fault(
    "slow-clocks",
    SlowClocks,
    params=[
        ParamSpec("fraction", kind="float", required=True, doc="slow share: ids below round(fraction * n)"),
        ParamSpec("rate", kind="float", required=True, doc="slow clock rate in (0, 1]"),
    ],
    description="The first round(fraction * n) nodes' clocks tick at rate (Poisson thinning)",
)
