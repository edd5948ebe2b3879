"""Exact counts-based synchronous engine for ``K_n``.

On the complete graph with uniform sampling (with replacement), every
node's round behaviour depends on the *colour histogram* only, and the
joint transition of the histogram is a sum of independent per-group
multinomials.  Sampling those multinomials reproduces the agent-based
round law **exactly** — not a mean-field approximation — while costing
O(k) per round instead of O(n).  That is what makes the paper-scale
sweeps (``n`` up to ``10^9``) feasible in Python.

The one modelling difference from the agent engine is self-sampling: the
agent engine excludes the caller from its own sample (neighbours of
``u`` on ``K_n``), so sample probabilities are ``c_j - [own colour]``
over ``n - 1``.  The counts engine accounts for that exactly by using
per-group sampling distributions.

:class:`CountsEngine` is a declaration, not a loop of its own: one run
is the one-replication case, plus tracing, of the round loop in
:mod:`repro.engine.ensemble` that
:class:`~repro.engine.ensemble.EnsembleCountsEngine` runs for ``R``
replications.  Both drive the protocol's one round hook,
:meth:`~repro.protocols.base.CountsProtocol.step_ensemble`.
"""

from __future__ import annotations

from ..core.colors import ColorConfiguration
from ..core.results import RunResult
from ..core.rng import SeedLike
from .base import StopCondition, consensus_reached
from .ensemble import _CountsRoundEngine

__all__ = ["CountsEngine"]


class CountsEngine(_CountsRoundEngine):
    """Round-based driver for exact counts-level protocols on ``K_n``:
    the one-replication case of the round loop, plus tracing."""

    _engine_name = "counts"

    def run(
        self,
        initial: ColorConfiguration,
        max_rounds: int = 1_000_000,
        stop: StopCondition = consensus_reached,
        record_trace: bool = False,
        trace_every: int = 1,
        seed: SeedLike = None,
    ) -> RunResult:
        """Execute rounds until *stop* holds or *max_rounds* is hit."""
        [result] = self._run(initial, 1, max_rounds, stop, seed, trace_every if record_trace else None)
        return result
