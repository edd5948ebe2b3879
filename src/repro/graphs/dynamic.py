"""Edge churn: dynamic topologies for the robustness campaigns.

:class:`ChurnTopology` wraps any :class:`~repro.graphs.sparse.
AdjacencyTopology` and perturbs its sampling structure once per epoch
(:attr:`~repro.graphs.topology.DynamicTopology.epoch_ticks` sequential
ticks) under one of two rules:

``"rewire"``
    Each adjacency *slot* is independently redirected with probability
    ``churn_rate`` to a fresh uniform node (never the owner itself) —
    sustained random edge drift.
``"rebirth"``
    Each *node* independently dies and is reborn with probability
    ``churn_rate``: it keeps its colour but loses every outgoing link
    and draws a fresh uniform set — node-level churn.

Both rules operate on the directed sampling structure (who *u* can
sample), which is the only thing the protocols read; reciprocal slots
are perturbed independently, so a churned graph is generally directed
even when the seed graph was symmetric.  Degrees never change, which
keeps the CSR shape — and therefore the vectorised presampling fast
path of :meth:`~repro.graphs.sparse.AdjacencyTopology.
sample_neighbors_block` — intact across epochs.

Determinism: epoch ``e`` draws from its own tagged stream
``SeedSequence(churn_seed, spawn_key=(TAG, e))`` and is applied on top
of epoch ``e - 1``, so the edge set of any epoch is a pure function of
(initial graph, ``churn_seed``, ``e``) — :meth:`advance_to` replays
identically forwards or from scratch, which is what the engines'
run-start ``advance_to(0)`` reset and the per-tick reference
cross-check in the tests rely on.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..api.registry import ParamSpec, register_topology
from ..core.exceptions import TopologyError
from .sparse import AdjacencyTopology, _torus_of_n, ring
from .topology import DynamicTopology

__all__ = ["ChurnTopology"]

#: spawn-key tag of the per-epoch churn streams ("CHRN" in ASCII).
_EPOCH_TAG = 0x4348524E

_RULES = ("rewire", "rebirth")


class ChurnTopology(AdjacencyTopology, DynamicTopology):
    """Epoch-clocked edge churn over a frozen-degree CSR graph."""

    def __init__(
        self,
        base: AdjacencyTopology,
        churn_rate: float,
        epoch_ticks: Optional[int] = None,
        churn_seed: int = 0,
        rule: str = "rewire",
    ):
        if not isinstance(base, AdjacencyTopology):
            raise TopologyError(
                f"ChurnTopology wraps an AdjacencyTopology, got {type(base).__name__}"
            )
        if not 0.0 <= churn_rate <= 1.0:
            raise TopologyError(f"churn_rate must be in [0, 1], got {churn_rate}")
        if rule not in _RULES:
            raise TopologyError(f"unknown churn rule {rule!r}; expected one of {_RULES}")
        # Adopt the base CSR: offsets/degrees stay frozen for the
        # lifetime of the topology, only the flat neighbour array
        # mutates between epochs.
        self.n = base.n
        self._offsets = base._offsets.copy()
        self._degrees = base._degrees.copy()
        self._uniform_degree = base._uniform_degree
        self._flat0 = base._flat.copy()
        self._flat = base._flat.copy()
        self._slot_owner = np.repeat(np.arange(self.n, dtype=np.int64), self._degrees)
        self.churn_rate = float(churn_rate)
        self.churn_seed = int(churn_seed)
        self.rule = rule
        self.epoch_ticks = self.n if epoch_ticks is None else int(epoch_ticks)
        if self.epoch_ticks < 1:
            raise TopologyError(f"epoch_ticks must be positive, got {self.epoch_ticks}")
        self.epoch = 0

    def _apply_epoch(self, epoch: int) -> None:
        """Overlay epoch *epoch*'s churn draws onto the current edge set."""
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=self.churn_seed, spawn_key=(_EPOCH_TAG, epoch))
        )
        if self.rule == "rewire":
            mask = rng.random(self._flat.size) < self.churn_rate
        else:  # rebirth: whole rows of dying nodes redraw at once
            reborn = rng.random(self.n) < self.churn_rate
            mask = reborn[self._slot_owner]
        owners = self._slot_owner[mask]
        if owners.size:
            # Uniform over the n - 1 non-owner nodes: draw from n - 1
            # and shift past the owner (self-loops would let a node
            # observe itself, which no protocol here models).
            draws = rng.integers(0, self.n - 1, size=owners.size)
            draws += draws >= owners
            self._flat[mask] = draws

    def advance_to(self, epoch: int) -> None:
        epoch = int(epoch)
        if epoch < 0:
            raise TopologyError(f"epoch must be non-negative, got {epoch}")
        if epoch < self.epoch:
            # Epochs compose forwards only; going back restarts from
            # the pristine copy and replays — same pure function.
            self._flat[:] = self._flat0
            self.epoch = 0
        while self.epoch < epoch:
            self.epoch += 1
            self._apply_epoch(self.epoch)


_CHURN_PARAMS = [
    ParamSpec("churn_rate", kind="float", required=True, doc="per-epoch churn probability"),
    ParamSpec("epoch_ticks", kind="int", doc="epoch length in ticks (default: n)"),
    ParamSpec("churn_seed", kind="int", default=0, doc="seed of the per-epoch churn streams"),
    ParamSpec("rule", kind="str", default="rewire", doc="churn rule: 'rewire' or 'rebirth'"),
]


@register_topology(
    "dynamic-ring",
    params=_CHURN_PARAMS,
    description="Cycle graph C_n under per-epoch edge churn (sequential model only)",
)
def _dynamic_ring(
    n: int,
    churn_rate: float,
    epoch_ticks: int = None,
    churn_seed: int = 0,
    rule: str = "rewire",
) -> ChurnTopology:
    """Registry adapter: a churned :func:`~repro.graphs.sparse.ring`."""
    return ChurnTopology(
        ring(n), churn_rate, epoch_ticks=epoch_ticks, churn_seed=churn_seed, rule=rule
    )


@register_topology(
    "dynamic-torus",
    params=_CHURN_PARAMS
    + [ParamSpec("rows", kind="int", doc="grid rows (default: the most square factorisation of n)")],
    description="2-D torus grid under per-epoch edge churn (sequential model only)",
)
def _dynamic_torus(
    n: int,
    churn_rate: float,
    epoch_ticks: int = None,
    churn_seed: int = 0,
    rule: str = "rewire",
    rows: int = None,
) -> ChurnTopology:
    """Registry adapter: a churned torus of ``rows x (n / rows)`` nodes."""
    return ChurnTopology(
        _torus_of_n(n, rows), churn_rate, epoch_ticks=epoch_ticks, churn_seed=churn_seed, rule=rule
    )
