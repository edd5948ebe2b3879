"""Stubborn and Byzantine fault injection for sequential protocols.

The paper's guarantees assume every node follows the protocol.  This
module breaks that assumption in the two classic ways:

:class:`StubbornProtocol`
    A seed-pinned minority fraction of nodes *never updates* — each
    stubborn node keeps whatever colour the initial configuration gave
    it — but is still sampled by its neighbours, so its frozen opinion
    keeps feeding the dynamics forever.
:class:`ByzantineProtocol`
    A seed-pinned fraction of *adversarial* nodes that report a chosen
    colour whenever they are observed (and never update).  The default
    adversary is the worst case for plurality consensus: it reports the
    initial runner-up colour, propping up the strongest challenger.

Mechanics: the faulty node set is materialised once per run as a
boolean *frozen mask* on a :class:`FaultMaskedState`.  A Byzantine
node's stored colour **is** its report colour (set at state
construction), so observation needs no interception at all — the only
behavioural change is that frozen nodes never write.  That write
suppression is honoured at every layer that can write a node:

* :meth:`~repro.protocols.base.SequentialProtocol.tick_apply` here
  (checks the mask before delegating),
* the default :meth:`~repro.protocols.base.SequentialProtocol.
  tick_apply_batch` scatter, and
* the hazard-batched fast path (:func:`repro.core.hazard.
  apply_windows` forces frozen actors' optimistic values back to their
  own colour before the actual-write test, and :func:`repro.core.
  hazard.apply_scalar` drops frozen actors' ticks before running the
  scalar rule).

Because the mask only ever *shrinks* the write set deterministically,
the hazard-free-prefix exactness argument is untouched and the batched
paths stay bit-identical to the per-tick loop.  The wrappers therefore
delegate the inner protocol's :class:`~repro.protocols.base.
TickFootprint`, ``tick_values`` and ``tick_rule`` unchanged — a
wrapped Two-Choices still rides the sparse/hazard fast path.  Compiled
kernels do not know the mask, so the wrappers never declare
``tick_kernel`` and the hazard core refuses kernels for masked states.

Consensus accounting: faulty nodes hold their colour by construction,
so full consensus over *all* nodes is unreachable whenever two faulty
nodes disagree.  :meth:`FaultMaskedState.counts` therefore reports
**honest nodes only** — stop conditions, traces and results all measure
honest consensus, the quantity the robustness campaigns sweep.

Composition: wrappers nest freely (``stubborn ∘ byzantine``, with or
without :class:`~repro.protocols.lossy.LossyProtocol` anywhere in the
chain).  Each wrapper draws its fault node set from its own tagged
:class:`numpy.random.SeedSequence` stream —
``SeedSequence(fault_seed, spawn_key=(TAG,))`` with a distinct TAG per
wrapper type — so the chosen sets, and hence the masked state, are
independent of nesting order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..api.registry import ParamSpec, register_fault
from ..core.colors import ColorConfiguration
from ..core.exceptions import ConfigurationError
from ..core.state import NodeArrayState
from ..graphs.topology import Topology
from .base import SequentialProtocol, TickFootprint
from .lossy import LossyProtocol

__all__ = [
    "FaultMaskedState",
    "StubbornProtocol",
    "ByzantineProtocol",
]

#: Spawn-key tags keeping each wrapper type's fault-set stream disjoint
#: ("STUB" / "BYZA" in ASCII) — the source of composition
#: order-independence documented above.
_STUBBORN_TAG = 0x53545542
_BYZANTINE_TAG = 0x42595A41


@dataclass
class FaultMaskedState(NodeArrayState):
    """Node state with a boolean mask of nodes that never update.

    ``frozen[v]`` is True for stubborn/Byzantine nodes: their colours
    are fixed at construction and every write layer suppresses writes
    to them (see the module docstring).  ``counts`` /
    ``is_consensus`` report **honest nodes only**, so "consensus" means
    honest consensus throughout the engines and stop conditions.
    """

    frozen: np.ndarray = None

    def __post_init__(self):
        super().__post_init__()
        if self.frozen is None:
            self.frozen = np.zeros(self.n, dtype=bool)
        self.frozen = np.asarray(self.frozen, dtype=bool)
        if self.frozen.shape != (self.n,):
            raise ConfigurationError(
                f"frozen mask must have shape ({self.n},), got {self.frozen.shape}"
            )
        if bool(self.frozen.all()):
            raise ConfigurationError("all nodes are faulty; no honest node left to converge")

    def counts(self) -> np.ndarray:
        """Colour histogram over honest (non-frozen) nodes."""
        return np.bincount(self.colors[~self.frozen], minlength=self.k)

    def configuration(self) -> ColorConfiguration:
        """Honest-only counts snapshot (traces and result stats)."""
        return ColorConfiguration(self.counts().tolist())

    def is_consensus(self) -> bool:
        """True iff every honest node holds the same colour."""
        honest = self.colors[~self.frozen]
        return bool(np.all(honest == honest[0]))

    def copy(self) -> "FaultMaskedState":
        return FaultMaskedState(colors=self.colors.copy(), k=self.k, frozen=self.frozen.copy())


def _fault_mask(n: int, fraction: float, fault_seed: int, tag: int) -> np.ndarray:
    """Seed-pinned fault node set as a boolean mask.

    A pure function of ``(n, fraction, fault_seed, tag)`` — independent
    of the engine RNG and of any other wrapper's draws, which is what
    makes composed wrappers nesting-order independent.
    """
    count = int(np.floor(fraction * n))
    mask = np.zeros(n, dtype=bool)
    if count:
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=int(fault_seed), spawn_key=(tag,))
        )
        mask[rng.choice(n, size=count, replace=False)] = True
    return mask


class _FaultWrapper(SequentialProtocol):
    """Shared plumbing of the mask-based fault wrappers.

    Delegates the tick interface to the wrapped protocol; the only
    behavioural change is the frozen mask installed by
    :meth:`make_state` (subclass hook :meth:`_apply_faults`) and the
    write suppression keyed off it.
    """

    # Bare annotation (no value): the instance attribute below delegates
    # the inner protocol's footprint, and the annotation opts this class
    # into the REPRO-P001/P002 purity lint on tick_values.
    tick_footprint: Optional[TickFootprint]

    def __init__(self, inner: SequentialProtocol, fraction: float, fault_seed: int):
        if not isinstance(inner, SequentialProtocol):
            raise ConfigurationError(
                f"fault wrappers wrap sequential protocols, got {type(inner).__name__}"
            )
        if not 0.0 <= fraction < 1.0:
            raise ConfigurationError(f"fraction must be in [0, 1), got {fraction}")
        self.inner = inner
        self.fraction = float(fraction)
        self.fault_seed = int(fault_seed)
        # Footprint and compiled-kernel declarations: the footprint
        # passes through unchanged (the wrapper neither samples nor
        # writes differently), but tick_kernel stays None — compiled
        # per-tick loops do not consult the frozen mask.
        self.tick_footprint = inner.tick_footprint
        # The scalar rule passes through too: the hazard path drops
        # frozen actors' ticks before running it (repro.core.hazard.
        # apply_scalar), and tick_apply below checks the mask itself.
        self.tick_rule = inner.tick_rule

    def _apply_faults(self, state: FaultMaskedState, colors: np.ndarray) -> None:
        """Install this wrapper's faulty nodes into *state* (subclass hook).

        *colors* is the original initial assignment, before any wrapper
        recoloured anything — the reference every wrapper's chosen
        colours are computed from, whatever the nesting order.
        """
        raise NotImplementedError

    def make_state(self, colors: np.ndarray, k: int) -> FaultMaskedState:
        """Build the inner state, lift it to a masked state, add faults."""
        state = self.inner.make_state(colors, k)
        if not isinstance(state, FaultMaskedState):
            if type(state) is not NodeArrayState:
                raise ConfigurationError(
                    f"{self.inner.name} uses a custom state ({type(state).__name__}); "
                    "fault wrappers support protocols on plain NodeArrayState"
                )
            state = FaultMaskedState(colors=state.colors, k=state.k)
        self._apply_faults(state, np.asarray(colors, dtype=np.int64))
        if bool(state.frozen.all()):
            raise ConfigurationError("all nodes are faulty; no honest node left to converge")
        return state

    def tick_targets(self, state: NodeArrayState, node: int, topology: Topology, rng: np.random.Generator) -> np.ndarray:
        """Delegate target selection (frozen nodes still sample — and
        consume the same RNG draws — so wrapping never perturbs the
        engine stream layout)."""
        return self.inner.tick_targets(state, node, topology, rng)

    def tick_apply(self, state: NodeArrayState, node: int, observed_colors: np.ndarray) -> None:
        """A frozen actor's tick is a no-op; honest ticks delegate."""
        frozen = getattr(state, "frozen", None)
        if frozen is not None and frozen[node]:
            return
        self.inner.tick_apply(state, node, observed_colors)

    def tick_values(self, state: NodeArrayState, own: np.ndarray, observed: np.ndarray) -> Optional[np.ndarray]:
        """Delegate the pure value rule; frozen actors are forced back
        to their own colour by the callers that know the acting nodes
        (:func:`repro.core.hazard.apply_hazard_free` and the default
        ``tick_apply_batch``), not here — this hook never sees node
        identities."""
        return self.inner.tick_values(state, own, observed)

    def is_absorbed(self, state: NodeArrayState) -> bool:
        """Delegate absorption (honest consensus under a masked state)."""
        return self.inner.is_absorbed(state)


class StubbornProtocol(_FaultWrapper):
    """Freeze a seed-pinned fraction of nodes at their initial colours.

    Stubborn nodes keep whatever colour the initial configuration
    assigned them, never update, and are still sampled by everyone
    else.  ``fraction`` is the faulty share of ``n`` (``floor(f * n)``
    nodes); ``fault_seed`` pins the set.
    """

    def __init__(self, inner: SequentialProtocol, fraction: float, fault_seed: int = 0):
        super().__init__(inner, fraction, fault_seed)
        self.name = f"{inner.name}+stubborn({fraction:g})"

    def _apply_faults(self, state: FaultMaskedState, colors: np.ndarray) -> None:
        state.frozen |= _fault_mask(state.n, self.fraction, self.fault_seed, _STUBBORN_TAG)


class ByzantineProtocol(_FaultWrapper):
    """Adversarial nodes that report a chosen colour and never update.

    The faulty nodes' stored colours are *rewritten* to the report
    colour at state construction — an observation of a Byzantine node
    then reads the adversarial colour with zero interception cost.
    ``color=None`` (the default) picks the worst-case report for
    plurality consensus: the runner-up colour of the initial
    assignment (the adversary props up the strongest challenger).
    """

    def __init__(
        self,
        inner: SequentialProtocol,
        fraction: float,
        color: Optional[int] = None,
        fault_seed: int = 0,
    ):
        super().__init__(inner, fraction, fault_seed)
        if color is not None and color < 0:
            raise ConfigurationError(f"color must be a colour index >= 0, got {color}")
        self.color = None if color is None else int(color)
        target = "worst-case" if color is None else f"{color}"
        self.name = f"{inner.name}+byzantine({fraction:g}->{target})"

    def _report_color(self, colors: np.ndarray, k: int) -> int:
        if self.color is not None:
            if self.color >= k:
                raise ConfigurationError(
                    f"byzantine report colour {self.color} out of range 0..{k - 1}"
                )
            return self.color
        counts = np.bincount(colors, minlength=k)
        # Runner-up of the *original* assignment: second-largest count
        # (ties broken by lower colour index, matching sort stability).
        order = np.argsort(-counts, kind="stable")
        return int(order[1]) if k > 1 else int(order[0])

    def _apply_faults(self, state: FaultMaskedState, colors: np.ndarray) -> None:
        mask = _fault_mask(state.n, self.fraction, self.fault_seed, _BYZANTINE_TAG)
        state.colors[mask] = self._report_color(colors, state.k)
        state.frozen |= mask


# ---------------------------------------------------------------------------
# registry entries — every fault configuration a serializable spec field
# ---------------------------------------------------------------------------
_FRACTION = ParamSpec("fraction", kind="float", required=True, doc="faulty share of n (in [0, 1))")
_FAULT_SEED = ParamSpec("fault_seed", kind="int", default=0, doc="seed pinning the faulty node set")


@register_fault(
    "loss",
    params=[ParamSpec("p", kind="float", required=True, doc="per-observation drop probability")],
    description="Drop each observation independently with probability p",
)
def _loss(inner: SequentialProtocol, p: float) -> LossyProtocol:
    """Registry adapter for :class:`~repro.protocols.lossy.LossyProtocol`."""
    return LossyProtocol(inner, p)


register_fault(
    "stubborn",
    StubbornProtocol,
    params=[_FRACTION, _FAULT_SEED],
    description="A seed-pinned fraction of nodes never updates but is still sampled",
)
register_fault(
    "byzantine",
    ByzantineProtocol,
    params=[
        _FRACTION,
        ParamSpec("color", kind="int", doc="reported colour (default: the initial runner-up)"),
        _FAULT_SEED,
    ],
    description="Adversarial nodes report a chosen colour when observed and never update",
)
