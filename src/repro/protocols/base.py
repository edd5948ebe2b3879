"""Protocol interfaces.

The paper's processes are driven by three different machines, so a
protocol may implement up to three complementary interfaces:

:class:`SynchronousProtocol`
    Round-based, agent-level: ``round_update`` rewrites the whole state
    vector once per synchronous round (Theorems 1.1 and 1.2 substrate).
:class:`CountsProtocol`
    Round-based on ``K_n`` at the level of colour *counts*.  On the
    complete graph with uniform sampling the round transition of every
    protocol here depends only on the counts vector, so a round can be
    drawn *exactly* from a handful of multinomials — this is what lets
    the benchmarks sweep ``n`` up to ``10^9``.
:class:`SequentialProtocol`
    Tick-based: one uniformly random node acts per tick (the paper's
    sequential model, equivalent in run time to the Poisson-clock model
    it cites Mosk-Aoyama & Shah for).  The interface splits a tick into
    *target selection* and *apply*, which lets the continuous-time
    engine inject response delays (the Discussion-section extension)
    without protocols knowing about it.
:class:`SequentialCountsProtocol`
    Tick-based on ``K_n`` at the level of colour *counts*: the exact
    conditional law of a single tick given the histogram, expressed as
    a row-stochastic transition matrix.  This is the asynchronous
    counterpart of :class:`CountsProtocol` and what powers the batched
    tick engines in :mod:`repro.engine.counts_async` (paper-scale
    asynchronous sweeps at ``n`` up to ``10^8`` and beyond).
:class:`EnsembleCountsProtocol`
    Round-based on ``K_n`` for *R replications at once*: the state is
    an ``(R, m)`` matrix of histograms and one step advances every row
    by one synchronous round through shared vectorised multinomial
    draws.  Each row's marginal law is identical to :meth:`step` of the
    matching :class:`CountsProtocol`; this is what powers the ensemble
    engines in :mod:`repro.engine.ensemble` (trial replication at the
    cost of one run).  :class:`SequentialCountsProtocol` works on the
    same ``(R, m)`` matrices throughout: a single run is one row.

Protocols are stateless policy objects; all mutable simulation state
lives in :class:`~repro.core.state.NodeArrayState` (or a subclass), so
one protocol instance can drive many concurrent runs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from ..core.colors import ColorConfiguration
from ..core.exceptions import ProtocolError
from ..core.hazard import apply_hazard_free
from ..core.state import NodeArrayState
from ..graphs.topology import Topology

__all__ = [
    "SynchronousProtocol",
    "CountsProtocol",
    "SequentialProtocol",
    "SequentialCountsProtocol",
    "EnsembleCountsProtocol",
    "TickFootprint",
    "diagonals",
    "self_excluded_sample_probabilities_ensemble",
]


@dataclass(frozen=True)
class TickFootprint:
    """Declared read/write footprint of one sequential tick.

    Declaring a footprint on a :class:`SequentialProtocol` asserts the
    contract the hazard-batched block path of :meth:`SequentialProtocol.
    seq_tick_batch` relies on (see :mod:`repro.core.hazard`):

    * :meth:`~SequentialProtocol.tick_targets` draws exactly *samples*
      i.i.d. uniform neighbours of the acting node — the identities are
      state-independent, so they may be presampled for a whole block
      through one vectorised topology call;
    * the tick *writes* nothing but the acting node
      (``writes_self_only``; protocols that push state into their
      targets must leave it False, which keeps them on the per-tick
      loop);
    * the tick may *read* the acting node's own colour plus the
      observed target colours, and nothing else (``reads_own`` is
      informational — the hazard check always counts the acting node as
      read, so a False value never weakens it).

    Protocols whose sampling is state-dependent (phase schedules,
    lossy observation channels, ...) leave the footprint ``None`` and
    keep the loop semantics of :meth:`~SequentialProtocol.seq_tick`.
    """

    samples: int
    writes_self_only: bool = True
    reads_own: bool = True


class SynchronousProtocol(ABC):
    """Agent-level, round-based protocol."""

    #: human-readable protocol name used in tables and result stores.
    name: str = "synchronous-protocol"

    @abstractmethod
    def round_update(self, state: NodeArrayState, topology: Topology, rng: np.random.Generator) -> None:
        """Advance *state* by one synchronous round, in place.

        All nodes sample simultaneously from the *pre-round* state and
        then switch simultaneously, as the paper's synchronous model
        requires; implementations must therefore read from a snapshot
        (or be written so reads complete before any write).
        """

    def make_state(self, colors: np.ndarray, k: int) -> NodeArrayState:
        """Build the state object this protocol operates on."""
        return NodeArrayState(colors=np.asarray(colors, dtype=np.int64), k=k)

    def is_absorbed(self, state: NodeArrayState) -> bool:
        """True when no future round can change the state."""
        return state.is_consensus()


class CountsProtocol(ABC):
    """Exact counts-level protocol on the complete graph.

    The internal *counts state* is protocol-specific (e.g. OneExtraBit
    tracks counts for every ``(colour, bit)`` pair plus its position in
    the phase schedule); :meth:`color_counts` projects it back to the
    plain colour histogram used for reporting.
    """

    name: str = "counts-protocol"

    @abstractmethod
    def init_counts(self, config: ColorConfiguration) -> Any:
        """Build the internal counts state for an initial configuration."""

    @abstractmethod
    def step(self, counts_state: Any, rng: np.random.Generator) -> Any:
        """Advance by one synchronous round; returns the new state.

        Implementations draw the next state from the exact distribution
        of the agent-based round transition on ``K_n``.
        """

    @abstractmethod
    def color_counts(self, counts_state: Any) -> np.ndarray:
        """Project the internal state to a colour-counts vector."""

    def is_absorbed(self, counts_state: Any) -> bool:
        """True when the projected configuration is a fixed point."""
        counts = self.color_counts(counts_state)
        return int(counts.max()) == int(counts.sum())


class _EnsembleStateHooks:
    """Shared state hooks of the ensemble interfaces.

    Both ensemble families — round-based
    (:class:`EnsembleCountsProtocol`) and tick-based
    (:class:`SequentialCountsProtocol`) — carry their R replications as
    an ``(R, m)`` histogram matrix; these defaults cover initialising,
    projecting and absorption-testing that matrix for every protocol
    whose internal counts state is the plain label histogram.
    """

    def init_ensemble(self, config: ColorConfiguration, n_reps: int) -> np.ndarray:
        """``(n_reps, m)`` stacked initial histograms (all rows equal)."""
        row = np.asarray(self.init_counts(config), dtype=np.int64)  # type: ignore[attr-defined]
        return np.repeat(row[None, :], n_reps, axis=0)

    def color_counts_ensemble(self, states: np.ndarray) -> np.ndarray:
        """Project the ``(R, m)`` internal states to reported counts."""
        return states

    def is_absorbed_ensemble(self, states: np.ndarray) -> np.ndarray:
        """Row-wise fixed-point test (``bool[R]``)."""
        return states.max(axis=1) == states.sum(axis=1)


class EnsembleCountsProtocol(_EnsembleStateHooks, ABC):
    """Round-based ensemble hook: R histogram chains per numpy batch.

    Mixed into a :class:`CountsProtocol` whose internal counts state is
    the plain label histogram, this interface advances an ``(R, m)``
    matrix of *independent* replications by one synchronous round per
    :meth:`step_ensemble` call.  The contract binding it to the
    single-run protocol is exactness per row:

    * every row of the result is drawn from the same law as
      :meth:`CountsProtocol.step` applied to that row, and
    * with ``R == 1`` the implementation must consume the generator
      *identically* to :meth:`CountsProtocol.step` (same RNG calls in
      the same order, with zero-size colour classes skipped the same
      way), so an ensemble of one replays a single run value-for-value
      from a shared seed.

    Vectorised ``numpy`` multinomial/binomial calls with stacked
    ``n``/``pvals`` arguments satisfy both clauses: the generator draws
    row by row, so each row is an independent exact draw and the
    one-row call is bit-identical to the scalar call.
    """

    @abstractmethod
    def step_ensemble(self, states: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Advance every row of *states* by one synchronous round."""


class SequentialProtocol(ABC):
    """Tick-based protocol: one node acts per tick.

    Subclasses implement :meth:`tick_targets` / :meth:`tick_apply`; the
    default :meth:`seq_tick` composes them with an instantaneous
    observation, which is the paper's base model ("once a node contacts
    another node, it receives that node's response without any delay").
    """

    name: str = "sequential-protocol"

    #: declared per-tick read/write footprint, or ``None`` when the
    #: tick's sampling or write pattern cannot be summarised (the batch
    #: fast paths then fall back to :meth:`seq_tick_batch_loop`).
    tick_footprint: Optional[TickFootprint] = None

    #: name of a compiled tick rule in :mod:`repro.core.hazard_kernel`
    #: (``RULE_IDS``), or ``None`` when no compiled form exists.  Naming
    #: a rule asserts that the rule is *semantically identical* to
    #: :meth:`tick_apply` — the compiled kernels run it one tick at a
    #: time, so a correct declaration is bit-identical to the Python
    #: loop by construction.  Only consulted when ``REPRO_KERNEL``
    #: activates a compiled kernel; the footprint's sample count is
    #: cross-checked before the kernel engages.
    tick_kernel: Optional[str] = None

    def make_state(self, colors: np.ndarray, k: int) -> NodeArrayState:
        """Build the state object this protocol operates on."""
        return NodeArrayState(colors=np.asarray(colors, dtype=np.int64), k=k)

    @abstractmethod
    def tick_targets(self, state: NodeArrayState, node: int, topology: Topology, rng: np.random.Generator) -> np.ndarray:
        """Nodes the ticking node wants to observe (may be empty)."""

    @abstractmethod
    def tick_apply(self, state: NodeArrayState, node: int, observed_colors: np.ndarray) -> None:
        """Update *node* given the observed colours of its targets."""

    def seq_tick(self, state: NodeArrayState, node: int, topology: Topology, rng: np.random.Generator) -> None:
        """One tick with instantaneous responses (sequential model)."""
        targets = self.tick_targets(state, node, topology, rng)
        observed = state.colors[targets] if len(targets) else np.empty(0, dtype=np.int64)
        self.tick_apply(state, node, observed)

    def tick_values(
        self, state: NodeArrayState, own: np.ndarray, observed: np.ndarray
    ) -> Optional[np.ndarray]:
        """Vectorised value rule: the post-tick colour of every actor.

        *own* is ``int64[B]`` (the acting nodes' current colours),
        *observed* the ``(B, samples)`` matrix of their targets'
        colours; the result row ``t`` must equal the colour tick ``t``
        would leave its actor with — including "keeps its colour",
        expressed as ``own[t]`` — when :meth:`tick_apply` runs on the
        same observations.  The rule must be **pure**: no state
        mutation, no RNG (randomised updates cannot use this hook).
        The hazard-batched paths use it to evaluate whole blocks
        optimistically and to detect actual writes (``values != own``);
        returning ``None`` (the default) routes them through the
        conservative :meth:`tick_apply_batch` instead.
        """
        return None

    def tick_apply_batch(self, state: NodeArrayState, nodes: np.ndarray, observed: np.ndarray) -> None:
        """Apply one tick per row of *nodes* / *observed* at once.

        Only called on *hazard-free* blocks (no row reads or writes a
        node another row actually writes — see
        :mod:`repro.core.hazard`), so all reads may come from the
        current state and all writes may be scattered in one pass; the
        result must be bit-identical to looping :meth:`tick_apply` row
        by row.  *observed* is the ``(B, samples)`` matrix of the
        targets' colours at apply time.  The default applies the
        :meth:`tick_values` rule when the protocol has one and loops
        over :meth:`tick_apply` otherwise.
        """
        own = state.colors[nodes]
        values = self.tick_values(state, own, observed)
        if values is None:
            for i in range(nodes.shape[0]):
                self.tick_apply(state, int(nodes[i]), observed[i])
            return
        # Fault-masked states (repro.protocols.faults) carry a boolean
        # ``frozen`` mask of nodes that never update; suppressing their
        # writes here keeps the scatter bit-identical to the tick_apply
        # loop, which checks the same mask.
        frozen = getattr(state, "frozen", None)
        if frozen is not None:
            values = np.where(frozen[nodes], own, values)
        changed = values != own
        state.colors[nodes[changed]] = values[changed]

    def seq_tick_batch(self, state: NodeArrayState, nodes: np.ndarray, topology: Topology, rng: np.random.Generator) -> None:
        """Apply one instantaneous tick per entry of *nodes*, in order.

        Equal in law to calling :meth:`seq_tick` once per node: target
        *identities* are state-independent, so every tick's targets are
        presampled through one vectorised topology call and the block
        is applied as hazard-free chunks — bit-identical to the
        sequential loop on the same draws, because each tick's colour
        reads still see all earlier ticks' writes (see
        :mod:`repro.core.hazard`).  Protocols without a declared
        :class:`TickFootprint` fall back to
        :meth:`seq_tick_batch_loop`, one Python tick per node.
        """
        footprint = self.tick_footprint
        if footprint is None or not footprint.writes_self_only:
            self.seq_tick_batch_loop(state, nodes, topology, rng)
            return
        nodes = np.asarray(nodes, dtype=np.int64)
        targets = topology.sample_neighbors_block(nodes, footprint.samples, rng)
        apply_hazard_free(self, state, nodes, targets)

    def seq_tick_batch_loop(self, state: NodeArrayState, nodes: np.ndarray, topology: Topology, rng: np.random.Generator) -> None:
        """One Python :meth:`seq_tick` per node — the reference loop.

        The historical (seed) implementation of :meth:`seq_tick_batch`;
        kept as the fallback for footprint-less protocols, as the
        correctness oracle the batch-path tests pin against, and as the
        baseline the speedup benchmarks measure from.  Note the RNG
        *stream* differs from the batch path (per-tick draws here, one
        block draw there), so the two paths agree in law, not values.
        """
        for node in nodes:
            self.seq_tick(state, int(node), topology, rng)

    def as_sequential_counts(self) -> Optional["SequentialCountsProtocol"]:
        """Counts-level realisation of this tick rule on ``K_n``.

        Returns ``None`` when no exact counts-level form is known (the
        default); protocols whose tick law depends on the colour
        histogram only override this so
        :func:`repro.engine.dispatch.fastest_engine` can route runs on
        the complete graph through the batched counts engines.
        """
        return None

    def is_absorbed(self, state: NodeArrayState) -> bool:
        """True when no future tick can change the state."""
        return state.is_consensus()


class SequentialCountsProtocol(_EnsembleStateHooks, ABC):
    """Exact counts-level form of a sequential tick rule on ``K_n``.

    A tick of the sequential model picks a uniformly random acting node
    and lets it update from sampled neighbour colours.  On the complete
    graph with uniform sampling the conditional law of the tick given
    the colour histogram ``c`` factors as

    1. the acting node has label ``i`` with probability ``c_i / n``;
    2. given ``i``, the node ends the tick with label ``j`` with
       probability ``P[i, j]`` — a function of ``c`` alone.

    Implementations supply ``P`` for every row of an ``(R, m)`` state
    matrix via :meth:`tick_transition_matrices`; the loop in
    :mod:`repro.engine.counts_async` composes it into exact single-tick
    chains (batch size 1) or frozen-rate batched multinomial updates
    (the fast path — see the module docstring for the exactness
    argument and the error budget of batching).  A single run is the
    one-row case.

    The label space may be wider than the colour space (Undecided-State
    appends an "undecided" bucket); :meth:`color_counts_ensemble`
    projects the internal histograms to whatever the stop conditions
    should see.
    """

    name: str = "sequential-counts-protocol"

    @abstractmethod
    def init_counts(self, config: ColorConfiguration) -> np.ndarray:
        """Label histogram (``int64[m]``) for an initial configuration."""

    @abstractmethod
    def tick_transition_matrices(self, states: np.ndarray) -> np.ndarray:
        """Stacked row-stochastic ``float[R, m, m]``, one slice per row
        of *states*: ``P[r, i, j]`` is the probability that an acting
        node with label ``i`` ends the tick with label ``j``, given the
        histogram ``states[r]``.

        The engine may write to the returned array.  Slices' rows of
        *empty* label classes are never drawn from and their content is
        ignored — the engine overwrites them with identity rows before
        sampling, so implementations need not special-case them.
        """


def diagonals(matrices: np.ndarray) -> np.ndarray:
    """Writable ``(R, m)`` view of the diagonals of a C-contiguous
    ``(R, m, m)`` stack — a strided slice, cheaper to read and write
    than ``matrices[:, idx, idx]`` fancy indexing."""
    reps, m, _ = matrices.shape
    return matrices.reshape(reps, m * m)[:, :: m + 1]


def self_excluded_sample_probabilities_ensemble(states: np.ndarray) -> np.ndarray:
    """``Q[r, i, j]``: probability a node of label ``i`` samples label
    ``j`` under histogram ``states[r]``.

    On ``K_n`` a node samples uniformly among its ``n - 1`` neighbours,
    i.e. everyone but itself, so a label-``i`` node sees label-``j``
    mass ``c_j - [i == j]``.  Rows of empty classes are clipped to
    valid (all-zero on the diagonal deficit) — callers overwrite them.
    """
    states = np.asarray(states, dtype=float)
    m = states.shape[1]
    n = states.sum(axis=1)
    q = np.repeat(states[:, None, :], m, axis=1)
    diagonals(q)[...] = states - 1.0
    q /= (n - 1.0)[:, None, None]
    return np.maximum(q, 0.0, out=q)
