"""Protocol interfaces.

The paper's processes are driven by three different machines, so a
protocol may implement up to four complementary interfaces:

:class:`SynchronousProtocol`
    Round-based, agent-level: ``round_update`` rewrites the whole state
    vector once per synchronous round (Theorems 1.1 and 1.2 substrate).
:class:`CountsProtocol`
    Round-based on ``K_n`` at the level of label *histograms*.  On the
    complete graph with uniform sampling the round transition of every
    protocol here depends only on the histogram, so a round can be
    drawn *exactly* from a handful of multinomials — this is what lets
    the benchmarks sweep ``n`` up to ``10^9``.  The state of ``R``
    independent replications is an ``(R, m)`` matrix and one
    :meth:`~CountsProtocol.step_ensemble` call advances every row; a
    single run is the one-row case.
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
    counterpart of :class:`CountsProtocol`, on the same ``(R, m)``
    matrices, and what powers the batched tick engines in
    :mod:`repro.engine.counts_async` (paper-scale asynchronous sweeps
    at ``n`` up to ``10^8`` and beyond).

Protocols are stateless policy objects; all mutable simulation state
lives in :class:`~repro.core.state.NodeArrayState` (or a subclass), so
one protocol instance can drive many concurrent runs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.colors import ColorConfiguration
from ..core.hazard import apply_hazard_free
from ..core.state import NodeArrayState
from ..graphs.topology import Topology

__all__ = [
    "SynchronousProtocol",
    "CountsProtocol",
    "SequentialProtocol",
    "SequentialCountsProtocol",
    "TickFootprint",
    "diagonals",
    "draw_classes",
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


#: the one-tick layout :meth:`SequentialProtocol.tick_apply` hands a
#: ``tick_rule``: actor in slot 0, observed colours in slots 1..s.
_ONE_TICK_ACTOR = [0]
_ONE_TICK_COLUMNS = tuple([slot] for slot in range(1, 9))


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
    """Exact counts-level round protocol on the complete graph.

    The state of ``R`` independent replications is an ``(R, m)`` int64
    matrix, one *internal* histogram per row.  For most protocols a row
    is the plain label histogram; OneExtraBit widens it to bit-set and
    bit-unset counts per colour plus its position in the phase
    schedule.  :meth:`color_counts_ensemble` projects the rows back to
    the colour histograms the stop conditions see.

    :meth:`step_ensemble` is the one round rule, and its contract is
    exactness per row: every row of the result is drawn from the
    agent-based round law on ``K_n`` given that row.  Stacked numpy
    ``multinomial`` / ``binomial`` calls satisfy it, because the
    generator draws their rows one after the other, each from its own
    arguments.  A class with no members draws nothing from the
    generator, so its rows need no masking.  A single run is the
    one-row case: :meth:`step`, :meth:`color_counts` and
    :meth:`is_absorbed` are that case on a 1-D state.
    """

    name: str = "counts-protocol"

    @abstractmethod
    def init_counts(self, config: ColorConfiguration) -> np.ndarray:
        """Internal histogram (``int64[m]``) for an initial configuration."""

    @abstractmethod
    def step_ensemble(self, states: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Advance every row of the ``(R, m)`` *states* by one round."""

    def init_ensemble(self, config: ColorConfiguration, n_reps: int) -> np.ndarray:
        """``(n_reps, m)`` stacked initial histograms (all rows equal)."""
        row = np.asarray(self.init_counts(config), dtype=np.int64)
        return np.repeat(row[None, :], n_reps, axis=0)

    def color_counts_ensemble(self, states: np.ndarray) -> np.ndarray:
        """Project the ``(R, m)`` internal states to colour counts."""
        return states

    def is_absorbed_ensemble(self, states: np.ndarray) -> np.ndarray:
        """Row-wise fixed-point test (``bool[R]``): one colour holds everyone."""
        counts = self.color_counts_ensemble(states)
        return counts.max(axis=1) == counts.sum(axis=1)

    def step(self, counts_state: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One round of a single run: the one-row :meth:`step_ensemble`."""
        return self.step_ensemble(np.asarray(counts_state, dtype=np.int64)[None, :], rng)[0]

    def color_counts(self, counts_state: np.ndarray) -> np.ndarray:
        """Colour counts of a single run's internal histogram."""
        return self.color_counts_ensemble(np.asarray(counts_state)[None, :])[0]

    def is_absorbed(self, counts_state: np.ndarray) -> bool:
        """True when a single run's state is a fixed point."""
        return bool(self.is_absorbed_ensemble(np.asarray(counts_state)[None, :])[0])


def draw_classes(rng: np.random.Generator, states: np.ndarray, pvals: np.ndarray) -> np.ndarray:
    """One multinomial per (row, class) of an ``(R, m)`` state matrix.

    Class ``i`` of row ``r`` sends its ``states[r, i]`` members to the
    outcomes of ``pvals[r, i]`` (shape ``(R, m, d)``).  Returns the
    ``(m, R, d)`` outcome counts, drawn class-major: class 0 of every
    row, then class 1, and so on.  A class with no members consumes
    nothing from the generator, and one call replaces ``m`` stacked
    calls at the same stream.
    """
    return rng.multinomial(states.T, pvals.transpose(1, 0, 2))


class SequentialProtocol(ABC):
    """Tick-based protocol: one node acts per tick.

    Subclasses implement :meth:`tick_targets` plus either a scalar
    :attr:`tick_rule` (which the default :meth:`tick_apply` runs for one
    tick) or their own :meth:`tick_apply`; the default :meth:`seq_tick`
    composes them with an instantaneous observation, which is the
    paper's base model ("once a node contacts another node, it receives
    that node's response without any delay").
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

    #: scalar tick rule over Python lists, or ``None`` when the protocol
    #: overrides :meth:`tick_apply` instead.  A rule is a method
    #: ``tick_rule(state, colors, nodes, columns) -> written`` that
    #: applies one tick per entry of the list *nodes*, in order, to the
    #: colour list *colors* in place: tick ``t`` reads
    #: ``colors[columns[j][t]]`` for each of the footprint's ``s``
    #: target columns (and, if it needs it, ``colors[nodes[t]]``) and
    #: writes at most ``colors[nodes[t]]``.  It returns the list of
    #: nodes it wrote, in write order (repeats allowed).  It is the
    #: pure-Python twin of the protocol's compiled ``REPRO_RULE_*`` loop
    #: and must draw no randomness; the hazard path runs it on whole
    #: engine blocks when writes are dense (:func:`repro.core.hazard.
    #: apply_scalar`) and :meth:`tick_apply` runs it on one tick.
    tick_rule = None

    def make_state(self, colors: np.ndarray, k: int) -> NodeArrayState:
        """Build the state object this protocol operates on."""
        return NodeArrayState(colors=np.asarray(colors, dtype=np.int64), k=k)

    @abstractmethod
    def tick_targets(self, state: NodeArrayState, node: int, topology: Topology, rng: np.random.Generator) -> np.ndarray:
        """Nodes the ticking node wants to observe (may be empty)."""

    def tick_apply(self, state: NodeArrayState, node: int, observed_colors: np.ndarray) -> None:
        """Update *node* given the observed colours of its targets.

        The default runs :attr:`tick_rule` on one tick over a local list
        ``[own colour, *observed]``.  A tick that observed fewer colours
        than the footprint samples (a lossy channel dropped some) is a
        no-op, which is what every rule here does with a short sample.
        """
        if self.tick_rule is None:
            raise NotImplementedError(f"{type(self).__name__} has neither a tick_rule nor a tick_apply")
        samples = len(observed_colors)
        if samples != self.tick_footprint.samples:
            return
        colors = state.colors
        local = [colors.item(node), *observed_colors.tolist()]
        if self.tick_rule(state, local, _ONE_TICK_ACTOR, _ONE_TICK_COLUMNS[:samples]):
            colors[node] = local[0]

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

    def trace_fields(self, state: NodeArrayState) -> Optional[dict]:
        """Extra observables the tick engines store on each trace point.

        ``None`` (the default) records counts only.  Traces never enter
        a result payload, so a protocol may report anything here.
        """
        return None

    def default_budget(self, n: int) -> float:
        """Parallel-time budget of a run whose caller sets none.

        ``50 ln n`` generously covers every ``Theta(log n)`` protocol
        here; protocols with a longer schedule of their own override it.
        The tick engines turn it into ``n`` ticks per unit.
        """
        return 50 * max(np.log(n), 1.0)


class SequentialCountsProtocol(ABC):
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

    # The tick chain runs on the round interface's histogram matrices.
    init_ensemble = CountsProtocol.init_ensemble
    color_counts_ensemble = CountsProtocol.color_counts_ensemble
    is_absorbed_ensemble = CountsProtocol.is_absorbed_ensemble


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
