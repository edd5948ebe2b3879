"""Hazard-free tick batching for asynchronous dynamics on sparse graphs.

The sequential model applies one tick at a time: tick ``t`` picks an
acting node, reads the colours of a few sampled neighbours (and
possibly its own), and writes (at most) the acting node.  Because
target *identities* are state-independent — every protocol here samples
uniformly from a static adjacency structure — a block of ``B`` ticks
can presample all its initiators and targets up front; only the colour
*reads* depend on the order of application.

A presampled block has two exact realisations, and
:func:`apply_hazard_free` picks one per call (one engine block):

**Scalar list rule** (:func:`apply_scalar`).  The block runs one tick
at a time through the protocol's ``tick_rule`` — the pure-Python twin
of its compiled ``REPRO_RULE_*`` loop (:mod:`repro.core.hazard_kernel`)
— on a Python list copy of the colours.  It is the per-tick loop
itself, so it is exact by construction: every tick reads the live
colours left by all earlier ticks.  Frozen actors (fault masks, below)
are dropped from the block first; their ticks are no-ops and reads
have no side effects, so dropping them changes nothing.  Only the
nodes the rule wrote are scattered back, so the cost is one ``O(n)``
``tolist`` plus ~0.1-0.3 µs per tick.

**Numpy hazard windows** (:func:`apply_windows`).  Evaluate every tick
of a window **optimistically** from the window-start snapshot.  A tick
*actually writes* iff its new value differs from the acting node's
current colour (writing an equal value is a no-op, so unchanged nodes
are invisible to later reads).  A tick is **hazardous** iff its read
set — the acting node plus its sampled targets — contains a node
*actually written* by an earlier tick of the window.  The prefix up to
the first hazardous tick is exact:

* every tick before the first hazard read only unchanged-or-snapshot
  values, so its optimistic value and its write/no-write decision are
  the true sequential ones (induction over the prefix);
* two prefix ticks never write the same node — the second writer's own
  node would have been written before it acted, making it hazardous —
  so scattering the writers' values in one numpy pass is unambiguous
  and **bit-identical** to applying the prefix one tick at a time.

Applying the prefix, cutting at the first hazardous tick and
re-evaluating the remainder against the updated state therefore
reproduces the sequential law *exactly*, not just distributionally.
The acting node always counts as read — even for protocols whose
update rule ignores the own colour — because the no-op test above
compares against it; this also keeps the scatter collision-free.

**Which one runs.**  Hazards follow birthday statistics: with per-tick
write fraction ``w`` and ``1 + s``-node read sets the first collision
lands around tick ``L = sqrt(2 n / ((1 + s) w))``.  A numpy window
costs tens of microseconds whatever it applies, so it pays only when
``L`` is long — the coarsening and near-consensus phases where ``w``
is small and whole blocks apply in one pass.  In dense write phases
(the start of small ``K_n`` runs, ``L`` of a few dozen ticks) the
scalar rule wins.  :func:`apply_hazard_free` predicts ``L`` from the
``w`` the *previous* call measured (kept on :class:`HazardScratch`;
the first call assumes ``w = 1``) and takes the scalar rule iff ``L <
``:data:`SCALAR_RUN_BREAK_EVEN`.  Choosing per window instead would
convert the whole ``O(n)`` state on every switch.  Either choice gives
the same bits, so the choice trades wall-clock only.

Protocols that declare a :class:`~repro.protocols.base.TickFootprint`
but no vectorised :meth:`~repro.protocols.base.SequentialProtocol.
tick_values` rule fall back to a conservative windowed variant — every
tick counts as a writer — which is exact for the same reasons (the true
write set is a subset of the assumed one) and still batches whenever
initiators and reads stay disjoint.

The first-writer table is ``O(n)`` memory but is written sparsely — a
monotone *clock* distinguishes the current evaluation from stale
entries, so the table never needs clearing between blocks
(:class:`HazardScratch`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .hazard_kernel import kernel_for

__all__ = [
    "SCALAR_RUN_BREAK_EVEN",
    "HazardScratch",
    "apply_hazard_free",
    "apply_scalar",
    "apply_windows",
]

#: "resolve the kernel yourself" marker for :func:`apply_hazard_free`'s
#: *kernel* parameter (``None`` means "numpy path, explicitly").
_RESOLVE = object()

#: predicted hazard-free run (ticks) below which :func:`apply_hazard_free`
#: applies a block with the scalar list rule instead of numpy windows
#: (see the module docstring for the prediction).  Measured by timing
#: both realisations on the same blocks of runs to consensus (or a
#: budget) of the four footprint protocols on ``K_n`` (n 150, 500,
#: 2000), a 1e4 torus, a 2e4 ring, a 2e4 random 4-regular graph and a
#: 1.5e4 Watts-Strogatz graph, binned by the predicted run (µs per
#: tick, scalar / windows; numpy kernel, one pinned CPU of a 2-vCPU
#: x86_64 container):
#:
#: ===========  ===========  ===========  ===========  ===========  ===========
#: run < 64     64-128       128-192      192-256      256-384      >= 384
#: ===========  ===========  ===========  ===========  ===========  ===========
#: 0.24 / 0.86  0.27 / 0.36  0.24 / 0.28  0.20 / 0.25  0.18 / 0.18  0.16 / 0.11
#: ===========  ===========  ===========  ===========  ===========  ===========
#:
#: A threshold of 256 gave the least total time over all blocks.
SCALAR_RUN_BREAK_EVEN = 256


class HazardScratch:
    """Reusable first-writer table over a fixed node set ``0..n-1``.

    ``_first[v]`` holds the clock stamp of the earliest tick writing
    ``v`` in the most recent evaluation that touched ``v``.  Stamps are
    drawn from a monotonically increasing clock, so entries left over
    from earlier evaluations are always *below* the current stamp range
    and are ignored without any ``O(n)`` reset.

    ``write_fraction`` is the share of ticks that actually wrote in the
    most recent block (1.0 before the first), which
    :func:`apply_hazard_free` turns into its predicted hazard-free run.
    """

    def __init__(self, n: int):
        self.n = int(n)
        self._first = np.full(self.n, -1, dtype=np.int64)
        self._clock = 0
        self._reads: Optional[np.ndarray] = None
        self._ramp = np.arange(0, dtype=np.int64)
        self.write_fraction = 1.0

    def reads_buffer(self, m: int, width: int) -> np.ndarray:
        """A reusable ``int64[m, width]`` read-set buffer.

        Grown on demand and shared across the blocks of a run, so the
        per-block presample assembly never re-allocates once the block
        size stabilises.  The content is overwritten by every caller — only
        the storage is shared.
        """
        buffer = self._reads
        if buffer is None or buffer.shape[0] < m or buffer.shape[1] != width:
            buffer = np.empty((m, width), dtype=np.int64)
            self._reads = buffer
        return buffer[:m]

    @classmethod
    def for_state(cls, state) -> "HazardScratch":
        """The scratch cached on *state*, built on first use.

        Simulation state objects are per-run, so caching there keeps
        protocols stateless (one protocol instance may drive many
        concurrent runs) while avoiding an ``O(n)`` table allocation
        per batch call.
        """
        scratch = getattr(state, "_hazard_scratch", None)
        if scratch is None or scratch.n != state.n:
            scratch = cls(state.n)
            state._hazard_scratch = scratch
        return scratch

    def prefers_scalar(self, samples: int) -> bool:
        """True when the next block's predicted hazard-free run,
        ``sqrt(2 n / ((1 + samples) w))``, is below
        :data:`SCALAR_RUN_BREAK_EVEN` (compared squared)."""
        return 2 * self.n < SCALAR_RUN_BREAK_EVEN ** 2 * (1 + samples) * self.write_fraction

    def prefix_length(self, reads: np.ndarray, wrote: Optional[np.ndarray] = None) -> int:
        """Longest hazard-free prefix of a presampled tick block.

        Parameters
        ----------
        reads:
            ``int64[m, 1 + s]`` read set per tick, in tick order:
            column 0 is the acting (written) node, columns ``1:`` the
            presampled target identities.
        wrote:
            Optional ``bool[m]``: which ticks actually write (their
            optimistic value differs from the current colour).  Omitted
            means every tick counts as a writer (conservative).

        Returns the largest ``p`` such that no tick ``t < p`` reads
        (targets or own node) a node written by a tick ``< t`` of the
        same block.  Tick 0 can never be hazardous, so ``p >= 1``
        whenever ``m >= 1`` — callers always make progress.
        """
        m, width = reads.shape
        if m <= 1:
            self._clock += m
            return m
        if self._ramp.shape[0] < m:
            self._ramp = np.arange(m, dtype=np.int64)
        ahead = self._ramp[:m]
        base = self._clock
        first = self._first
        # Reversed fancy assignment: for duplicate writers the last
        # store wins, which (reversed) is the *earliest* tick position.
        if wrote is None:
            first[reads[::-1, 0]] = ahead[::-1] + base
        else:
            writer_positions = ahead[wrote]
            first[reads[writer_positions[::-1], 0]] = writer_positions[::-1] + base
        self._clock = base + m
        # Tick t is hazardous iff some node of its read set was stamped
        # by an *earlier* tick of this evaluation: fresh stamp
        # (>= base), strictly before t.  Both conditions collapse into
        # one unsigned comparison — stale stamps (< base) wrap to huge
        # values under the subtraction.  The own column compares its
        # own stamp at == position t, which is correctly clean.
        relative = (first[reads] - base).view(np.uint64)
        hazard = relative < ahead.view(np.uint64)[:, None]
        # One flat bool argmax short-circuits at the first True, which
        # lies in the first hazardous row; tick 0 is never hazardous,
        # so a 0 result means no hazard anywhere.
        flat = int(np.argmax(hazard))
        return m if flat == 0 else flat // width


#: evaluation-window clamp: re-evaluated spans stay near the observed
#: hazard-free run length, so wasted work is a bounded multiple of the
#: ticks actually applied whatever block size the caller hands in.
_MIN_WINDOW = 64
_INITIAL_WINDOW = 1024


def apply_hazard_free(
    protocol,
    state,
    nodes: np.ndarray,
    targets: np.ndarray,
    scratch: Optional[HazardScratch] = None,
    kernel=_RESOLVE,
) -> int:
    """Apply presampled ticks to *state*, exactly as a sequential loop would.

    *nodes*/*targets* are the block's presampled initiators
    (``int64[B]``) and target identities (``int64[B, s]``).  The block
    runs through one of two exact realisations, chosen once per call
    (see the module docstring): the protocol's scalar ``tick_rule``
    (:func:`apply_scalar`) when the hazard-free run predicted from the
    previous block is shorter than :data:`SCALAR_RUN_BREAK_EVEN`, numpy
    hazard windows (:func:`apply_windows`) otherwise or when the
    protocol has no scalar rule.  When *scratch* is omitted the per-run
    scratch cached on *state* is reused
    (:meth:`HazardScratch.for_state`); it carries the measured write
    fraction from block to block.  Returns the number of hazard cuts
    (0 when the whole block applied cleanly, and always 0 from the
    scalar rule or a compiled kernel, which apply tick by tick).

    When a compiled kernel is active (``REPRO_KERNEL`` — see
    :mod:`repro.core.hazard_kernel`) and supports *protocol*, the whole
    block is applied by the compiled per-tick loop instead.  The result
    is bit-identical either way — the kernel applies exactly the
    sequential semantics the hazard batches emulate, on the same
    presampled draws — so the *kernel* parameter (an engine-resolved
    :class:`~repro.core.hazard_kernel.TickKernel`, or ``None`` to force
    the Python paths) trades wall-clock only.
    """
    if kernel is _RESOLVE:
        kernel = kernel_for(protocol)
    # Compiled kernels do not know the fault mask (repro.protocols.
    # faults), so a masked state always takes a Python path.
    if kernel is not None and getattr(state, "frozen", None) is None:
        return kernel.apply(protocol, state, nodes, targets)
    if scratch is None:
        scratch = HazardScratch.for_state(state)
    if getattr(protocol, "tick_rule", None) is not None and scratch.prefers_scalar(targets.shape[1]):
        return apply_scalar(protocol, state, nodes, targets, scratch)
    return apply_windows(protocol, state, nodes, targets, scratch)


def apply_scalar(
    protocol, state, nodes: np.ndarray, targets: np.ndarray, scratch: Optional[HazardScratch] = None
) -> int:
    """Apply the block one tick at a time with ``protocol.tick_rule``.

    The rule runs on a list copy of ``state.colors``; afterwards only
    the nodes it wrote are scattered back.  States with a ``frozen``
    mask drop their frozen actors' ticks first (no-ops either way).
    Records the block's write fraction on *scratch* when given and
    returns 0 (a tick loop never cuts).
    """
    total = nodes.shape[0]
    frozen = getattr(state, "frozen", None)
    if frozen is not None:
        honest = ~frozen[nodes]
        nodes = nodes[honest]
        targets = targets[honest]
    colors = state.colors
    live = colors.tolist()
    written = protocol.tick_rule(state, live, nodes.tolist(), [column.tolist() for column in targets.T])
    if written:
        colors[written] = [live[node] for node in written]
    if scratch is not None and total:
        scratch.write_fraction = len(written) / total
    return 0


def apply_windows(
    protocol, state, nodes: np.ndarray, targets: np.ndarray, scratch: Optional[HazardScratch] = None
) -> int:
    """Apply the block as a sequence of hazard-free numpy windows.

    Protocols exposing a vectorised ``tick_values`` rule run the
    optimistic actual-write path; others are batched conservatively
    through ``tick_apply_batch``.  Evaluation is *windowed*: each pass
    evaluates an adaptive span that doubles after clean (hazard-free)
    windows and shrinks to twice the cut length after a hazard, so
    total evaluation work stays a small constant multiple of the ticks
    applied even when the caller's block is far longer than the typical
    hazard-free run.  Records the block's write fraction on *scratch*
    (1.0 on the conservative path, where every tick counts as a
    writer) and returns the number of hazard cuts.
    """
    if scratch is None:
        scratch = HazardScratch.for_state(state)
    # States may carry a boolean ``frozen`` mask (fault-injection
    # wrappers: stubborn/Byzantine nodes never update — see
    # repro.protocols.faults).  A frozen actor's tick is forced to a
    # no-op *before* the actual-write test, so the mask only shrinks
    # the write set and the hazard-free-prefix argument is unchanged;
    # the result stays bit-identical to looping tick_apply (which
    # checks the same mask).
    frozen = getattr(state, "frozen", None)
    colors = state.colors
    total = nodes.shape[0]
    # One (B, 1 + s) read-set matrix: the acting node in column 0, the
    # presampled targets after it — one colour gather and one stamp
    # gather per window cover own and target reads alike.
    reads = scratch.reads_buffer(total, 1 + targets.shape[1])
    reads[:, 0] = nodes
    reads[:, 1:] = targets
    start = 0
    cuts = 0
    writes = 0
    window = _INITIAL_WINDOW
    while start < total:
        end = min(start + window, total)
        sub_reads = reads[start:end]
        read_colors = colors[sub_reads]
        own = read_colors[:, 0]
        observed = read_colors[:, 1:]
        values = protocol.tick_values(state, own, observed)
        if values is not None and frozen is not None:
            values = np.where(frozen[sub_reads[:, 0]], own, values)
        if values is None:
            # No vectorised value rule: conservative hazard test plus
            # the protocol's own (possibly looping) batch apply.
            prefix = scratch.prefix_length(sub_reads)
            protocol.tick_apply_batch(state, nodes[start:start + prefix], observed[:prefix])
            writes += prefix
        else:
            wrote = values != own
            if not wrote.any():
                # Nothing changes: the whole window is clean.
                prefix = sub_reads.shape[0]
            else:
                prefix = scratch.prefix_length(sub_reads, wrote)
                writers = np.flatnonzero(wrote[:prefix])
                colors[sub_reads[writers, 0]] = values[writers]
                writes += writers.shape[0]
        if prefix == end - start:
            window *= 2
        else:
            cuts += 1
            window = max(2 * prefix, _MIN_WINDOW)
        start += prefix
    if total:
        scratch.write_fraction = writes / total
    return cuts
