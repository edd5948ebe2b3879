"""Hazard-free tick batching for asynchronous dynamics on sparse graphs.

The sequential model applies one tick at a time: tick ``t`` picks an
acting node, reads the colours of a few sampled neighbours (and
possibly its own), and writes (at most) the acting node.  Because
target *identities* are state-independent — every protocol here samples
uniformly from a static adjacency structure — a block of ``B`` ticks
can presample all its initiators and targets up front; only the colour
*reads* depend on the order of application.

Evaluate every tick of the block **optimistically** from the
block-start snapshot.  A tick *actually writes* iff its new value
differs from the acting node's current colour (writing an equal value
is a no-op, so unchanged nodes are invisible to later reads).  A tick
is **hazardous** iff its read set — the acting node plus its sampled
targets — contains a node *actually written* by an earlier tick of the
block.  The prefix up to the first hazardous tick is exact:

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

Counting only *actual* writes is what makes the batch fast where it
matters: hazards follow birthday statistics, so with per-tick write
probability ``w`` and ``r``-node read sets the first collision lands
around tick ``sqrt(2 n / (r w))``.  In the long coarsening and
near-consensus phases that dominate runs to consensus ``w`` is small
and whole blocks apply in a single numpy pass.

Protocols that declare a :class:`~repro.protocols.base.TickFootprint`
but no vectorised :meth:`~repro.protocols.base.SequentialProtocol.
tick_values` rule fall back to a conservative variant — every tick
counts as a writer — which is exact for the same reasons (the true
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

__all__ = ["HazardScratch", "apply_hazard_free"]

#: "resolve the kernel yourself" marker for :func:`apply_hazard_free`'s
#: *kernel* parameter (``None`` means "numpy path, explicitly").
_RESOLVE = object()


class HazardScratch:
    """Reusable first-writer table over a fixed node set ``0..n-1``.

    ``_first[v]`` holds the clock stamp of the earliest tick writing
    ``v`` in the most recent evaluation that touched ``v``.  Stamps are
    drawn from a monotonically increasing clock, so entries left over
    from earlier evaluations are always *below* the current stamp range
    and are ignored without any ``O(n)`` reset.
    """

    def __init__(self, n: int):
        self.n = int(n)
        self._first = np.full(self.n, -1, dtype=np.int64)
        self._clock = 0
        self._reads: Optional[np.ndarray] = None

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
        m = reads.shape[0]
        if m <= 1:
            self._clock += m
            return m
        base = self._clock
        first = self._first
        positions = np.arange(base, base + m, dtype=np.int64)
        # Reversed fancy assignment: for duplicate writers the last
        # store wins, which (reversed) is the *earliest* tick position.
        if wrote is None:
            first[reads[::-1, 0]] = positions[::-1]
        else:
            writer_nodes = reads[wrote, 0]
            writer_positions = positions[wrote]
            first[writer_nodes[::-1]] = writer_positions[::-1]
        self._clock = base + m
        # Tick t is hazardous iff some node of its read set was stamped
        # by an *earlier* tick of this evaluation: fresh stamp
        # (>= base), strictly before t.  Both conditions collapse into
        # one unsigned comparison — stale stamps (< base) wrap to huge
        # values under the subtraction.  The own column compares its
        # own stamp at == positions[t], which is correctly clean.
        relative = (first[reads] - base).view(np.uint64)
        ahead = np.arange(m, dtype=np.uint64)
        hazard = (relative < ahead[:, None]).any(axis=1)
        # bool argmax short-circuits at the first True; tick 0 is never
        # hazardous, so a 0 result means no hazard anywhere.
        cut = int(np.argmax(hazard))
        return m if cut == 0 else cut


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
    (``int64[B]``) and target identities (``int64[B, s]``); the block
    is applied as a sequence of hazard-free chunks (see the module
    docstring for why this is bit-exact).  Protocols exposing a
    vectorised ``tick_values`` rule run the optimistic actual-write
    path; others are batched conservatively through
    ``tick_apply_batch``.

    Evaluation is *windowed*: each pass evaluates an adaptive span that
    doubles after clean (hazard-free) windows and shrinks to twice the
    cut length after a hazard, so total evaluation work stays a small
    constant multiple of the ticks applied even when the caller's block
    is far longer than the typical hazard-free run.  When *scratch* is
    omitted the per-run table cached on *state* is reused
    (:meth:`HazardScratch.for_state`), so repeated calls never pay the
    ``O(n)`` table allocation twice.  Returns the number of hazard cuts
    (0 when the whole block applied cleanly, and always 0 from a
    compiled kernel, which applies tick by tick).

    When a compiled kernel is active (``REPRO_KERNEL`` — see
    :mod:`repro.core.hazard_kernel`) and supports *protocol*, the whole
    block is applied by the compiled per-tick loop instead.  The result
    is bit-identical either way — the kernel applies exactly the
    sequential semantics the hazard batches emulate, on the same
    presampled draws — so the *kernel* parameter (an engine-resolved
    :class:`~repro.core.hazard_kernel.TickKernel`, or ``None`` to force
    the numpy path) trades wall-clock only.
    """
    if kernel is _RESOLVE:
        kernel = kernel_for(protocol)
    # States may carry a boolean ``frozen`` mask (fault-injection
    # wrappers: stubborn/Byzantine nodes never update — see
    # repro.protocols.faults).  A frozen actor's tick is forced to a
    # no-op *before* the actual-write test, so the mask only shrinks
    # the write set and the hazard-free-prefix argument is unchanged;
    # the result stays bit-identical to looping tick_apply (which
    # checks the same mask).  Compiled kernels do not know the mask,
    # so a masked state always takes the numpy path.
    frozen = getattr(state, "frozen", None)
    if kernel is not None and frozen is None:
        return kernel.apply(protocol, state, nodes, targets)
    if scratch is None:
        scratch = HazardScratch.for_state(state)
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
        else:
            wrote = values != own
            if not wrote.any():
                # Nothing changes: the whole window is clean.
                prefix = sub_reads.shape[0]
            else:
                prefix = scratch.prefix_length(sub_reads, wrote)
                writers = np.flatnonzero(wrote[:prefix])
                colors[sub_reads[writers, 0]] = values[writers]
        if prefix == end - start:
            window *= 2
        else:
            cuts += 1
            window = max(2 * prefix, _MIN_WINDOW)
        start += prefix
    return cuts
