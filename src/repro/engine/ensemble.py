"""Ensembles: R replications of a counts engine per numpy batch.

Every paper experiment estimates a *distribution* of convergence times,
so the unit of work is not one run but R independent replications of
one run.  A single counts-level run is fast; the replication loop
around it then dominates every sweep, because each of its ~256
batches per unit parallel time is a handful of numpy calls on O(k)
data — pure Python overhead.  The three counts engines amortise that
overhead across the whole ensemble: each has one loop whose state is
an ``(R, m)`` matrix of label histograms, one batch advances *every
still-running replication* with the same number of numpy calls a
single run would spend, and the numpy calls are stacked multinomials
whose rows are drawn independently.  Each engine has two entry points
over that loop: ``run`` (one replication, traceable) and
``run_ensemble`` (``R`` replications, each result tagged ``n_reps`` and
``replication``).

Exactness contract
------------------
Each replication's marginal law is *identical* to a single run — not
merely close:

* row ``r`` of every stacked ``Generator.multinomial`` /
  ``binomial`` / ``gamma`` call is an independent draw from exactly the
  distribution a single run would use for that replication's state,
  and
* there is one loop per time unit, and a single run is its ``R = 1``
  case: the round loop of :class:`~repro.engine.counts.CountsEngine`
  and the tick loop in :mod:`repro.engine.counts_async`.  A
  one-replication ``run_ensemble`` therefore reproduces ``run``
  value-for-value from a shared seed, on every counts engine.
  ``tests/test_ensemble.py`` enforces both clauses.

Every round protocol has one hook,
:meth:`~repro.protocols.base.CountsProtocol.step_ensemble`, which draws
all colour classes of all rows in one class-major call.

The grid invariants of the single-run tick engines carry over
unchanged: sequential parallel time is exactly ``ticks / n`` (the same
float grid as :class:`~repro.engine.sequential.SequentialEngine`), and
stop conditions are evaluated on the ``check_every = n`` tick grid.

Masking and compaction
----------------------
Replications finish at different times.  A replication is *retired* —
its :class:`~repro.core.results.RunResult` is recorded and its row is
compacted out of the state matrix — as soon as its stop condition
holds (after any round, or at a tick grid check), it reaches an
absorbing non-stop state, or its tick/time/round budget runs out.  The
active set therefore shrinks as the ensemble drains, and the per-batch
cost falls with it; the engine returns when the last replication
retires.  All replications advance
in lockstep on the shared tick grid (they run the same protocol on the
same ``n``), which is what makes one stacked draw per batch possible.
"""

from __future__ import annotations

from typing import List

from ..core.colors import ColorConfiguration
from ..core.results import RunResult
from ..core.rng import SeedLike, spawn_seed_sequences, split

__all__ = ["run_replicated"]


def _tag_replications(results: List[RunResult]) -> List[RunResult]:
    """Stamp ensemble metadata (``n_reps``, ``replication``) on *results*."""
    for rep, result in enumerate(results):
        result.metadata.update(n_reps=len(results), replication=rep)
    return results


def run_replicated(
    engine,
    initial: ColorConfiguration,
    n_reps: int,
    seed: SeedLike = None,
    **run_kwargs,
) -> List[RunResult]:
    """Collect *n_reps* independent :class:`RunResult`\\ s from *engine*.

    The transparent replication front door: the counts engines run all
    replications in one vectorised ``run_ensemble`` pass on the stream
    ``split(seed, "ensemble")``; the agent engines fall back to the
    looped path, trial *i* on child *i* of ``SeedSequence(master).spawn``.
    Both paths draw every replication from the same law (the ensemble
    exactness contract above), so callers may treat the routing as a
    pure wall-clock optimisation.  The two paths consume different —
    mutually independent — streams, so only the *distribution* of
    results is shared, not the values; see DESIGN.md for the seeding
    contract.
    """
    if hasattr(engine, "run_ensemble"):
        return engine.run_ensemble(initial, n_reps=n_reps, seed=split(seed, "ensemble"), **run_kwargs)
    return [
        engine.run(initial, seed=child, **run_kwargs)
        for child in spawn_seed_sequences(seed, n_reps)
    ]
