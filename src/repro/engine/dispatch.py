"""Engine selection: route a (protocol, topology, model) onto the
fastest engine that draws from its law.

Exactness class per route.  The synchronous engines (agent and counts)
and the agent tick engines are *exact*: every run follows the
protocol's law.  The counts tick routes taken from the crossover up
(``CountsSequentialEngine`` and ``CountsContinuousEngine``, through
either entry point) are *batched(B/n)*: they freeze the tick rates over
batches of ``B = max(1, round(n / 256))`` ticks, an ``O(B / n)`` error
(:mod:`repro.engine.counts_async`), exact only where ``B = 1``
(``n < 384``).

The repo grew one engine per execution model (synchronous rounds,
sequential ticks, Poisson clocks) plus counts-level fast paths that are
only valid on ``K_n``.  :func:`fastest_engine` encodes the routing
table so benchmarks, the CLI and library users pick up new fast paths
automatically instead of hard-coding engine classes:

==================  =========================  ===============================
model               on ``K_n``                 elsewhere / with delays
==================  =========================  ===============================
``"synchronous"``   CountsEngine (counts       SynchronousEngine
                    protocols) else
                    SynchronousEngine
``"sequential"``    CountsSequentialEngine     SequentialEngine
                    when the protocol has a
                    counts-level tick law and
                    ``n * n_reps >= 100_000``
                    (counts crossover), else
                    SequentialEngine
``"continuous"``    CountsContinuousEngine     ContinuousEngine (block path
                    when zero-delay, a         when zero-delay, event queue
                    counts-level tick law and  under a real delay model)
                    ``n * n_reps >= 100_000``
                    else ContinuousEngine
==================  =========================  ===============================

Protocols built directly as counts tick protocols
(:class:`~repro.protocols.base.SequentialCountsProtocol`) always run
on the counts engines: they have no agent-level form.

Counts-crossover note (asynchronous models, on ``K_n``)
    A counts tick engine advances ``B = round(n / 256)`` ticks (at least
    one) per multinomial batch, so a run costs about ``256 * T``
    batches for ``T`` units of parallel time once ``n >= 384``, and one
    batch per tick below; ``run_ensemble`` stacks ``R`` replications
    into each batch.  The per-tick agent engines cost ``~ n * R * T``.
    The counts route therefore wins only from a fixed amount of work in
    ``n * n_reps``: :data:`COUNTS_TICK_CROSSOVER` (``10^5``) and up take
    the counts companion, below it
    :class:`~repro.engine.sequential.SequentialEngine` /
    :class:`~repro.engine.continuous.ContinuousEngine` run and
    :func:`~repro.engine.ensemble.run_replicated` loops them on
    spawn-child seeds.  Below the crossover the reroute is also the
    more exact one: the agent engines follow the tick law exactly,
    while a counts batch with ``B > 1`` carries an ``O(B / n)``
    frozen-rate error (:mod:`repro.engine.counts_async`).

    Measured grid (wall ms per ``simulate``-shaped call, ``k = 4``
    multiplicative-bias initial, run to consensus; best of 3 where
    ``n * R <= 2e4``, else one run; numpy kernel, one pinned CPU of a
    2-vCPU Xeon container).  Each cell is counts route / agent route
    in ms; ``*`` marks the engine this table routes to.

    Sequential model:

    ============  =======  ================  ================  ================  ================
    protocol      n        R = 1             R = 6             R = 20            R = 64
    ============  =======  ================  ================  ================  ================
    2-choices     100      36 / 1.4*         76 / 8.7*         136 / 50*         202 / 102*
    2-choices     1e3      165 / 7.3*        273 / 50*         390 / 167*        640 / 450*
    2-choices     1e4      149 / 32*         306 / 219*        559* / 1004       817* / 3077
    2-choices     1e5      263* / 368        497* / 2050       630* / 6843       888* / 22623
    3-majority    100      49 / 3.8*         159 / 24*         137 / 59*         245 / 294*
    3-majority    1e3      289 / 15*         404 / 94*         493 / 283*        776 / 926*
    3-majority    1e4      257 / 50*         453 / 446*        599* / 1518       1286* / 4621
    3-majority    1e5      342* / 538        567* / 3094       848* / 9789       1551* / 33322
    undecided     100      109 / 5.3*        130 / 25*         213 / 101*        273 / 298*
    undecided     1e3      173 / 10*         530 / 119*        626 / 347*        1427 / 1290*
    undecided     1e4      308 / 89*         557 / 533*        680* / 1655       1044* / 5767
    undecided     1e5      364* / 540        781* / 3675       981* / 11522      1721* / 36776
    ============  =======  ================  ================  ================  ================

    Continuous model:

    ============  =======  ================  ================  ================  ================
    protocol      n        R = 1             R = 6             R = 20            R = 64
    ============  =======  ================  ================  ================  ================
    2-choices     100      52 / 2.6*         166 / 13*         255 / 50*         289 / 140*
    2-choices     1e3      167 / 9.5*        427 / 64*         564 / 164*        831 / 730*
    2-choices     1e4      246 / 53*         489 / 328*        921* / 1006       1167* / 3413
    2-choices     1e5      331* / 469        692* / 2455       846* / 8637       1324* / 23702
    3-majority    100      65 / 2.3*         170 / 41*         262 / 75*         384 / 294*
    3-majority    1e3      202 / 13*         570 / 94*         785 / 280*        900 / 1093*
    3-majority    1e4      330 / 76*         754 / 498*        923* / 1562       1245* / 4738
    3-majority    1e5      375* / 589        678* / 3191       926* / 9916       1692* / 33636
    undecided     100      94 / 6.1*         261 / 32*         404 / 115*        453 / 311*
    undecided     1e3      226 / 16*         794 / 99*         1047 / 462*       1392 / 1482*
    undecided     1e4      355 / 102*        869 / 572*        1061* / 2034      1600* / 6863
    undecided     1e5      519* / 1057       1001* / 4272      1519* / 13247     2001* / 41792
    ============  =======  ================  ================  ================  ================

    The routed engine is within 1.33x of the fastest exact engine
    (counts, agent or the since-deleted adaptive-block engine) in every
    cell; routing every cell to the counts engines was up to 28x off.
    Per-cell crossovers sit near ``n = 5e4`` at ``R = 1`` and fall
    roughly as ``1 / R``, so one constant in ``n * R`` fits both models
    and all three protocols.
    Voter, left out of the grid for its ``Theta(n)`` parallel time,
    agrees where it is cheap to time: sequential, ``R = 1``, counts 269
    vs agent 19 ms at ``n = 100`` and 3623 vs 294 ms at ``n = 10^3``.

One agent tick loop, two clocks
    Every agent tick run that does not take the counts route, at every
    ``n`` and on every topology, runs the one block loop of
    :mod:`repro.engine.sequential`: :class:`~repro.engine.sequential.
    SequentialEngine` on the sequential clock (8192-tick blocks) and
    :class:`~repro.engine.continuous.ContinuousEngine` on the Poisson
    clock (4096-tick blocks, ``Exp(n)`` gaps).  Each block goes through
    the protocol's ``seq_tick_batch``: footprint protocols presample the
    block's targets and apply hazard-free chunks
    (:func:`~repro.core.hazard.apply_hazard_free`, or the compiled
    ``REPRO_KERNEL`` loop); async-plurality has its own block path
    (:func:`~repro.protocols.async_plurality.apply_tick_block`, two
    presampled neighbours per tick, scalar over list state, no
    footprint and no kernel); the others loop per tick.  An adaptive-block
    twin of each engine, routed off ``K_n`` from ``n >= 30_000``
    (sequential) or at every ``n`` (continuous), was measured against
    them and deleted (numpy kernel, one pinned CPU of a 2-vCPU
    container, EXPERIMENTS.md "One agent engine per clock"): 2.38 s
    routed through it vs 2.17 s on these engines for the first ten
    perfbench sparse-topologies specs (min of 5 alternating runs), and
    a tie within the machine's noise on ``n ~ 10^5`` torus and
    random-regular runs, for 40 units of parallel time and to
    consensus.  Its block sizer also fed on the numpy path's hazard-cut
    count, which the C kernel does not report, so its values depended
    on ``REPRO_KERNEL``; fixed blocks make free-running runs
    bit-identical under every kernel.

Three counts engines, two entry points: every counts engine has
``run`` (one replication, traceable) and ``run_ensemble``, which
advances all *n_reps* replications per numpy batch
(:mod:`repro.engine.ensemble`).  Every counts protocol, round or tick,
has one ``(R, m)`` hook, so *n_reps* never changes the class a counts
row returns; it only feeds the crossover.  The agent rows have ``run``
alone and the caller loops (see
:func:`repro.engine.ensemble.run_replicated`).

Every returned engine draws from the *same law* as the engine it
replaces, up to the counts batches' ``O(B / n)`` error (see the
exactness notes in :mod:`repro.engine.counts_async` and
:mod:`repro.engine.ensemble`), so swapping in :func:`fastest_engine`
changes wall-clock time, not the distribution of results.  A route
change does change a seeded spec's *values*: the engines consume
their streams differently.
"""

from __future__ import annotations

from typing import Optional, Union

from ..core.exceptions import ConfigurationError
from ..graphs.topology import Topology
from ..protocols.base import (
    CountsProtocol,
    SequentialCountsProtocol,
    SequentialProtocol,
    SynchronousProtocol,
)
from .base import require_static_topology
from .continuous import ContinuousEngine
from .counts import CountsEngine
from .counts_async import CountsContinuousEngine, CountsSequentialEngine
from .delays import DelayModel
from .sequential import SequentialEngine
from .synchronous import SynchronousEngine

__all__ = ["fastest_engine", "COUNTS_TICK_CROSSOVER"]

AnyProtocol = Union[SynchronousProtocol, CountsProtocol, SequentialProtocol, SequentialCountsProtocol]

#: ``n * n_reps`` from which a tick protocol's counts companion beats
#: the per-tick agent engines on ``K_n`` (see the counts-crossover note
#: above; measured on both asynchronous models with Two-Choices,
#: 3-Majority and Undecided-State, Voter spot-checked).
COUNTS_TICK_CROSSOVER = 100_000


def fastest_engine(
    protocol: AnyProtocol,
    topology: Topology,
    model: str = "sequential",
    delay_model: Optional[DelayModel] = None,
    n_reps: int = 1,
):
    """Build the fastest exact engine for *protocol* on *topology*.

    Parameters
    ----------
    protocol:
        Any protocol object of the four interface families.
    topology:
        Where the protocol runs; counts-level fast paths require
        ``topology.is_complete()``.
    model:
        ``"sequential"`` (tick-based asynchronous, the default),
        ``"continuous"`` (Poisson clocks) or ``"synchronous"``
        (round-based).
    delay_model:
        Response delays for the continuous model; a non-zero delay
        model forces the event-queue engine.
    n_reps:
        How many independent replications the caller wants.  It also
        sets the work the counts crossover weighs: tick protocols take
        their counts companion on ``K_n`` only from ``topology.n *
        n_reps >= COUNTS_TICK_CROSSOVER``.  The counts engines also
        offer ``run_ensemble``; the agent engines do not and the caller
        loops — use :func:`repro.engine.ensemble.run_replicated` to not
        care which.

    Returns
    -------
    An engine instance whose ``run(initial, ..., seed=...)`` (or
    ``run_ensemble(initial, n_reps, ..., seed=...)``) draws each
    replication from the same law as the reference engine for *model*.
    Counts-level engines require a
    :class:`~repro.core.colors.ColorConfiguration` initial state.
    """
    if n_reps < 1:
        raise ConfigurationError(f"n_reps must be positive, got {n_reps}")
    if model != "sequential":
        require_static_topology(topology, model)
    on_complete = topology.is_complete()

    if model == "synchronous":
        if delay_model is not None and not delay_model.is_zero():
            raise ConfigurationError("delay models only apply to the continuous model")
        if isinstance(protocol, CountsProtocol):
            if not on_complete:
                raise ConfigurationError(f"{protocol.name} is counts-level and needs K_n")
            return CountsEngine(protocol)
        if isinstance(protocol, SynchronousProtocol):
            return SynchronousEngine(protocol, topology)
        raise ConfigurationError(f"{protocol.name} does not implement the synchronous model")

    if model not in ("sequential", "continuous"):
        raise ConfigurationError(
            f"unknown model {model!r}; expected 'sequential', 'continuous' or 'synchronous'"
        )

    zero_delay = delay_model is None or delay_model.is_zero()
    if model == "sequential" and not zero_delay:
        raise ConfigurationError("response delays require the continuous model")
    counts_engine = CountsSequentialEngine if model == "sequential" else CountsContinuousEngine

    if isinstance(protocol, SequentialCountsProtocol):
        if not on_complete:
            raise ConfigurationError(f"{protocol.name} is counts-level and needs K_n")
        if not zero_delay:
            raise ConfigurationError("counts-level tick protocols cannot simulate response delays")
        return counts_engine(protocol)

    if not isinstance(protocol, SequentialProtocol):
        raise ConfigurationError(f"{protocol.name} does not implement the {model} model")

    if zero_delay and on_complete and topology.n * n_reps >= COUNTS_TICK_CROSSOVER:
        companion = protocol.as_sequential_counts()
        if companion is not None:
            return counts_engine(companion)

    if model == "continuous":
        return ContinuousEngine(protocol, topology, delay_model=delay_model)
    return SequentialEngine(protocol, topology)
