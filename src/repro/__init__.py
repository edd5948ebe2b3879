"""repro — Rapid Asynchronous Plurality Consensus (PODC 2017).

A full reproduction library for Elsässer, Friedetzky, Kaaser,
Mallmann-Trenn & Trinker, *Brief Announcement: Rapid Asynchronous
Plurality Consensus* (PODC '17).

Quickstart
----------
>>> from repro import SimulationSpec, simulate
>>> spec = SimulationSpec(protocol="two-choices", n=10_000, reps=4, seed=7)
>>> result = simulate(spec)
>>> result.converged_rate
1.0

The spec names registered protocols / topologies / initial conditions
(``repro.api.PROTOCOLS.names()`` etc.); :func:`simulate` routes it
through the fastest exact engine.  Protocols and engines remain usable
directly; Theorem 1.3's phased protocol on ``K_n`` runs on the engine
``simulate()`` routes it to:

>>> from repro import AsyncPluralityProtocol, CompleteGraph, SequentialEngine, multiplicative_bias
>>> engine = SequentialEngine(AsyncPluralityProtocol(), CompleteGraph(2000))
>>> result = engine.run(multiplicative_bias(n=2000, k=8, ratio=1.5), seed=7)
>>> result.converged and result.winner == 0
True

Layout
------
``repro.api``
    The declarative front door: ``SimulationSpec`` → ``simulate()``.
``repro.core``
    Colour configurations, state arrays, results, RNG policy.
``repro.graphs``
    ``K_n`` with O(1) sampling plus sparse topologies.
``repro.engine``
    Synchronous / counts-exact / sequential / continuous engines.
``repro.protocols``
    Two-Choices, OneExtraBit, the asynchronous phased protocol with its
    Sync Gadget, and the Voter / 3-Majority / USD baselines.
``repro.analysis``
    Pólya urn, trace summaries, statistics, theorem predictions.
``repro.workloads``
    Initial-configuration generators and sweep grids.
``repro.bench``
    The experiment harness regenerating every claim-derived table.
"""

from .api import (
    CampaignResult,
    CampaignSpec,
    ResultCache,
    SimulationResult,
    SimulationSpec,
    SweepSpec,
    resolve,
    run_campaign,
    simulate,
)
from .core import (
    AsyncNodeState,
    ColorConfiguration,
    ConfigurationError,
    NodeArrayState,
    ReproError,
    RunResult,
    Trace,
    assignment_from_counts,
    counts_from_assignment,
)
from .engine import (
    ContinuousEngine,
    CountsEngine,
    ExponentialDelay,
    NoDelay,
    SequentialEngine,
    SynchronousEngine,
    consensus_reached,
    fastest_engine,
    near_consensus,
    run_replicated,
)
from .graphs import CompleteGraph, erdos_renyi, ring, torus
from .protocols import (
    AsyncPluralityProtocol,
    OneExtraBitCounts,
    OneExtraBitSynchronous,
    PhaseSchedule,
    ThreeMajorityCounts,
    TwoChoicesCounts,
    TwoChoicesSequential,
    UndecidedStateCounts,
    VoterCounts,
)
from .workloads import (
    additive_gap,
    balanced,
    convergence_time_sweep,
    multiplicative_bias,
    near_consensus_start,
    power_law,
    theorem_1_1_gap,
    two_colors,
)

__version__ = "1.0.0"

__all__ = [
    "SimulationSpec",
    "SimulationResult",
    "simulate",
    "resolve",
    "SweepSpec",
    "CampaignSpec",
    "CampaignResult",
    "run_campaign",
    "ResultCache",
    "AsyncNodeState",
    "ColorConfiguration",
    "ConfigurationError",
    "NodeArrayState",
    "ReproError",
    "RunResult",
    "Trace",
    "assignment_from_counts",
    "counts_from_assignment",
    "ContinuousEngine",
    "CountsEngine",
    "ExponentialDelay",
    "NoDelay",
    "SequentialEngine",
    "SynchronousEngine",
    "consensus_reached",
    "fastest_engine",
    "near_consensus",
    "run_replicated",
    "CompleteGraph",
    "erdos_renyi",
    "ring",
    "torus",
    "AsyncPluralityProtocol",
    "OneExtraBitCounts",
    "OneExtraBitSynchronous",
    "PhaseSchedule",
    "ThreeMajorityCounts",
    "TwoChoicesCounts",
    "TwoChoicesSequential",
    "UndecidedStateCounts",
    "VoterCounts",
    "near_consensus_start",
    "additive_gap",
    "balanced",
    "multiplicative_bias",
    "power_law",
    "theorem_1_1_gap",
    "two_colors",
    "convergence_time_sweep",
    "__version__",
]
