"""The Poisson-clock time budget, on every continuous route.

``max_time`` is a hard budget: no tick at or after it is applied, a run
that hits it reports ``parallel_time == max_time``, and no run reports
more.  The agent engines stop their event loop at the budget; the
counts engines cut their last batch with a binomial thinning of its
ticks (:mod:`repro.engine.counts_async`).  The routes are reached
through :func:`repro.api.simulate`, and each case asserts the engine it
landed on, so the table keeps covering all three, on and off ``K_n``.
"""

import numpy as np
import pytest

from repro.api import SimulationSpec, simulate
from repro.core.colors import ColorConfiguration
from repro.engine import CountsContinuousEngine
from repro.protocols import TwoChoicesSequentialCounts

#: (case id, routed engine, spec fields).
ROUTES = [
    ("CountsContinuousEngine", "CountsContinuousEngine", dict(n=200_000)),
    ("CountsContinuousEngine-reps4", "CountsContinuousEngine", dict(n=50_000, reps=4)),
    ("ContinuousEngine", "ContinuousEngine", dict(n=2_000, reps=3)),
    (
        "ContinuousEngine-torus",
        "ContinuousEngine",
        dict(n=2_500, topology="torus", topology_params={"rows": 50}, reps=3),
    ),
]
ROUTE_PARAMS = [pytest.param(engine, fields, id=case) for case, engine, fields in ROUTES]


def _simulate(fields, max_time):
    spec = SimulationSpec(protocol="two-choices", model="continuous", max_time=max_time, seed=1, **fields)
    return simulate(spec)


@pytest.mark.parametrize("engine,fields", ROUTE_PARAMS)
def test_budget_hit_stops_at_exactly_max_time(engine, fields):
    result = _simulate(fields, 0.5)
    assert result.engine == engine
    for run in result.runs:
        assert not run.converged
        assert run.parallel_time == 0.5


@pytest.mark.parametrize("engine,fields", ROUTE_PARAMS)
def test_no_run_reports_time_past_the_budget(engine, fields):
    max_time = 14.0
    result = _simulate(fields, max_time)
    assert result.engine == engine
    for run in result.runs:
        assert run.parallel_time <= max_time
        if not run.converged:
            assert run.parallel_time == max_time


def test_counts_cut_keeps_the_poisson_tick_count():
    """Ticks applied by time T are Poisson(n T): the mean over many
    replications sits within 4 standard errors of ``n T`` (an overrun
    of half a batch per run, ~39 ticks here, would sit outside)."""
    n, max_time, reps = 20_000, 0.5, 200
    runs = CountsContinuousEngine(TwoChoicesSequentialCounts()).run_ensemble(
        ColorConfiguration([12_000, 8_000]),
        reps,
        max_time=max_time,
        stop=lambda counts: False,
        seed=2,
    )
    ticks = np.array([run.rounds for run in runs], dtype=float)
    assert all(run.parallel_time == max_time for run in runs)
    standard_error = np.sqrt(n * max_time / reps)
    assert abs(ticks.mean() - n * max_time) < 4 * standard_error
