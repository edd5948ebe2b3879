"""Sensor swarm: asynchronous majority sensing with unreliable clocks.

The motivating scenario for asynchronous plurality consensus: a swarm
of cheap sensors each takes a noisy reading of an environmental state
(one of ``k`` discrete levels).  Most sensors read the true level, but
measurement noise spreads the rest over the other levels.  The sensors
have no shared clock — each wakes up on its own Poisson timer — and
must agree on the *plurality* reading using O(1) memory per node (one
opinion plus the protocol's single extra bit).

The script compares the paper's phased protocol against the naive
asynchronous Voter dynamics on the same readings, demonstrating the two
properties the paper proves: the plurality wins (Voter is a lottery)
and convergence is fast.

Run::

    python examples/sensor_swarm.py [n_sensors] [k_levels]
"""

import sys

import numpy as np

from repro import (
    AsyncPluralityProtocol,
    CompleteGraph,
    SequentialEngine,
    counts_from_assignment,
)
from repro.core.rng import as_generator
from repro.protocols import VoterSequential


def noisy_readings(n: int, k: int, true_level: int, accuracy: float, rng) -> np.ndarray:
    """Each sensor reads the true level with probability *accuracy*,
    otherwise a uniform wrong level."""
    readings = np.full(n, true_level, dtype=np.int64)
    noisy = rng.random(n) >= accuracy
    wrong = rng.integers(0, k - 1, size=int(noisy.sum()))
    wrong = np.where(wrong >= true_level, wrong + 1, wrong)
    readings[noisy] = wrong
    return readings


def main() -> int:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 3_000
    k = int(sys.argv[2]) if len(sys.argv) > 2 else 6
    true_level = 2
    accuracy = 0.3  # well above the uniform 1/k but far from certain
    rng = as_generator(99)

    readings = noisy_readings(n, k, true_level, accuracy, rng)
    config = counts_from_assignment(readings, k=k)
    print(f"{n} sensors, {k} levels, true level = {true_level}")
    print(f"initial readings: {list(config.counts)}")
    print(f"plurality reading: level {config.plurality} "
          f"({'correct' if config.plurality == true_level else 'WRONG'}), "
          f"bias c1/c2 = {config.multiplicative_bias:.2f}")
    print()

    # --- the paper's protocol ------------------------------------------------
    phased = SequentialEngine(AsyncPluralityProtocol(), CompleteGraph(n))
    result = phased.run(readings.copy(), seed=7)
    verdict = "correct" if result.winner == true_level else f"level {result.winner}"
    print(f"phased protocol : consensus on {verdict} "
          f"in parallel time {result.parallel_time:.0f}")

    # --- naive voter on the same readings ------------------------------------
    voter = SequentialEngine(VoterSequential(), CompleteGraph(n))
    wins = 0
    trials = 5
    for seed in range(trials):
        voter_result = voter.run(readings.copy(), seed=seed, max_ticks=400 * n)
        if voter_result.converged and voter_result.winner == true_level:
            wins += 1
    print(f"voter dynamics  : correct in {wins}/{trials} runs "
          f"(a ~{config.c1 / n:.0%} lottery, and Theta(n) time when it does finish)")
    return 0 if result.winner == true_level else 1


if __name__ == "__main__":
    raise SystemExit(main())
