"""Topology tour: how Two-Choices degrades away from the clique.

Every theorem in the paper is for the complete graph; this script takes
the same Two-Choices dynamics on a tour through sparse topologies —
hypercube, random regular, small-world, preferential attachment, torus
and ring — and measures rounds-to-consensus from the same biased start.
Expander-like graphs (hypercube, random regular, small world) stay
within a small factor of the clique; the ring's poor expansion makes
consensus dramatically slower.

Run::

    python examples/topology_tour.py [n]
"""

import sys

import numpy as np

from repro.bench import format_table
from repro.core.colors import ColorConfiguration
from repro.engine import SynchronousEngine, fastest_engine
from repro.graphs import (
    CompleteGraph,
    barabasi_albert,
    hypercube,
    random_regular,
    ring,
    torus,
    watts_strogatz,
)
from repro.protocols import TwoChoicesSequential, TwoChoicesSynchronous
from repro.viz import hbar_chart


def main() -> int:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 1_024
    dimension = int(np.log2(n))
    n = 1 << dimension  # hypercube wants a power of two
    side = int(np.sqrt(n))

    topologies = [
        ("complete", CompleteGraph(n)),
        ("hypercube", hypercube(dimension)),
        ("random 6-regular", random_regular(n, 6, seed=1)),
        ("small world", watts_strogatz(n, 3, 0.2, seed=2)),
        ("pref. attachment", barabasi_albert(n, 3, seed=3)),
        ("torus", torus(side, side)),
        ("ring", ring(n)),
    ]
    config = ColorConfiguration([int(0.7 * n), n - int(0.7 * n)])
    print(f"Two-Choices from a 70/30 split, n={n} (5 trials each)")
    print()

    rows = []
    labels, values = [], []
    for name, topology in topologies:
        actual_n = topology.n
        scaled = ColorConfiguration([int(0.7 * actual_n), actual_n - int(0.7 * actual_n)])
        engine = SynchronousEngine(TwoChoicesSynchronous(), topology)
        rounds, wins = [], 0
        for seed in range(5):
            result = engine.run(scaled, seed=seed, max_rounds=20_000)
            if result.converged:
                rounds.append(result.rounds)
                wins += int(result.winner == 0)
        mean_rounds = float(np.mean(rounds)) if rounds else float("nan")
        rows.append([name, actual_n, mean_rounds, f"{wins}/5", f"{len(rounds)}/5 converged"])
        if rounds:
            labels.append(name)
            values.append(mean_rounds)
    print(format_table(["topology", "n", "mean rounds", "plurality wins", "status"], rows))
    print()
    print(hbar_chart(labels, values))
    print()
    print("expanders track the clique; the ring pays its Theta(n) mixing time.")

    # --- the asynchronous model on the torus ---------------------------------
    # fastest_engine routes off-K_n tick runs to SequentialEngine, whose
    # blocks run through the hazard-batched core (DESIGN.md section 2.6).
    torus_grid = torus(side, side)
    actual_n = torus_grid.n
    engine = fastest_engine(TwoChoicesSequential(), torus_grid, model="sequential")
    scaled = ColorConfiguration([int(0.7 * actual_n), actual_n - int(0.7 * actual_n)])
    result = engine.run(scaled, seed=1, max_ticks=5_000 * actual_n)
    status = "consensus" if result.converged else "no consensus (budget hit)"
    print()
    print(
        f"asynchronous Two-Choices on the torus via {type(engine).__name__}: "
        f"{status} after parallel time {result.parallel_time:.0f} "
        f"({result.rounds} ticks)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
