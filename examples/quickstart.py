"""Quickstart: run the paper's asynchronous plurality-consensus protocol.

A population of ``n`` nodes holds ``k`` opinions with a ``(1 + eps)``
multiplicative bias towards opinion 0 (Theorem 1.3's precondition).
Each node has a rate-1 Poisson clock; we simulate the sequential model,
run the full phased protocol (Two-Choices + Bit-Propagation + Sync
Gadget phases, then the Two-Choices endgame) and report what happened.

Run::

    python examples/quickstart.py [n] [k]
"""

import sys

from repro import AsyncPluralityProtocol, CompleteGraph, SequentialEngine, multiplicative_bias
from repro.analysis import synchrony_summary, theory


def main() -> int:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 4_000
    k = int(sys.argv[2]) if len(sys.argv) > 2 else 8
    ratio = 1.5  # c1 = 1.5 * c2 -> eps = 0.5

    config = multiplicative_bias(n, k, ratio)
    print(f"population: n={n}, k={k}, counts={list(config.counts)}")
    print(f"bias: c1/c2 = {config.multiplicative_bias:.2f} "
          f"(Theorem 1.3 needs c1 >= (1+eps) ci)")

    protocol = AsyncPluralityProtocol()
    schedule = protocol.params.compile(n)
    print(f"schedule: {schedule.describe()}")

    # The engine simulate() routes this protocol to on K_n; the trace
    # carries the working-time spread once per unit of parallel time.
    engine = SequentialEngine(protocol, CompleteGraph(n))
    result = engine.run(config, seed=2017, record_trace=True)

    print()
    if result.converged:
        print(f"consensus on colour {result.winner} "
              f"({'the initial plurality' if result.plurality_preserved else 'an upset!'})")
    else:
        print("no consensus within the budget (unexpected at this bias)")
    print(f"parallel time: {result.parallel_time:.1f} "
          f"(Theta(log n) predicts ~C * {theory.async_parallel_time(n):.1f})")
    synchrony = synchrony_summary(result, until_parallel_time=schedule.part_one_length)
    print(f"working-time spread during part one: max {synchrony['max_spread']}, "
          f"core(99%) {synchrony['max_core_spread']} "
          f"(Delta = {schedule.delta})")
    return 0 if result.converged else 1


if __name__ == "__main__":
    raise SystemExit(main())
