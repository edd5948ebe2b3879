"""The Sync Gadget at work: weak perpetual synchronisation, visualised.

The paper's key technical novelty is a gadget that keeps almost all
nodes' *working times* within ``Delta = Theta(log n / log log n)`` of
one another even though their Poisson clocks drift apart.  This script
runs the phased protocol twice — gadget on and off — and plots the
working-time spread over time as ASCII sparkbars, making the contrast
visible in a terminal: without the gadget the spread grows like
``sqrt(t)``; with it, every phase's jump step pulls the population back
together.

Run::

    python examples/async_synchronizer.py [n]
"""

import sys

from repro import AsyncPluralityProtocol, CompleteGraph, SequentialEngine, multiplicative_bias
from repro.analysis import spread_trace

BLOCKS = " ▁▂▃▄▅▆▇█"


def sparkline(values, peak) -> str:
    """Map values onto eight-level block characters."""
    out = []
    for value in values:
        level = 0 if peak == 0 else min(8, int(round(8 * value / peak)))
        out.append(BLOCKS[level])
    return "".join(out)


def main() -> int:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 4_000
    config = multiplicative_bias(n, 8, 1.5)
    traces = {}
    for sync in (True, False):
        protocol = AsyncPluralityProtocol(sync_enabled=sync)
        schedule = protocol.params.compile(n)
        # Run until every node has terminated (a stop that never fires),
        # recording the trace's spread fields every 10 time units.
        result = SequentialEngine(protocol, CompleteGraph(n)).run(
            config, seed=4, stop=lambda counts: False, record_trace=True, trace_every_parallel=10.0
        )
        traces[sync] = spread_trace(result, schedule.part_one_length)

    peak = max(e["spread_core"] for entries in traces.values() for e in entries)
    print(f"core (99%) working-time spread during part one, n={n}, "
          f"Delta={schedule.delta}, "
          f"one bar per 10 units of parallel time (peak={peak}):")
    print()
    for sync in (True, False):
        label = "gadget ON " if sync else "gadget OFF"
        values = [e["spread_core"] for e in traces[sync]]
        print(f"  {label}  {sparkline(values, peak)}  (final: {values[-1]})")
    print()
    grew = traces[False][-1]["spread_core"] / max(traces[False][0]["spread_core"], 1)
    capped = traces[True][-1]["spread_core"] / max(traces[True][0]["spread_core"], 1)
    print(f"spread growth over part one: x{grew:.1f} without the gadget, "
          f"x{capped:.1f} with it")
    return 0 if capped < grew else 1


if __name__ == "__main__":
    raise SystemExit(main())
