"""Fixed reference work, timed between the program's ops to track machine speed.

The shared 2-vCPU machine this benchmark was written on changes speed
by 20-40% over minutes: the means of a fixed loop over windows of 5 to
60 s all had an IQR of about 26% of their median across 7 minutes, so
no run length averages the drift out.  Ops and reference units that
run side by side see the same speed, so their time ratio holds still
(measured: raw op-time IQR 11-17% across 20-s windows, op-time /
reference-time IQR 3-7%).

The timed loops run one reference unit per :data:`EVERY` seconds of op
time.  :meth:`Reference.speed` is the machine's speed relative to the
nominal one (:data:`UNIT_S` per unit), and the gated timing metrics are
reported at the nominal speed: rates divided by it, times multiplied
by it.  The raw values go into the run report beside them.

The work is the benchmark's own (pure Python plus numpy, no ``repro``
code), so a change to the program cannot move it.  It mixes interpreter
work, small numpy calls and whole-array numpy passes, as the engines do.
"""

from __future__ import annotations

import time

import numpy as np

#: Nominal seconds of one unit: about its time on the machine the
#: benchmark was written on (22-34 ms as it drifted), so reported values
#: read about as raw values there.
UNIT_S = 0.025
#: Seconds of op time per reference unit (about 1/8 extra time).
EVERY = 0.2


def _unit(big: np.ndarray) -> None:
    total = 0
    for i in range(120_000):
        total += (i * i) % 7
    table = {}
    for i in range(30_000):
        table[i & 255] = table.get(i & 255, 0) + i
    rng = np.random.default_rng(12345)
    for _ in range(1_500):
        rng.binomial(1_000, 0.3, size=8).sum()
    np.sort(big).cumsum()


class Reference:
    """Times reference units; one per :data:`EVERY` seconds paced."""

    def __init__(self):
        self.seconds = 0.0
        self.units = 0
        self._due = 0.0
        self._big = np.random.default_rng(0).random(300_000)
        _unit(self._big)  # first-call costs, not a sample

    def run(self) -> None:
        began = time.perf_counter()
        _unit(self._big)
        self.seconds += time.perf_counter() - began
        self.units += 1

    def pace(self, op_seconds: float) -> None:
        """Run the units due after *op_seconds* more of op time."""
        self._due += op_seconds
        while self._due >= EVERY:
            self._due -= EVERY
            self.run()

    def speed(self) -> float:
        """Machine speed over the run, relative to nominal (>1 is faster)."""
        if not self.units:
            self.run()
        return UNIT_S * self.units / self.seconds
