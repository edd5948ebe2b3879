"""Watts-Strogatz against the per-edge loop it replays, and the CSR row sort.

:func:`repro.graphs.watts_strogatz` reads its generator's raw 64-bit
outputs in blocks and replays the draws of the per-edge loop below:
one ``rng.random()`` per lattice edge and, for an edge being rewired,
up to 20 ``rng.integers(0, n)``.  :func:`_reference_watts_strogatz` is
that loop, kept as the oracle.  It builds its CSR arrays with a stable
argsort, so it also checks ``_from_arcs``.  Each case compares the CSR
bytes and the generator afterwards: its state and the caller's next
draws, which also read the generator's buffered 32-bit half.
"""

import random
from itertools import chain
from typing import Set

import numpy as np
import pytest

from repro.core.exceptions import TopologyError
from repro.graphs.families import watts_strogatz
from repro.graphs.sparse import _from_arcs

BIT_GENERATORS = (np.random.PCG64, np.random.PCG64DXSM, np.random.SFC64, np.random.Philox)


def _reference_watts_strogatz(n, neighbors, rewire_probability, rng):
    """The per-edge loop: CSR ``(offsets, flat)`` of the graph."""
    rewired: Set[tuple] = set()
    for u in range(n):
        for v in chain(range(u + 1, min(u + neighbors + 1, n)), range(u + n - neighbors, n)):
            edge = (u, v)
            if rng.random() < rewire_probability:
                for _ in range(20):
                    w = int(rng.integers(0, n))
                    distance = abs(u - w)
                    candidate = (min(u, w), max(u, w))
                    if min(distance, n - distance) > neighbors and candidate not in rewired:
                        edge = candidate
                        break
            rewired.add(edge)
    pairs = np.fromiter(chain.from_iterable(rewired), dtype=np.int64, count=2 * len(rewired))
    if not (pairs == n - 1).any():
        pairs = np.append(pairs, [n - 1, 0])
    heads, tails = pairs, pairs.reshape(-1, 2)[:, ::-1].ravel()
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(heads, minlength=n), out=offsets[1:])
    return offsets, tails[np.argsort(heads, kind="stable")]


def _generator(kind, seed, scalar_draws):
    """A generator of *kind* after *scalar_draws* ``integers`` calls: one
    leaves a buffered 32-bit half, two use it up (a stale ``uinteger``)."""
    rng = np.random.Generator(kind(seed))
    for _ in range(scalar_draws):
        rng.integers(0, 1000)
    return rng


def _plain(value):
    """A bit generator state with its arrays as lists, comparable by ``==``."""
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    return value.tolist() if isinstance(value, np.ndarray) else value


def _next_draws(rng):
    return [
        int(rng.integers(0, 7)),
        float(rng.random()),
        int(rng.integers(0, 1 << 20)),
        rng.integers(0, 50, size=5).tolist(),
        rng.bit_generator.random_raw(3).tolist(),
    ]


def _random_cases(count, seed):
    """(n, neighbors, p, seed) cases: n from 5 to ~3000, p in {0, 1} or uniform."""
    meta = random.Random(seed)
    cases = []
    for _ in range(count):
        n = int(round(5 * 600 ** meta.random()))
        neighbors = meta.randint(1, min(8, (n - 1) // 2))
        p = meta.choice([0.0, 1.0, meta.random(), meta.random() / 10])
        cases.append((n, neighbors, p, meta.randrange(2**31)))
    return cases


CASES = _random_cases(60, seed=2024) + [
    (11, 5, 0.5, 14),  # crowded: no rewiring target is ever far enough
    (11, 5, 1.0, 3),
    (7, 3, 1.0, 4),
    (20_000, 1, 0.9, 13),  # node n - 1 ends isolated and is patched
    (5, 2, 0.0, 1),
    (2_000, 3, 1.0, 5),
]


@pytest.mark.parametrize("index, case", list(enumerate(CASES)), ids=[str(case) for case in CASES])
def test_matches_the_per_edge_loop(index, case):
    n, neighbors, p, seed = case
    kind = BIT_GENERATORS[index % len(BIT_GENERATORS)]
    scalar_draws = index % 3
    expected_rng = _generator(kind, seed, scalar_draws)
    offsets, flat = _reference_watts_strogatz(n, neighbors, p, expected_rng)
    rng = _generator(kind, seed, scalar_draws)
    graph = watts_strogatz(n, neighbors, p, seed=rng)
    assert graph._offsets.tobytes() == offsets.tobytes()
    assert graph._flat.tobytes() == flat.tobytes()
    assert _plain(rng.bit_generator.state) == _plain(expected_rng.bit_generator.state)
    assert _next_draws(rng) == _next_draws(expected_rng)


def test_cases_cover_the_corners():
    ps = [case[2] for case in CASES]
    assert ps.count(0.0) >= 5 and ps.count(1.0) >= 5
    assert len(_random_cases(60, seed=2024)) >= 50


def test_integer_seed_matches_the_default_generator():
    offsets, flat = _reference_watts_strogatz(3_000, 4, 0.1, np.random.default_rng(6))
    graph = watts_strogatz(3_000, 4, 0.1, seed=6)
    assert graph._offsets.tobytes() == offsets.tobytes()
    assert graph._flat.tobytes() == flat.tobytes()


class _RedrawCounter:
    """The oracle's generator, counting ``integers`` calls whose Lemire
    draw read two 32-bit words (the one-word buffer keeps its parity)."""

    def __init__(self, rng):
        self.rng = rng
        self.redraws = 0

    def random(self):
        return self.rng.random()

    def integers(self, low, high):
        before = self.rng.bit_generator.state["has_uint32"]
        value = self.rng.integers(low, high)
        self.redraws += self.rng.bit_generator.state["has_uint32"] == before
        return value


def test_lemire_redraws_are_replayed():
    # 2**32 % n is ~n here, so about one word in 70 000 is redrawn.
    n, seed = 62_525, 0
    counter = _RedrawCounter(np.random.default_rng(seed))
    offsets, flat = _reference_watts_strogatz(n, 2, 1.0, counter)
    assert counter.redraws >= 1
    rng = np.random.default_rng(seed)
    graph = watts_strogatz(n, 2, 1.0, seed=rng)
    assert graph._flat.tobytes() == flat.tobytes()
    assert graph._offsets.tobytes() == offsets.tobytes()
    assert _next_draws(rng) == _next_draws(counter.rng)


def test_unsupported_bit_generator_is_refused():
    rng = np.random.Generator(np.random.MT19937(1))
    with pytest.raises(TopologyError, match="PCG64, PCG64DXSM, SFC64 or Philox"):
        watts_strogatz(100, 2, 0.1, seed=rng)
    # Lemire's 32-bit method covers n < 2**32 only; refused before any allocation.
    with pytest.raises(TopologyError, match="n < 2"):
        watts_strogatz(2**32, 1, 0.1, seed=1)


@pytest.mark.parametrize("n, extra", [(10, 30), (1_000, 8_000), (70_000, 230_000), (200_000, 50_000)])
def test_from_arcs_keeps_the_stable_order(n, extra):
    rng = np.random.default_rng(n)
    # Every node heads at least one arc; most head several.
    heads = rng.permutation(np.concatenate((np.arange(n), rng.integers(0, n, size=extra))))
    tails = rng.integers(0, n, size=heads.size)
    graph = _from_arcs(n, heads, tails)
    assert graph._flat.tobytes() == tails[np.argsort(heads, kind="stable")].tobytes()
    assert graph._offsets.tobytes() == np.concatenate(([0], np.cumsum(np.bincount(heads, minlength=n)))).tobytes()
