"""Op lists for the four workloads, generated from the workload seed.

Every workload is a list of identical *decks*.  A deck holds one op
per cell of the workload's design (protocol x model x reps, or
topology x model), and each cell has a fixed size stratum, ``k`` and
initial-state family, so every deck does the same kind of work.  The
seed draws what does not change an op's cost class: ``n`` near the
middle of its stratum, simulation/graph/fault seeds and the order of
ops inside a deck.  The timed loop always finishes the deck it is in,
so runs with different seeds, or of different lengths, do the same mix
of work and their throughput differs by machine speed, not input mix.

Serve-mixed is a list of 10-request decks: nine memo hits on a seeded
hot set and one cold miss.  Misses come from a fixed pool whose
specs (and simulation seeds) are the same for every workload seed, so
the miss cost does not depend on the seed.  The miss opens every deck:
the gap between two misses decides how often both connections wait on
the server's engine at once, so it is the same for every seed.  The
seed picks the hot set and which hot spec each hit asks for.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from typing import Any, Dict, List

KN_PROTOCOLS = ("two-choices", "three-majority", "undecided-state")
KN_MODELS = ("sequential", "continuous", "synchronous")
FOOTPRINT_PROTOCOLS = ("two-choices", "three-majority", "undecided-state", "voter")

#: Decks generated per run; far more than any run completes, so the
#: list never runs dry (its hash is stamped into the run report).
DECKS = 80
KN_DECK = 18
PAPER_DECK = 8
SERVE_DECK = 10
SERVE_DECKS = 800


def past_deadline(index: int, deck: int, elapsed: float, seconds: float) -> bool:
    """Whether op *index* should not start: *seconds* have passed and it
    would open a new deck, or twice *seconds* have passed (slow machine)."""
    return (index % deck == 0 and elapsed >= seconds) or elapsed >= 2 * seconds


def canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def ops_hash(ops: List[Dict[str, Any]]) -> str:
    return hashlib.sha256(canonical(ops).encode("utf-8")).hexdigest()[:16]


def _log_stratum(rng: random.Random, lo: float, hi: float, strata: int, index: int) -> int:
    """A size near the log-midpoint of stratum *index* of ``[lo, hi]`` split
    into *strata* (log-uniform over the middle fifth of the stratum).

    The narrow draw keeps the work of a deck nearly seed-independent:
    ticks grow with ``n``, so a draw over the whole stratum would let the
    few largest ops swing a run's ``ticks_per_s`` by the seed alone.
    """
    a, b = math.log10(lo), math.log10(hi)
    width = (b - a) / strata
    return int(round(10 ** (a + width * (index + 0.4 + 0.2 * rng.random()))))


def _initial(turn: int) -> Dict[str, Any]:
    """The initial family and ``k`` (2..8) of cell number *turn*."""
    k = 2 + turn % 7
    if turn % 2 == 0:
        return {"initial": "theorem-1-1-gap", "initial_params": {"k": k, "z": 1.0}}
    return {"initial": "multiplicative-bias", "initial_params": {"k": k, "ratio": 1.5}}


def kn_sweep(seed: int) -> List[Dict[str, Any]]:
    """Theorem 1.1 on K_n: 3 protocols x 3 models x reps {1, 6}, n in 1e2..1e6.

    The 18 cells take the 18 size strata; within a model the reps x
    protocol cells are spaced three strata apart, shifted per model so
    each (protocol, reps) pair sits at three sizes a decade apart.
    """
    rng = random.Random(seed)
    cells = [(r, p) for r in (1, 6) for p in KN_PROTOCOLS]
    ops = []
    for _ in range(DECKS):
        batch = []
        for m, model in enumerate(KN_MODELS):
            for c, (reps, protocol) in enumerate(cells):
                stratum = 3 * ((c + 2 * m) % len(cells)) + m
                spec = {"protocol": protocol, "n": _log_stratum(rng, 1e2, 1e6, KN_DECK, stratum),
                        "model": model, "reps": reps, "seed": rng.randrange(2**31)}
                spec.update(_initial(c + m))
                batch.append(spec)
        rng.shuffle(batch)
        ops.extend(batch)
    return ops


def paper_async(seed: int) -> List[Dict[str, Any]]:
    """Theorem 1.3's phased protocol on K_n, n in 100..400, k in 2..8."""
    rng = random.Random(seed)
    cells = [(m, s) for m in ("sequential", "continuous") for s in range(PAPER_DECK // 2)]
    ops = []
    for _ in range(DECKS):
        batch = []
        for c, (model, stratum) in enumerate(cells):
            spec = {"protocol": "async-plurality", "model": model,
                    "n": _log_stratum(rng, 100, 400, PAPER_DECK // 2, stratum),
                    "seed": rng.randrange(2**31)}
            spec.update(_initial(c))
            batch.append(spec)
        rng.shuffle(batch)
        ops.extend(batch)
    return ops


#: (topology, model, faulted, size stratum) cells of the sparse deck.
#: Strata 8 and 9 lie above the 30k sparse-engine crossover of the
#: sequential model; every topology gets a small and a large size.
SPARSE_CELLS = (
    ("torus", "sequential", False, 8), ("torus", "continuous", False, 3),
    ("random-regular", "sequential", False, 2), ("random-regular", "continuous", False, 7),
    ("watts-strogatz", "sequential", False, 4), ("watts-strogatz", "continuous", False, 5),
    ("ring", "sequential", False, 9), ("ring", "continuous", False, 1),
    ("dynamic-ring", "sequential", False, 6), ("random-regular", "sequential", True, 0),
)

#: Parallel-time budget per sparse op: none of these graphs reaches
#: consensus quickly, so every op runs about this many ticks per node.
SPARSE_BUDGET = 10


def _topology(rng: random.Random, name: str, n: int):
    if name == "torus":
        rows = max(2, int(round(math.sqrt(n))))
        return rows * rows, {"rows": rows}
    if name == "random-regular":
        return n, {"degree": 4, "graph_seed": rng.randrange(2**31)}
    if name == "watts-strogatz":
        return n, {"neighbors": 4, "rewire_probability": 0.1, "graph_seed": rng.randrange(2**31)}
    if name == "dynamic-ring":
        return n, {"churn_rate": 0.05, "churn_seed": rng.randrange(2**31)}
    return n, {}


def sparse_topologies(seed: int) -> List[Dict[str, Any]]:
    """Footprint protocols on sparse graphs, n in 5e3..5e4 (both sides of
    the 30k sparse-engine crossover), under tick budgets."""
    rng = random.Random(seed)
    ops = []
    for _ in range(DECKS):
        batch = []
        for c, (topology, model, faulted, stratum) in enumerate(SPARSE_CELLS):
            n, params = _topology(rng, topology, _log_stratum(rng, 5e3, 5e4, len(SPARSE_CELLS), stratum))
            spec = {"protocol": FOOTPRINT_PROTOCOLS[c % 4], "n": n, "model": model,
                    "topology": topology, "topology_params": params,
                    "initial": "multiplicative-bias",
                    "initial_params": {"k": 2 + c % 7, "ratio": 1.5},
                    "seed": rng.randrange(2**31)}
            if model == "sequential":
                spec["max_steps"] = SPARSE_BUDGET * n
            else:
                spec["max_time"] = float(SPARSE_BUDGET)
            if faulted:
                spec["faults"] = [{"name": "stubborn",
                                   "params": {"fraction": 0.05, "fault_seed": rng.randrange(2**31)}}]
            batch.append(spec)
        rng.shuffle(batch)
        ops.extend(batch)
    return ops


def _small_kn(n: int, index: int, seed: int) -> Dict[str, Any]:
    return {"protocol": KN_PROTOCOLS[index % 3], "n": n, "model": "sequential",
            "initial": "multiplicative-bias",
            "initial_params": {"k": 2 + index % 7, "ratio": 1.5}, "seed": seed}


def miss_spec(index: int) -> Dict[str, Any]:
    """The *index*-th cold miss: the same spec for every workload seed."""
    stratum = (3 * index) % 8
    n = int(round(10 ** (math.log10(120) + (math.log10(2000) - math.log10(120)) * (stratum + 0.5) / 8)))
    return _small_kn(n, index, 100_000 + index)


def serve_mixed(seed: int) -> Dict[str, Any]:
    """Hot set, plus per-request ``("hit", hot index)`` / ``("miss", pool index)``."""
    rng = random.Random(seed)
    hot = [_small_kn(_log_stratum(rng, 120, 240, 8, i), i, rng.randrange(2**31)) for i in range(8)]
    requests = []
    for deck in range(SERVE_DECKS):
        requests.append(("miss", deck))
        requests.extend(("hit", rng.randrange(len(hot))) for _ in range(SERVE_DECK - 1))
    return {"hot": hot, "requests": requests}
