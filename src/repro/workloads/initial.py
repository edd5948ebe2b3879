"""Initial opinion configurations for every experiment.

The theorems are parameterised by the initial bias structure; these
generators produce exactly the configurations the statements quantify
over:

* :func:`additive_gap` — balanced runners-up with an explicit additive
  gap ``c1 - c2`` (Theorem 1.1, including its worst case
  ``c2 = ... = ck``).
* :func:`multiplicative_bias` — ``c1 = ratio * c2`` with balanced
  runners-up (Theorem 1.3's ``c1 >= (1 + eps) ci``).
* :func:`balanced` — no bias at all (lower-bound studies).
* :func:`power_law` / :func:`dirichlet_random` — skewed landscapes for
  the example applications and robustness checks.
* :func:`near_consensus_start` — the endgame's ``c1 = (1 - eps) n``
  start (experiment T9).

All generators return counts sorted in descending order (colour 0 is
the plurality) that sum exactly to ``n``.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..api.registry import ParamSpec, register_initial
from ..core.colors import ColorConfiguration, zipf_counts
from ..core.exceptions import ConfigurationError
from ..core.rng import SeedLike, as_generator

__all__ = [
    "balanced",
    "additive_gap",
    "multiplicative_bias",
    "theorem_1_1_gap",
    "power_law",
    "dirichlet_random",
    "two_colors",
    "benchmark_split",
    "near_consensus_start",
]


def _validate(n: int, k: int) -> None:
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    if n < k:
        raise ConfigurationError(f"need n >= k so every colour has a supporter (n={n}, k={k})")


def _exact_sum(counts: np.ndarray, n: int) -> ColorConfiguration:
    """Fix rounding drift, keep order descending, and validate."""
    counts = np.asarray(counts, dtype=np.int64)
    drift = n - int(counts.sum())
    counts[0] += drift
    counts = np.sort(counts)[::-1]
    if counts[-1] < 1:
        raise ConfigurationError(
            f"configuration leaves a colour empty: {counts.tolist()} (reduce bias or k)"
        )
    return ColorConfiguration(counts.tolist())


def balanced(n: int, k: int) -> ColorConfiguration:
    """As equal as possible: ``c1 - ck <= 1`` (zero-bias baseline)."""
    _validate(n, k)
    share, remainder = divmod(n, k)
    counts = np.full(k, share, dtype=np.int64)
    counts[:remainder] += 1
    return ColorConfiguration(counts.tolist())


def additive_gap(n: int, k: int, gap: int) -> ColorConfiguration:
    """``c1 = c2 + gap`` with ``c2 = ... = ck`` (Theorem 1.1's regime).

    The balanced runners-up make this the hardest instance for a given
    gap — exactly the configuration the lower bound is proved on.
    """
    _validate(n, k)
    if gap < 0:
        raise ConfigurationError(f"gap must be non-negative, got {gap}")
    if k == 1:
        return ColorConfiguration([n])
    rest = (n - gap) // k
    if rest < 1:
        raise ConfigurationError(f"gap={gap} too large for n={n}, k={k}")
    counts = np.full(k, rest, dtype=np.int64)
    counts[0] = n - rest * (k - 1)
    if counts[0] - rest < gap:
        raise ConfigurationError(f"cannot realise gap={gap} with n={n}, k={k}")
    return _exact_sum(counts, n)


def theorem_1_1_gap(n: int, k: int, z: float = 1.0) -> ColorConfiguration:
    """Theorem 1.1's threshold instance: gap exactly ``z sqrt(n log n)``."""
    gap = int(math.ceil(z * math.sqrt(n * max(math.log(n), 1.0))))
    return additive_gap(n, k, gap)


def multiplicative_bias(n: int, k: int, ratio: float) -> ColorConfiguration:
    """``c1 ~ ratio * c2`` with ``c2 = ... = ck`` (Theorem 1.3's regime)."""
    _validate(n, k)
    if ratio < 1.0:
        raise ConfigurationError(f"ratio must be >= 1, got {ratio}")
    if k == 1:
        return ColorConfiguration([n])
    # Solve ratio * c + (k - 1) * c = n for the runner-up size c.
    c = int(n / (ratio + (k - 1)))
    if c < 1:
        raise ConfigurationError(f"ratio={ratio} too large for n={n}, k={k}")
    counts = np.full(k, c, dtype=np.int64)
    counts[0] = n - c * (k - 1)
    return _exact_sum(counts, n)


def power_law(n: int, k: int, alpha: float = 1.0) -> ColorConfiguration:
    """Zipf-like support: ``c_j`` proportional to ``(j + 1)^(-alpha)``."""
    _validate(n, k)
    if alpha < 0:
        raise ConfigurationError(f"alpha must be non-negative, got {alpha}")
    weights = (np.arange(1, k + 1, dtype=float)) ** (-alpha)
    raw = weights / weights.sum() * (n - k)
    counts = np.floor(raw).astype(np.int64) + 1  # everyone keeps >= 1
    return _exact_sum(counts, n)


def dirichlet_random(n: int, k: int, concentration: float = 1.0, seed: SeedLike = None) -> ColorConfiguration:
    """Random shares drawn from a symmetric Dirichlet distribution."""
    _validate(n, k)
    if concentration <= 0:
        raise ConfigurationError(f"concentration must be positive, got {concentration}")
    rng = as_generator(seed)
    shares = rng.dirichlet(np.full(k, concentration))
    counts = np.floor(shares * (n - k)).astype(np.int64) + 1
    return _exact_sum(counts, n)


def two_colors(n: int, gap: int) -> ColorConfiguration:
    """The classic ``k = 2`` setting with an explicit gap."""
    if n < 2:
        raise ConfigurationError(f"n must be >= 2, got {n}")
    if gap < 0:
        raise ConfigurationError(f"gap must be non-negative, got {gap}")
    c1 = (n + gap + 1) // 2
    c2 = n - c1
    if c2 < 1:
        raise ConfigurationError(f"gap={gap} too large for n={n}")
    return ColorConfiguration([c1, c2])


def benchmark_split(n: int) -> ColorConfiguration:
    """The 60/40 two-colour split of the engine benchmarks.

    The canonical workload of ``BENCH_engines.json`` and the default of
    :func:`repro.workloads.sweeps.convergence_time_sweep` — one shared
    definition so the benchmark tables, the looped-vs-ensemble
    comparison and the sweep default cannot drift apart.
    """
    majority = int(round(0.6 * n))
    return ColorConfiguration([majority, n - majority])


def near_consensus_start(n: int, k: int, epsilon: float) -> ColorConfiguration:
    """The part-one handover state of Theorem 1.3: ``c1 = (1 - eps) n``.

    ``k`` counts *all* colour classes (including the plurality); the
    ``eps * n`` minority nodes are spread as evenly as possible over
    the ``k - 1`` runner-up colours, each keeping at least one.
    Experiment T9 runs the endgame alone from here.
    """
    if k < 2:
        raise ConfigurationError(f"need k >= 2 colours, got {k}")
    if not 0.0 < epsilon < 0.5:
        raise ConfigurationError(f"epsilon must be in (0, 0.5), got {epsilon}")
    minority = max(k - 1, int(round(epsilon * n)))
    share, remainder = divmod(minority, k - 1)
    return ColorConfiguration([n - minority] + [share + (j < remainder) for j in range(k - 1)])


_K = ParamSpec("k", kind="int", required=True, doc="number of colours")

register_initial(
    "balanced",
    balanced,
    params=[_K],
    description="As equal as possible: c1 - ck <= 1 (zero-bias baseline)",
)
register_initial(
    "additive-gap",
    additive_gap,
    params=[_K, ParamSpec("gap", kind="int", required=True, doc="additive bias c1 - c2")],
    description="c1 = c2 + gap with balanced runners-up (Theorem 1.1's regime)",
)
register_initial(
    "theorem-1-1-gap",
    theorem_1_1_gap,
    params=[_K, ParamSpec("z", kind="float", default=1.0, doc="gap multiplier on sqrt(n log n)")],
    description="Theorem 1.1's threshold instance: gap exactly z * sqrt(n log n)",
)
register_initial(
    "multiplicative-bias",
    multiplicative_bias,
    params=[_K, ParamSpec("ratio", kind="float", required=True, doc="bias ratio c1 / c2")],
    description="c1 ~ ratio * c2 with balanced runners-up (Theorem 1.3's regime)",
)
register_initial(
    "power-law",
    power_law,
    params=[_K, ParamSpec("alpha", kind="float", default=1.0, doc="Zipf exponent")],
    description="Zipf-like support: c_j proportional to (j + 1)^(-alpha)",
)
register_initial(
    "two-colors",
    two_colors,
    params=[ParamSpec("gap", kind="int", required=True, doc="additive bias c1 - c2")],
    description="The classic k = 2 setting with an explicit gap",
)
register_initial(
    "near-consensus",
    near_consensus_start,
    params=[_K, ParamSpec("epsilon", kind="float", required=True, doc="minority share: c1 = (1 - epsilon) n")],
    description="c1 = (1 - epsilon) n, the minority spread over k - 1 runners-up (the endgame's start)",
)
register_initial(
    "benchmark-split",
    benchmark_split,
    description="The 60/40 two-colour split of the engine benchmarks",
)


@register_initial(
    "dirichlet",
    params=[
        _K,
        ParamSpec("concentration", kind="float", default=1.0, doc="symmetric Dirichlet parameter"),
        ParamSpec("init_seed", kind="int", doc="seed for the random shares"),
    ],
    description="Random shares drawn from a symmetric Dirichlet distribution",
)
def _dirichlet_of_n(n: int, k: int, concentration: float = 1.0, init_seed: int = None) -> ColorConfiguration:
    """Registry adapter for :func:`dirichlet_random` (seed renamed so a
    spec's master seed and the configuration's own seed stay distinct)."""
    return dirichlet_random(n, k, concentration=concentration, seed=init_seed)


@register_initial(
    "zipf-sampled",
    params=[
        _K,
        ParamSpec("alpha", kind="float", default=1.0, doc="Zipf exponent"),
        ParamSpec("init_seed", kind="int", doc="seed for the multinomial draw"),
    ],
    description="One multinomial draw over Zipf weights (sampled heavy tail; colours may be empty)",
)
def _zipf_sampled_of_n(n: int, k: int, alpha: float = 1.0, init_seed: int = None) -> ColorConfiguration:
    """Registry adapter for :func:`repro.core.colors.zipf_counts`
    (seed renamed so a spec's master seed and the configuration's own
    seed stay distinct, matching the ``dirichlet`` idiom)."""
    from ..core.rng import as_generator

    return zipf_counts(n, k, alpha=alpha, rng=as_generator(init_seed))
