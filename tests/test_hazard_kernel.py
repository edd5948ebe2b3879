"""Compiled tick kernels: selection machinery and bit-exactness.

Evidence layers for the kernel contract (see
``repro/core/hazard_kernel.py``):

1. *Selection*: ``REPRO_KERNEL`` resolution — defaults, explicit
   choices, ``auto``, invalid values, and the degrade-to-numpy warning
   when a requested compiled kernel cannot be built (a missing
   toolchain must never break a run).
2. *Capability probe*: a kernel only engages for protocols whose
   declared ``tick_kernel`` rule matches their footprint.
3. *Bit-exactness*: on the same presampled draws a compiled kernel
   replays both Python realisations of ``apply_hazard_free`` — the
   scalar list rule and the numpy windows, each pinned against the
   per-tick loop — bit-for-bit, on the adversarial topologies (star,
   3-ring, torus) for all four footprint protocols.
4. *Engine identity*: a full ``SequentialEngine`` run, and every
   free-running ``simulate`` payload on sparse topologies, is
   bit-identical whichever kernel applies the blocks.

Compiled-kernel layers skip loudly when no C toolchain is present; the
selection/fallback layers run everywhere by stubbing the builders.
"""

import json

import numpy as np
import pytest

from repro.core import hazard_kernel
from repro.core.exceptions import ConfigurationError
from repro.core.hazard import apply_hazard_free, apply_scalar, apply_windows
from repro.core.hazard_kernel import (
    KERNEL_ENV,
    KERNEL_NAMES,
    RULE_IDS,
    KernelUnavailable,
    TickKernel,
    active_kernel,
    active_kernel_name,
    available_kernels,
    get_kernel,
    kernel_for,
    reset_active_kernel,
)
from repro.api import SimulationSpec, simulate
from repro.engine.sequential import SequentialEngine
from repro.graphs.families import star
from repro.graphs.sparse import ring, torus
from repro.protocols.base import TickFootprint
from repro.protocols.three_majority import ThreeMajoritySequential
from repro.protocols.two_choices import TwoChoicesSequential
from repro.protocols.undecided_state import UndecidedStateSequential
from repro.protocols.voter import VoterSequential
from repro.workloads.initial import benchmark_split

FOOTPRINT_PROTOCOLS = [
    VoterSequential,
    TwoChoicesSequential,
    ThreeMajoritySequential,
    UndecidedStateSequential,
]

ADVERSARIAL_TOPOLOGIES = [
    ("star", lambda: star(12)),
    ("ring3", lambda: ring(3)),
    ("torus5x6", lambda: torus(5, 6)),
]

#: compiled kernels present in this environment (empty is fine — the
#: bit-exactness layers then skip loudly instead of silently passing).
COMPILED_AVAILABLE = [
    name for name, probe in available_kernels().items() if probe.available and name != "numpy"
]

needs_compiled = pytest.mark.skipif(
    not COMPILED_AVAILABLE,
    reason="no compiled kernel available (no C toolchain) — "
    "numpy fallback covered by the selection tests",
)


@pytest.fixture(autouse=True)
def _clean_kernel_env(monkeypatch):
    """Every test starts unresolved with no ``REPRO_KERNEL`` set."""
    monkeypatch.delenv(KERNEL_ENV, raising=False)
    reset_active_kernel()
    yield
    reset_active_kernel()


def _fail_builders(monkeypatch, detail="stubbed away"):
    """Make every compiled kernel unavailable (fresh build caches)."""

    def refuse():
        raise KernelUnavailable(detail)

    monkeypatch.setattr(hazard_kernel, "_kernels", {})
    monkeypatch.setattr(hazard_kernel, "_failures", {})
    monkeypatch.setattr(
        hazard_kernel, "_BUILDERS", {name: refuse for name in hazard_kernel._BUILDERS}
    )


class TestSelection:
    def test_default_is_numpy(self):
        assert active_kernel() is None
        assert active_kernel_name() == "numpy"

    @pytest.mark.parametrize("value", ["numpy", "", "  NumPy  "])
    def test_explicit_numpy_spellings(self, monkeypatch, value):
        monkeypatch.setenv(KERNEL_ENV, value)
        reset_active_kernel()
        assert active_kernel() is None

    def test_invalid_name_raises(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "fortran")
        reset_active_kernel()
        with pytest.raises(ConfigurationError, match="REPRO_KERNEL"):
            active_kernel()

    def test_get_kernel_unknown_name_raises(self):
        with pytest.raises(ConfigurationError, match="unknown kernel"):
            get_kernel("fortran")

    def test_explicit_unavailable_get_kernel_raises(self, monkeypatch):
        _fail_builders(monkeypatch)
        with pytest.raises(KernelUnavailable):
            get_kernel("c")

    def test_auto_degrades_to_numpy_silently(self, monkeypatch):
        _fail_builders(monkeypatch)
        assert get_kernel("auto") is None
        monkeypatch.setenv(KERNEL_ENV, "auto")
        reset_active_kernel()
        assert active_kernel() is None

    def test_explicit_unavailable_env_warns_and_degrades(self, monkeypatch):
        _fail_builders(monkeypatch, detail="no toolchain here")
        monkeypatch.setenv(KERNEL_ENV, "c")
        reset_active_kernel()
        with pytest.warns(RuntimeWarning, match="no toolchain here"):
            kernel = active_kernel()
        assert kernel is None
        assert active_kernel_name() == "numpy"

    def test_engine_survives_kernel_build_failure(self, monkeypatch):
        # The satellite contract: a broken/missing compiled kernel can
        # never break a run — the engine warns once and runs on numpy.
        _fail_builders(monkeypatch)
        monkeypatch.setenv(KERNEL_ENV, "c")
        reset_active_kernel()
        engine = SequentialEngine(TwoChoicesSequential(), torus(5, 6))
        with pytest.warns(RuntimeWarning):
            result = engine.run(benchmark_split(30), seed=3)
        assert result.final.n == 30

    def test_resolution_is_cached_until_reset(self, monkeypatch):
        assert active_kernel() is None
        monkeypatch.setenv(KERNEL_ENV, "definitely-invalid")
        # still resolved: the env change is invisible without a reset.
        assert active_kernel() is None
        reset_active_kernel()
        with pytest.raises(ConfigurationError):
            active_kernel()

    def test_probe_always_lists_numpy(self):
        probes = available_kernels()
        assert probes["numpy"].available
        assert set(probes) == {"numpy", "c"}
        assert set(KERNEL_NAMES) == {"numpy", "c", "auto"}

    def test_numba_is_an_unknown_kernel(self, monkeypatch):
        with pytest.raises(ConfigurationError, match="unknown kernel"):
            get_kernel("numba")
        monkeypatch.setenv(KERNEL_ENV, "numba")
        reset_active_kernel()
        with pytest.raises(ConfigurationError, match="unknown kernel"):
            active_kernel()


class TestCapabilityProbe:
    @pytest.mark.parametrize("proto_cls", FOOTPRINT_PROTOCOLS)
    def test_footprint_protocols_declare_known_rules(self, proto_cls):
        protocol = proto_cls()
        assert protocol.tick_kernel in RULE_IDS
        assert TickKernel().supports(protocol)

    def test_no_rule_means_no_kernel(self):
        class Undeclared(TwoChoicesSequential):
            tick_kernel = None

        assert not TickKernel().supports(Undeclared())

    def test_rule_footprint_mismatch_refused(self):
        class Mismatched(TwoChoicesSequential):
            tick_kernel = "voter"  # voter samples 1, footprint says 2

        assert not TickKernel().supports(Mismatched())

    def test_kernel_for_returns_none_on_numpy(self):
        assert kernel_for(TwoChoicesSequential()) is None

    @needs_compiled
    def test_kernel_for_respects_protocol_support(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, COMPILED_AVAILABLE[0])
        reset_active_kernel()

        class Undeclared(TwoChoicesSequential):
            tick_kernel = None

        assert kernel_for(TwoChoicesSequential()) is not None
        assert kernel_for(Undeclared()) is None


@needs_compiled
class TestBitExactness:
    """Same presampled draws => compiled and numpy paths match exactly."""

    @pytest.mark.parametrize("kernel_name", COMPILED_AVAILABLE)
    @pytest.mark.parametrize("proto_cls", FOOTPRINT_PROTOCOLS)
    @pytest.mark.parametrize("topo_name,topo_factory", ADVERSARIAL_TOPOLOGIES)
    @pytest.mark.parametrize("realisation", [apply_scalar, apply_windows])
    def test_block_apply_matches_python_realisations(self, realisation, kernel_name, proto_cls, topo_name, topo_factory):
        protocol = proto_cls()
        kernel = get_kernel(kernel_name)
        topology = topo_factory()
        n = topology.n
        rng = np.random.default_rng(42)
        colors = rng.integers(0, 3, size=n)
        state_kernel = protocol.make_state(colors.copy(), 3)
        state_numpy = protocol.make_state(colors.copy(), 3)
        nodes = rng.integers(0, n, size=900)
        targets = topology.sample_neighbors_block(nodes, protocol.tick_footprint.samples, rng)
        apply_hazard_free(protocol, state_kernel, nodes, targets, kernel=kernel)
        realisation(protocol, state_numpy, nodes, targets)
        assert np.array_equal(state_kernel.colors, state_numpy.colors)

    @pytest.mark.parametrize("kernel_name", COMPILED_AVAILABLE)
    def test_fixed_block_engine_runs_are_identical(self, monkeypatch, kernel_name):
        # SequentialEngine's block boundaries depend on nothing a kernel
        # computes, so every kernel replays the same draws.
        topology = torus(16, 16)
        config = benchmark_split(topology.n)
        fingerprints = {}
        for name in ("numpy", kernel_name):
            monkeypatch.setenv(KERNEL_ENV, name)
            reset_active_kernel()
            engine = SequentialEngine(TwoChoicesSequential(), topology)
            result = engine.run(config, seed=11)
            fingerprints[name] = (result.rounds, result.winner, result.final.counts)
        assert fingerprints["numpy"] == fingerprints[kernel_name]

    @pytest.mark.parametrize("kernel_name", COMPILED_AVAILABLE)
    @pytest.mark.parametrize("realisation", [apply_scalar, apply_windows])
    def test_undecided_state_uses_last_color_as_undecided(self, realisation, kernel_name):
        # The USD rule threads state.k - 1 through the ABI; an off-by-
        # one there would silently corrupt runs, so pin a tiny block
        # where the undecided transitions are forced.
        protocol = UndecidedStateSequential()
        kernel = get_kernel(kernel_name)
        colors = np.array([0, 1, 2, 2], dtype=np.int64)  # 2 == undecided for k=3
        state_kernel = protocol.make_state(colors.copy(), 3)
        state_numpy = protocol.make_state(colors.copy(), 3)
        nodes = np.array([0, 2, 3, 1], dtype=np.int64)
        targets = np.array([[1], [0], [2], [3]], dtype=np.int64)
        apply_hazard_free(protocol, state_kernel, nodes, targets, kernel=kernel)
        realisation(protocol, state_numpy, nodes, targets)
        assert np.array_equal(state_kernel.colors, state_numpy.colors)


CROSS_KERNEL_TOPOLOGIES = [
    ("torus", {}),
    ("random-regular", {"degree": 4}),
    ("ring", {}),
]


def _canonical_payload(spec) -> str:
    """Canonical JSON of ``simulate(spec)`` minus the wall clock."""
    payload = simulate(spec).to_dict()
    payload.pop("elapsed_seconds")
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@pytest.mark.skipif("c" not in COMPILED_AVAILABLE, reason="the c kernel cannot build here")
class TestCrossKernelRuns:
    """A seeded spec's payload does not depend on ``REPRO_KERNEL``."""

    @pytest.mark.parametrize(
        "topology,topology_params",
        CROSS_KERNEL_TOPOLOGIES,
        ids=[name for name, _ in CROSS_KERNEL_TOPOLOGIES],
    )
    @pytest.mark.parametrize("model", ["sequential", "continuous"])
    @pytest.mark.parametrize(
        "protocol", ["voter", "two-choices", "three-majority", "undecided-state"]
    )
    def test_free_running_payloads_match(self, monkeypatch, protocol, model, topology, topology_params):
        spec = SimulationSpec(
            protocol=protocol,
            n=400,
            topology=topology,
            topology_params=topology_params,
            model=model,
            seed=17,
        )
        payloads = {}
        for name in ("numpy", "c"):
            monkeypatch.setenv(KERNEL_ENV, name)
            reset_active_kernel()
            payloads[name] = _canonical_payload(spec)
        assert json.loads(payloads["numpy"])["engine"] in ("SequentialEngine", "ContinuousEngine")
        assert payloads["numpy"] == payloads["c"]
