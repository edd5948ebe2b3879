"""Tests for the declarative API: spec round-trip, registry hygiene,
and the `simulate` exactness contract.

The acceptance bar (ISSUE 3): ``SimulationSpec.from_dict(spec.to_dict())``
is identity, and for a fixed seed ``simulate(spec)`` with ``reps=1``
reproduces value-for-value the hand-wired
``fastest_engine(...).run(...)`` path it replaces, across all
registered protocols on ``K_n``.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    DELAYS,
    FAULTS,
    INITIALS,
    PROTOCOLS,
    STOPS,
    TOPOLOGIES,
    SimulationSpec,
    resolve,
    simulate,
)
from repro.core.exceptions import ConfigurationError
from repro.engine.dispatch import COUNTS_TICK_CROSSOVER, fastest_engine
from repro.engine.ensemble import run_replicated
from repro.graphs.complete import CompleteGraph
from repro.workloads.initial import two_colors


def _result_payloads(runs):
    return [r.to_dict() for r in runs]


class TestSpecRoundTrip:
    SPECS = [
        SimulationSpec(protocol="two-choices", n=1000),
        SimulationSpec(
            protocol="one-extra-bit",
            n=5000,
            protocol_params={"bp_rounds": 9},
            model="synchronous",
            initial="theorem-1-1-gap",
            initial_params={"k": 8, "z": 2.0},
            reps=12,
            seed=99,
            max_steps=400,
        ),
        SimulationSpec(
            protocol="two-choices",
            n=600,
            model="continuous",
            delay="exponential",
            delay_params={"rate": 0.5},
            stop="near-consensus",
            stop_params={"epsilon": 0.1},
            max_time=30.0,
            seed=7,
        ),
        SimulationSpec(
            protocol="voter",
            n=64,
            topology="ring",
            model="sequential",
            initial="balanced",
            initial_params={"k": 2},
            reps=3,
            seed=0,
        ),
    ]

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.protocol + "/" + s.model)
    def test_from_dict_to_dict_is_identity(self, spec):
        assert SimulationSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.protocol + "/" + s.model)
    def test_dict_form_is_json_serializable(self, spec):
        payload = json.loads(json.dumps(spec.to_dict()))
        assert SimulationSpec.from_dict(payload) == spec

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown SimulationSpec field"):
            SimulationSpec.from_dict({"protocol": "voter", "n": 10, "bogus": 1})

    def test_replace_returns_modified_copy(self):
        spec = SimulationSpec(protocol="voter", n=100, seed=1)
        bigger = spec.replace(n=200)
        assert bigger.n == 200 and spec.n == 100 and bigger.seed == 1

    def test_params_are_copied_not_aliased(self):
        params = {"k": 4}
        spec = SimulationSpec(protocol="voter", n=100, initial="balanced", initial_params=params)
        params["k"] = 9
        assert spec.initial_params == {"k": 4}


class TestSpecValidation:
    def test_rejects_bad_model(self):
        with pytest.raises(ConfigurationError, match="unknown model"):
            SimulationSpec(protocol="voter", n=10, model="warp")

    def test_rejects_nonpositive_reps(self):
        with pytest.raises(ConfigurationError, match="reps"):
            SimulationSpec(protocol="voter", n=10, reps=0)

    def test_rejects_max_time_off_continuous(self):
        with pytest.raises(ConfigurationError, match="max_time"):
            SimulationSpec(protocol="voter", n=10, model="sequential", max_time=1.0)

    def test_rejects_max_steps_on_continuous(self):
        with pytest.raises(ConfigurationError, match="max_time"):
            SimulationSpec(protocol="voter", n=10, model="continuous", max_steps=5)

    def test_rejects_trace_with_ensemble(self):
        with pytest.raises(ConfigurationError, match="record_trace"):
            SimulationSpec(protocol="voter", n=10, reps=4, record_trace=True)

    def test_rejects_non_integer_seed(self):
        with pytest.raises(ConfigurationError, match="seed"):
            SimulationSpec(protocol="voter", n=10, seed="entropy")


class TestRegistries:
    def test_expected_builtin_names(self):
        assert {"two-choices", "voter", "three-majority", "undecided-state",
                "one-extra-bit", "async-plurality"} <= set(PROTOCOLS.names())
        assert "complete" in TOPOLOGIES and "ring" in TOPOLOGIES
        assert {"dynamic-ring", "dynamic-torus"} <= set(TOPOLOGIES.names())
        assert {"two-colors", "balanced", "benchmark-split", "zipf-sampled"} <= set(INITIALS.names())
        assert {"none", "exponential", "fixed"} <= set(DELAYS.names())
        assert {"consensus", "near-consensus", "plurality-fraction"} <= set(STOPS.names())
        assert {"loss", "stubborn", "byzantine"} <= set(FAULTS.names())

    def test_unknown_name_error_lists_registered(self):
        with pytest.raises(ConfigurationError, match="two-choices"):
            PROTOCOLS.get("there-is-no-such-protocol")

    def test_unknown_param_rejected_with_valid_names(self):
        with pytest.raises(ConfigurationError, match="rate"):
            DELAYS.build("exponential", {"speed": 2.0})

    def test_missing_required_param_rejected(self):
        with pytest.raises(ConfigurationError, match="gap"):
            INITIALS.build("two-colors", {}, 100)

    def test_cli_strings_are_coerced_by_kind(self):
        config = INITIALS.build("two-colors", {"gap": "10"}, 100)
        assert config.counts == (55, 45)

    def test_bool_params_accept_both_polarities(self):
        entry = PROTOCOLS.get("async-plurality")
        assert entry.build("sequential", {"sync_enabled": "false"}).params.sync_enabled is False
        assert entry.build("sequential", {"sync_enabled": "on"}).params.sync_enabled is True

    def test_unrecognised_bool_string_rejected(self):
        with pytest.raises(ConfigurationError, match="expects bool"):
            PROTOCOLS.get("async-plurality").build("sequential", {"sync_enabled": "enable"})

    def test_every_entry_has_description_and_doc(self):
        for registry in (TOPOLOGIES, INITIALS, DELAYS, STOPS):
            for name in registry.names():
                entry = registry.get(name)
                assert entry.description, f"{registry.kind} {name} lacks a description"
        for name in PROTOCOLS.names():
            assert PROTOCOLS.get(name).description

    def test_protocol_models_cover_the_paper(self):
        assert PROTOCOLS.get("two-choices").models() == ["synchronous", "sequential", "continuous"]
        assert PROTOCOLS.get("one-extra-bit").models() == ["synchronous"]
        assert PROTOCOLS.get("async-plurality").models() == ["sequential", "continuous"]

    def test_unsupported_model_raises(self):
        with pytest.raises(ConfigurationError, match="does not implement"):
            PROTOCOLS.get("one-extra-bit").build("sequential")


def _exactness_cases():
    """(protocol, model) across all registered protocols on K_n.

    Budgets are tight (the contract is value equality, not
    convergence), except that n and the budget are chosen so the fast
    protocols do converge — exercising the full stop path too.
    """
    cases = []
    for name in PROTOCOLS.names():
        entry = PROTOCOLS.get(name)
        for model in entry.models():
            cases.append(pytest.param(name, model, id=f"{name}/{model}"))
    return cases


class TestSimulateExactness:
    """`simulate` is routing + aggregation only: zero added randomness."""

    N = 300
    SEED = 20170725

    def _spec(self, name, model, reps=1):
        budget = {}
        if model == "continuous":
            budget["max_time"] = 8.0
        elif model == "sequential":
            budget["max_steps"] = 40 * self.N
        else:
            budget["max_steps"] = 200
        return SimulationSpec(
            protocol=name,
            n=self.N,
            model=model,
            initial="two-colors",
            initial_params={"gap": self.N // 5},
            reps=reps,
            seed=self.SEED,
            **budget,
        )

    def _hand_wired_engine(self, name, model, reps=1):
        protocol = PROTOCOLS.get(name).factory_for(model)()
        return fastest_engine(protocol, CompleteGraph(self.N), model=model, n_reps=reps)

    @pytest.mark.parametrize("name,model", _exactness_cases())
    def test_reps_1_reproduces_hand_wired_run(self, name, model):
        spec = self._spec(name, model)
        sim = simulate(spec)
        engine = self._hand_wired_engine(name, model)
        kwargs = (
            {"max_time": spec.max_time} if model == "continuous"
            else {"max_rounds": spec.max_steps} if model == "synchronous"
            else {"max_ticks": spec.max_steps}
        )
        reference = engine.run(two_colors(self.N, self.N // 5), seed=self.SEED, **kwargs)
        assert sim.engine == type(engine).__name__
        assert _result_payloads(sim.runs) == _result_payloads([reference])

    @pytest.mark.parametrize(
        "name,model",
        [("two-choices", "sequential"), ("voter", "synchronous"), ("two-choices", "continuous")],
    )
    def test_ensembles_reproduce_run_replicated(self, name, model):
        reps = 5
        spec = self._spec(name, model, reps=reps)
        sim = simulate(spec)
        engine = self._hand_wired_engine(name, model, reps=reps)
        kwargs = (
            {"max_time": spec.max_time} if model == "continuous"
            else {"max_rounds": spec.max_steps} if model == "synchronous"
            else {"max_ticks": spec.max_steps}
        )
        reference = run_replicated(
            engine, two_colors(self.N, self.N // 5), reps, seed=self.SEED, **kwargs
        )
        assert _result_payloads(sim.runs) == _result_payloads(reference)

    def test_same_spec_same_values(self):
        spec = self._spec("two-choices", "sequential", reps=3)
        assert _result_payloads(simulate(spec).runs) == _result_payloads(simulate(spec).runs)


def _json_hop(spec: SimulationSpec) -> SimulationSpec:
    """A real serialize/deserialize round trip, not just dict identity."""
    return SimulationSpec.from_dict(json.loads(json.dumps(spec.to_dict())))


class TestSpecSurvivesJson:
    """The campaign cache persists specs as JSON and replays results by
    content hash, so a spec must not merely round-trip as a dict — it
    must *simulate identically* after a real ``json.dumps``/``loads``
    hop.  Asserted across every registered protocol and model."""

    @pytest.mark.parametrize("name,model", _exactness_cases())
    def test_json_hop_preserves_simulation(self, name, model):
        spec = TestSimulateExactness()._spec(name, model)
        hopped = _json_hop(spec)
        assert hopped == spec
        assert _result_payloads(simulate(hopped).runs) == _result_payloads(simulate(spec).runs)

    def test_json_hop_preserves_ensemble_simulation(self):
        spec = TestSimulateExactness()._spec("two-choices", "sequential", reps=4)
        assert _result_payloads(simulate(_json_hop(spec)).runs) == _result_payloads(
            simulate(spec).runs
        )

    @settings(max_examples=60, deadline=None)
    @given(
        protocol=st.sampled_from(["two-choices", "voter", "three-majority"]),
        n=st.integers(min_value=2, max_value=10**7),
        model=st.sampled_from(["sequential", "synchronous", "continuous"]),
        reps=st.integers(min_value=1, max_value=64),
        seed=st.one_of(st.none(), st.integers(min_value=0, max_value=2**63 - 1)),
        params=st.dictionaries(
            st.text(st.characters(codec="ascii", categories=["L", "N"]), min_size=1, max_size=8),
            st.one_of(
                st.integers(min_value=-(10**9), max_value=10**9),
                st.floats(allow_nan=False, allow_infinity=False, width=64),
                st.booleans(),
                st.text(max_size=12),
            ),
            max_size=4,
        ),
        budget=st.one_of(st.none(), st.integers(min_value=1, max_value=10**9)),
        faults=st.lists(
            st.fixed_dictionaries(
                {
                    "name": st.sampled_from(["loss", "stubborn", "byzantine"]),
                    "params": st.dictionaries(
                        st.sampled_from(["p", "fraction", "fault_seed", "color"]),
                        st.one_of(
                            st.integers(min_value=0, max_value=10**6),
                            st.floats(min_value=0.0, max_value=0.99, allow_nan=False),
                        ),
                        max_size=2,
                    ),
                }
            ),
            max_size=2,
        ),
    )
    def test_to_dict_json_from_dict_is_identity(self, protocol, n, model, reps, seed, params, budget, faults):
        """Property: any constructible spec survives the JSON hop unchanged
        (registry validation of the params happens at run time, so the
        serialization layer must carry arbitrary JSON-able dicts)."""
        kwargs = {}
        if budget is not None:
            if model == "continuous":
                kwargs["max_time"] = float(budget)
            else:
                kwargs["max_steps"] = budget
        if faults and model != "synchronous":
            kwargs["faults"] = faults
        spec = SimulationSpec(
            protocol=protocol,
            n=n,
            model=model,
            initial="theorem-1-1-gap",
            initial_params=params,
            reps=reps,
            seed=seed,
            **kwargs,
        )
        assert _json_hop(spec) == spec

    NEW_ENTRY_SPECS = [
        SimulationSpec(
            protocol="two-choices",
            n=150,
            topology="dynamic-ring",
            topology_params={"churn_rate": 0.2, "epoch_ticks": 75},
            initial="two-colors",
            initial_params={"gap": 30},
            reps=2,
            seed=9,
            max_steps=4000,
        ),
        SimulationSpec(
            protocol="three-majority",
            n=120,
            initial="zipf-sampled",
            initial_params={"k": 6, "alpha": 1.0, "init_seed": 4},
            faults=[{"name": "stubborn", "params": {"fraction": 0.1, "fault_seed": 2}}],
            reps=2,
            seed=9,
            max_steps=4000,
        ),
        SimulationSpec(
            protocol="two-choices",
            n=100,
            faults=[
                {"name": "loss", "params": {"p": 0.3}},
                {"name": "byzantine", "params": {"fraction": 0.1}},
            ],
            initial="two-colors",
            initial_params={"gap": 20},
            seed=9,
            max_steps=2000,
        ),
    ]

    @pytest.mark.parametrize(
        "spec",
        NEW_ENTRY_SPECS,
        ids=["dynamic-ring", "zipf+stubborn", "loss+byzantine"],
    )
    def test_json_hop_preserves_new_registry_entries(self, spec):
        """PR-10 registry entries (fault stacks, churned topologies,
        sampled Zipf initials) must stay cacheable: simulate identically
        after a real JSON hop."""
        hopped = _json_hop(spec)
        assert hopped == spec
        assert _result_payloads(simulate(hopped).runs) == _result_payloads(simulate(spec).runs)

    def test_result_payload_survives_json_hop(self):
        """SimulationResult payloads (what the cache stores) round-trip too."""
        from repro.api import SimulationResult

        spec = TestSimulateExactness()._spec("two-choices", "sequential", reps=3)
        payload = simulate(spec).to_dict()
        hopped = SimulationResult.from_dict(json.loads(json.dumps(payload)))
        assert hopped.to_dict() == payload


class TestSimulateSurface:
    def test_rejects_non_spec(self):
        with pytest.raises(ConfigurationError, match="SimulationSpec"):
            simulate({"protocol": "voter", "n": 10})

    def test_sparse_topology_routes_to_sequential_engine(self):
        # Sparse sequential specs run on SequentialEngine at every n
        # (see engine/dispatch).
        spec = SimulationSpec(
            protocol="voter",
            n=32,
            topology="ring",
            model="sequential",
            initial="balanced",
            initial_params={"k": 2},
            reps=2,
            seed=5,
            max_steps=3000,
        )
        sim = simulate(spec)
        assert sim.engine == "SequentialEngine"
        assert sim.reps == 2

    def test_sparse_synchronous_uses_agent_realisation(self):
        spec = SimulationSpec(
            protocol="two-choices",
            n=16,
            topology="hypercube",
            model="synchronous",
            initial="balanced",
            initial_params={"k": 2},
            seed=5,
            max_steps=200,
        )
        assert simulate(spec).engine == "SynchronousEngine"

    def test_delay_model_routes_event_queue_engine(self):
        spec = SimulationSpec(
            protocol="two-choices",
            n=64,
            model="continuous",
            delay="exponential",
            delay_params={"rate": 1.0},
            initial="two-colors",
            initial_params={"gap": 20},
            seed=5,
            max_time=3.0,
        )
        assert simulate(spec).engine == "ContinuousEngine"

    def test_stop_criterion_applies(self):
        spec = SimulationSpec(
            protocol="two-choices",
            n=500,
            stop="near-consensus",
            stop_params={"epsilon": 0.2},
            initial="two-colors",
            initial_params={"gap": 100},
            seed=5,
        )
        run = simulate(spec).runs[0]
        assert run.converged
        assert run.final.counts[0] >= 0.8 * 500

    def test_resolve_exposes_components(self):
        spec = SimulationSpec(protocol="two-choices", n=100, seed=1)
        resolved = resolve(spec)
        assert resolved.topology.n == 100
        assert resolved.initial.n == 100
        # Below the counts crossover K_n tick specs run the agent engine.
        assert type(resolved.engine).__name__ == "SequentialEngine"
        at_crossover = resolve(spec.replace(n=COUNTS_TICK_CROSSOVER))
        assert type(at_crossover.engine).__name__ == "CountsSequentialEngine"

    def test_result_to_dict_round_trips_spec(self):
        spec = SimulationSpec(protocol="voter", n=200, reps=2, seed=3)
        payload = simulate(spec).to_dict()
        assert SimulationSpec.from_dict(payload["spec"]) == spec
        assert payload["summary"]["reps"] == 2
        assert len(payload["runs"]) == 2

    def test_sweep_rejects_initial_on_object_path(self):
        from repro.protocols.two_choices import TwoChoicesSequential
        from repro.workloads.sweeps import convergence_time_sweep

        with pytest.raises(ConfigurationError, match="spec path only"):
            convergence_time_sweep(
                TwoChoicesSequential(), [100], reps=2, initial="two-colors",
                initial_params={"gap": 20},
            )
        with pytest.raises(ConfigurationError, match="spec path only"):
            convergence_time_sweep(
                "two-choices", [100], reps=2, initial="two-colors",
                initial_params={"gap": 20}, make_config=lambda n: None,
            )

    def test_sweep_spec_path_honours_initial(self):
        from repro.workloads.sweeps import convergence_time_sweep

        out = convergence_time_sweep(
            "two-choices", [200], reps=2, seed=3,
            initial="two-colors", initial_params={"gap": 100},
        )
        assert out[200][0].initial.counts == (150, 50)

    def test_summary_statistics(self):
        spec = SimulationSpec(
            protocol="two-choices",
            n=400,
            reps=4,
            seed=11,
            initial="two-colors",
            initial_params={"gap": 100},
        )
        sim = simulate(spec)
        summary = sim.summary()
        assert summary["converged"] == 4
        assert summary["min_parallel_time"] <= summary["mean_parallel_time"] <= summary["max_parallel_time"]
        assert sim.convergence_times() == [r.parallel_time for r in sim.runs]


def _canon(payload):
    """Canonical JSON without the wall clock: NaN summaries compare equal."""
    return json.dumps({k: v for k, v in payload.items() if k != "elapsed_seconds"}, sort_keys=True)


class TestDerivedSeeds:
    """A seeded spec is a pure function of the spec, also when a random
    graph or a sampled initial state leaves its own seed unset."""

    RANDOM_GRAPH = SimulationSpec(
        protocol="two-choices", n=400, topology="random-regular",
        topology_params={"degree": 4}, seed=7, max_steps=4000,
    )
    SAMPLED_INITIAL = SimulationSpec(
        protocol="two-choices", n=400, initial="zipf-sampled", initial_params={"k": 4}, seed=7,
    )

    @pytest.mark.parametrize("spec", [RANDOM_GRAPH, SAMPLED_INITIAL], ids=["random-regular", "zipf-sampled"])
    def test_two_simulate_calls_are_value_equal(self, spec):
        assert _canon(simulate(spec).to_dict()) == _canon(simulate(spec).to_dict())

    def test_graph_follows_spec_seed(self):
        def adjacency(spec):
            topology = resolve(spec).topology
            return [list(topology.neighbors_of(v)) for v in range(topology.n)]

        spec = self.RANDOM_GRAPH
        assert adjacency(spec) != adjacency(spec.replace(seed=8))
        # An explicit graph_seed wins over the derived one.
        pinned = spec.replace(topology_params={"degree": 4, "graph_seed": 5})
        built = TOPOLOGIES.build("random-regular", {"degree": 4, "graph_seed": 5}, 400)
        assert adjacency(pinned) == [list(built.neighbors_of(v)) for v in range(400)]

    def test_derived_seed_stays_out_of_the_spec(self):
        from repro.api.cache import spec_key

        spec = self.SAMPLED_INITIAL
        key = spec_key(spec)
        sim = simulate(spec)
        assert sim.spec.initial_params == {"k": 4}
        assert spec_key(sim.spec) == key

    def test_unseeded_spec_stays_unseeded(self):
        spec = self.SAMPLED_INITIAL.replace(seed=None, initial_params={"k": 8})
        draws = {resolve(spec).initial.counts for _ in range(4)}
        assert len(draws) > 1
