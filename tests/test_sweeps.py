"""Value-for-value regression gates for ``convergence_time_sweep``.

ISSUE 4 routed the sweep's *spec path* through
``run_campaign(executor="serial")``.  These tests pin it to its
pre-campaign semantics: it must reproduce, bit-for-bit, what the
pre-campaign implementation produced (a hand-rolled ``spawn_seeds`` +
``simulate`` loop, inlined here as the reference).
"""

from repro.api import SimulationSpec, simulate
from repro.api import executors as executors_module
from repro.core.rng import spawn_seeds
from repro.workloads.sweeps import convergence_time_sweep

NS = [200, 300, 400]
REPS = 3
SEED = 20170725


def _payloads(sweep_output):
    return {n: [r.to_dict() for r in runs] for n, runs in sweep_output.items()}


def _pre_campaign_spec_path(ns, reps, seed, model="sequential", initial="benchmark-split",
                            initial_params=None):
    """The spec path exactly as it was before the campaign layer."""
    out = {}
    for n, child_seed in zip(ns, spawn_seeds(seed, len(ns))):
        spec = SimulationSpec(
            protocol="two-choices",
            n=int(n),
            model=model,
            initial=initial,
            initial_params=dict(initial_params or {}),
            reps=reps,
            seed=child_seed,
        )
        out[int(n)] = simulate(spec).runs
    return out


class TestSpecPathRegression:
    def test_campaign_routing_is_value_for_value(self):
        via_campaign = convergence_time_sweep("two-choices", NS, reps=REPS, seed=SEED)
        reference = _pre_campaign_spec_path(NS, REPS, SEED)
        assert _payloads(via_campaign) == _payloads(reference)

    def test_campaign_routing_honours_initial_and_model(self):
        kwargs = dict(
            model="synchronous", initial="two-colors", initial_params={"gap": 50}
        )
        via_campaign = convergence_time_sweep(
            "two-choices", [200, 300], reps=2, seed=7, **kwargs
        )
        reference = _pre_campaign_spec_path([200, 300], 2, 7, **kwargs)
        assert _payloads(via_campaign) == _payloads(reference)

    def test_empty_grid(self):
        assert convergence_time_sweep("two-choices", [], reps=2, seed=7) == {}

    def test_reproducible_across_calls(self):
        first = convergence_time_sweep("two-choices", NS, reps=REPS, seed=SEED)
        second = convergence_time_sweep("two-choices", NS, reps=REPS, seed=SEED)
        assert _payloads(first) == _payloads(second)

    def test_cache_gives_engine_free_replay(self, tmp_path, monkeypatch):
        cold = convergence_time_sweep(
            "two-choices", NS, reps=REPS, seed=SEED, cache=str(tmp_path)
        )

        def explode(payload):  # pragma: no cover - asserts the engine stays cold
            raise AssertionError("warm sweep replay touched an engine")

        monkeypatch.setattr(executors_module, "execute_spec_payload", explode)
        warm = convergence_time_sweep(
            "two-choices", NS, reps=REPS, seed=SEED, cache=str(tmp_path)
        )
        assert _payloads(warm) == _payloads(cold)

    def test_process_executor_matches_serial(self):
        serial = convergence_time_sweep("two-choices", NS, reps=REPS, seed=SEED)
        process = convergence_time_sweep(
            "two-choices", NS, reps=REPS, seed=SEED, executor="process", workers=2
        )
        assert _payloads(process) == _payloads(serial)
