"""Byte-level pins of seeded payloads on the tick and round routes.

Each case is a seeded :class:`~repro.api.SimulationSpec` whose
canonical ``simulate(spec).to_dict()`` (minus the wall-clock
``elapsed_seconds``) must hash to the recorded SHA-256.  Together the
:data:`PINS` cases reach all four counts tick routes —
``CountsSequentialEngine``, ``CountsContinuousEngine`` and their
ensemble twins — over the four protocols with counts tick laws, both
asynchronous models, one and six replications, one traced run and two
sequential ``max_steps`` budget hits.  The :data:`AGENT_PINS` cases
reach the per-tick agent routes below the counts crossover
(``SequentialEngine``, ``ContinuousEngine``) over the same protocols
and models, one and three (looped) replications, one traced run and
one ``max_steps`` budget hit.  The :data:`ASYNC_PINS` cases run the
phased protocol of Theorem 1.3 on both agent routes: the sequential
and zero-delay continuous block path (on ``K_n`` and a torus, traced,
under a ``max_steps`` budget and with three replications), and the
delayed continuous event-queue path.  The :data:`SYNC_PINS` cases reach both synchronous
counts routes (``CountsEngine``, ``EnsembleCountsEngine``) over all
five counts protocols, one and six replications, two traced runs and
two ``max_steps`` budget hits.  The :data:`SPARSE_PINS` cases run the
agent routes off ``K_n`` — torus, ring, random-regular, Watts-Strogatz,
a churned ring and a stubborn-fault random-regular graph — under both
asynchronous models, so they also lock each graph builder's CSR row
order.  A refactor of a tick or round loop, a transition hook, a graph
builder or the RNG call sequence that changes any value shows up here
as a hash mismatch.  The :data:`MISS_PINS` cases are shaped like the
cold misses of ``repro serve`` (small ``K_n``, every footprint
protocol, one continuous and one stubborn-faulted run).  The
:data:`SMALL_BATCH_PINS` cases run the counts tick engines directly
with one and two ticks per batch.

Continuous specs that run into their ``max_time`` budget are left out
on purpose: the budget cut (see :mod:`repro.engine.counts_async`)
decides their final batch with extra draws.
"""

import hashlib
import json

import pytest

from repro.api import SimulationSpec, simulate
from repro.core.colors import ColorConfiguration
from repro.engine import CountsContinuousEngine, CountsSequentialEngine
from repro.protocols import UndecidedStateSequentialCounts, VoterSequentialCounts

def _bias(k: int) -> dict:
    return {"initial": "multiplicative-bias", "initial_params": {"k": k, "ratio": 1.5}}


BIAS_3 = _bias(3)

#: (spec fields, routed engine, sha256 of the canonical payload).
PINS = [
    (
        dict(protocol="two-choices", n=100_000, model="sequential", seed=1),
        "CountsSequentialEngine",
        "37b4d4e9e788265c78796c95e102b4528691d8d586f8ad976e8670626e6dd37e",
    ),
    (
        dict(protocol="two-choices", n=100_000, model="continuous", seed=2),
        "CountsContinuousEngine",
        "16e5590b9377a0d57fcd10fab227eaf7085425a54fbb895680ca63c7592b00e2",
    ),
    (
        dict(protocol="two-choices", n=20_000, model="sequential", reps=6, seed=3),
        "EnsembleCountsSequentialEngine",
        "0dd0d4e3f65331323d3aec237b7928fd7704fe7e691611217312ca0d7891cebe",
    ),
    (
        dict(protocol="two-choices", n=20_000, model="continuous", reps=6, seed=4),
        "EnsembleCountsContinuousEngine",
        "476a868d9370c5cae553c861164cd502625d609390806cce054a01fbf92dcd18",
    ),
    (
        dict(
            protocol="three-majority",
            n=100_000,
            model="continuous",
            seed=5,
            initial="theorem-1-1-gap",
            initial_params={"k": 4, "z": 2.0},
        ),
        "CountsContinuousEngine",
        "6a9d62b6a3efe834dd0053020004ca9a189e26b0a602e3a62b66334b939f7712",
    ),
    (
        dict(protocol="three-majority", n=20_000, model="sequential", reps=6, seed=6, **BIAS_3),
        "EnsembleCountsSequentialEngine",
        "10988d6659dbe38a1f9a25249594c73bb0d48f43761cea27d5d865666333f14a",
    ),
    (
        dict(protocol="undecided-state", n=100_000, model="sequential", seed=7, **BIAS_3),
        "CountsSequentialEngine",
        "6eec9861a300ff48035a8f3f4b68112815f8791b89a1e47f8f1692b8c98efdd5",
    ),
    (
        dict(protocol="undecided-state", n=20_000, model="continuous", reps=6, seed=8),
        "EnsembleCountsContinuousEngine",
        "5fb3e3ce051d21ee697a4f13fcc244031a2e854468adb2c008a8eabc56734550",
    ),
    (
        dict(protocol="voter", n=100_000, model="sequential", seed=9, max_steps=300_000),
        "CountsSequentialEngine",
        "0f97afe6e16677812e3a131b06be9041d029c6ebb373dd02c97c91e64abe9790",
    ),
    (
        dict(
            protocol="voter",
            n=20_000,
            model="continuous",
            reps=6,
            seed=10,
            initial="two-colors",
            initial_params={"gap": 19_990},
        ),
        "EnsembleCountsContinuousEngine",
        "b71e276b3c02ca00282b8701dd4be67936d1413333c44f3f40f292e70bf2f3bb",
    ),
    (
        dict(
            protocol="two-choices",
            n=100_000,
            model="sequential",
            seed=11,
            record_trace=True,
            trace_every=2.0,
        ),
        "CountsSequentialEngine",
        "e2a2312780c49f74b0193f519820a92ec0cea042aacb159cabecfd0c821782df",
    ),
    (
        dict(protocol="three-majority", n=20_000, model="sequential", reps=6, seed=12, max_steps=50_000),
        "EnsembleCountsSequentialEngine",
        "df49a6f10ae70e8058cd573116860eb5672ea264369f75f4ab591de5f683b5ed",
    ),
]


#: (spec fields, routed engine, sha256) on the per-tick agent routes.
AGENT_PINS = [
    (
        dict(protocol="two-choices", n=2_000, model="sequential", seed=21),
        "SequentialEngine",
        "1ac3b25aa4de3fc1e23f979df3bae67407cf2de78afd53896f4eab279237c995",
    ),
    (
        dict(protocol="two-choices", n=2_000, model="continuous", reps=3, seed=22),
        "ContinuousEngine",
        "d63892dade555686c3c9d49b9c31694cec0209802be6ca23032421f4e9741fee",
    ),
    (
        dict(protocol="three-majority", n=3_000, model="continuous", seed=23, **BIAS_3),
        "ContinuousEngine",
        "0675159de5d7bfe0b34ce1b8a7fa33c60dca586098f3c1fcc44b5940c1049f9e",
    ),
    (
        dict(protocol="three-majority", n=2_000, model="sequential", reps=3, seed=24),
        "SequentialEngine",
        "6b9f41012f586ec11269b78f15e367d87d7b41c5d7d6d12ddfbc3e4f7d6bbf9b",
    ),
    (
        dict(protocol="undecided-state", n=2_000, model="sequential", seed=25, **BIAS_3),
        "SequentialEngine",
        "a05d5e2c04781bc39b7202bd399c23b42c5e11f6375c8b49dd1ab79951500270",
    ),
    (
        dict(protocol="undecided-state", n=2_000, model="continuous", reps=3, seed=26),
        "ContinuousEngine",
        "7c7f939a1c976054c17ff961a7f31544e870b8fd911f26ce3e4938bc09eac8ff",
    ),
    (
        dict(protocol="voter", n=300, model="sequential", reps=3, seed=27),
        "SequentialEngine",
        "b67dec12ef332aea09517d797a3683f869f6f751bf70541127a1c0fd6d96836a",
    ),
    (
        dict(
            protocol="voter",
            n=100,
            model="continuous",
            seed=28,
            initial="two-colors",
            initial_params={"gap": 60},
        ),
        "ContinuousEngine",
        "72f34df1a57d738ab9fdfac1ba1e7ff3cb423ff3d673d865f0ca48be657ffe07",
    ),
    (
        dict(
            protocol="two-choices",
            n=2_000,
            model="continuous",
            seed=29,
            record_trace=True,
            trace_every=2.0,
        ),
        "ContinuousEngine",
        "455f6fd665e8936236bccee648a4406c88fc9d785bea9ea5ac9b6b3b98d24536",
    ),
    (
        dict(protocol="three-majority", n=5_000, model="sequential", reps=3, seed=30, max_steps=8_000),
        "SequentialEngine",
        "1cd99aad35ed5a76dd9a3d15e0d24d6af45871b1bd33ef5c3c887b93c4b25302",
    ),
]


BIAS_4 = {"initial": "multiplicative-bias", "initial_params": {"k": 4, "ratio": 2.0}}

#: (spec fields, routed engine, sha256) for async-plurality.  The
#: delayed path runs tick_targets / tick_apply, so its hash does not
#: depend on the block path and was recorded before that path existed;
#: the zero-delay hashes lock the block path's stream.
ASYNC_PINS = [
    (
        dict(
            protocol="async-plurality",
            n=150,
            model="continuous",
            seed=31,
            delay="exponential",
            delay_params={"rate": 2.0},
            initial="multiplicative-bias",
            initial_params={"k": 4, "ratio": 2.0},
        ),
        "ContinuousEngine",
        "477582fe1e3a8060f45254551a1248ac06ef89f23ebd665db2d1afb89144da50",
    ),
    (
        dict(
            protocol="async-plurality",
            n=300,
            model="sequential",
            seed=32,
            initial="multiplicative-bias",
            initial_params={"k": 4, "ratio": 2.0},
        ),
        "SequentialEngine",
        "e4bfef556b8a44bc23b6a83715b62fc1e72b837e03450bc69feb789aa9251fa3",
    ),
    (
        dict(
            protocol="async-plurality",
            n=250,
            model="continuous",
            seed=33,
            initial="multiplicative-bias",
            initial_params={"k": 4, "ratio": 2.0},
        ),
        "ContinuousEngine",
        "9402993c2e8a73ad775ada7d7e1e6cb87ee1be48e9e14d35b581d2c1cb9cd8d2",
    ),
    # A traced run reads counts() between blocks; a budget hit stops
    # mid-schedule; reps=3 reuses one protocol across replications; the
    # torus runs do not converge and end when every node has terminated
    # (is_absorbed), inside the protocol's own default budget.
    (
        dict(protocol="async-plurality", n=200, model="sequential", seed=34, record_trace=True,
             trace_every=2.0, **BIAS_4),
        "SequentialEngine",
        "19f573aa69a40c7a6fa72bf063373ebbca92ec8c2f373b134c35571cbff5661e",
    ),
    (
        dict(protocol="async-plurality", n=300, model="sequential", seed=35, max_steps=20_000, **BIAS_4),
        "SequentialEngine",
        "66672b143e0091135b349a56d3de2a159f32489daca0eec417c2b5616bd73a32",
    ),
    (
        dict(protocol="async-plurality", n=120, model="sequential", reps=3, seed=36, **BIAS_4),
        "SequentialEngine",
        "54c1508efd81b74e2518c1c695006b1e302210661087d02b112253cca6cf163f",
    ),
    (
        dict(protocol="async-plurality", n=196, topology="torus", model="sequential", seed=37, **BIAS_4),
        "SequentialEngine",
        "eaf3613d944279ac35e9453bd0786279e7932ad13cd85f4f710f67103bec524e",
    ),
    (
        dict(protocol="async-plurality", n=196, topology="torus", model="continuous", seed=38, **BIAS_4),
        "ContinuousEngine",
        "1e42f55f93ad513f31c877aacb00444e34d05bfbc4881f6fe6921f2506c7ef6a",
    ),
]


BIAS_8 = {"initial": "multiplicative-bias", "initial_params": {"k": 8, "ratio": 1.5}}

#: (spec fields, routed engine, sha256) on the synchronous counts routes.
SYNC_PINS = [
    (
        dict(protocol="two-choices", n=100_000, model="synchronous", seed=41),
        "CountsEngine",
        "8810339929a16de04e2d927594c8c63cfdf42f2764f4c6814c9ea8da56a375d8",
    ),
    (
        dict(protocol="two-choices", n=100_000, model="synchronous", reps=6, seed=42, **BIAS_3),
        "EnsembleCountsEngine",
        "73f9886c0f6492bbb590823458185d3d0aa15d7c12a3b445029f5321665faafd",
    ),
    (
        dict(protocol="three-majority", n=100_000, model="synchronous", seed=43, **BIAS_3),
        "CountsEngine",
        "5f19c3208e9e450a81eff96255d8cf9cb1ef7cfae55a5232d196d82cb3c50b8e",
    ),
    (
        dict(protocol="three-majority", n=100_000, model="synchronous", reps=6, seed=44),
        "EnsembleCountsEngine",
        "786ae9de4f39aace3ff9385e0e17ec8bf1e171a4e0f35db5e7912663d2176feb",
    ),
    (
        dict(protocol="undecided-state", n=100_000, model="synchronous", seed=45, **BIAS_3),
        "CountsEngine",
        "febce25ebafb2d2227c17176ef3b188dea0ca9e6207d82c7dcce1010200650b9",
    ),
    (
        dict(protocol="undecided-state", n=100_000, model="synchronous", reps=6, seed=46),
        "EnsembleCountsEngine",
        "31b6d2d8e37bd85c03c3aeecae0c682ea17344002762712aea2658e4e5a55a7c",
    ),
    (
        dict(protocol="voter", n=2_000, model="synchronous", seed=47),
        "CountsEngine",
        "b62048260c3f64f59e8b87a1fba7f614ee68ddee6594957c2729d05fc8832755",
    ),
    (
        dict(
            protocol="voter",
            n=1_000,
            model="synchronous",
            reps=6,
            seed=48,
            initial="two-colors",
            initial_params={"gap": 990},
        ),
        "EnsembleCountsEngine",
        "96597d6122c878bb2d82798afd06f07b1c128ad0f14ecf3db85a0fc6c2549dde",
    ),
    (
        dict(protocol="one-extra-bit", n=100_000, model="synchronous", seed=49, **BIAS_8),
        "CountsEngine",
        "fb2ae14cd2039c13c417bd8524e06a97ffd8dd305baa6fb19a55d83bd69d4116",
    ),
    # Recorded on EnsembleCountsEngine; one-extra-bit ensembles used to
    # loop CountsEngine on spawned seeds (same law, other values).
    (
        dict(protocol="one-extra-bit", n=100_000, model="synchronous", reps=6, seed=50, **BIAS_8),
        "EnsembleCountsEngine",
        "236251fec597e2bfb60a56e7eab1c95282eaccbfae08af0d1ae9f88c73bf3711",
    ),
    (
        dict(
            protocol="two-choices",
            n=100_000,
            model="synchronous",
            seed=51,
            record_trace=True,
            trace_every=2,
        ),
        "CountsEngine",
        "3b4e7dc02a7321de483574e98f7ce1acc8b583e742bec99b68229d89446bb3ce",
    ),
    (
        dict(
            protocol="one-extra-bit",
            n=100_000,
            model="synchronous",
            seed=52,
            record_trace=True,
            trace_every=2,
            **BIAS_8,
        ),
        "CountsEngine",
        "42fa8eff288f9ddd12a6015169960bd954c96c1fb820bbfd8579772dbd516c58",
    ),
    (
        dict(protocol="voter", n=100_000, model="synchronous", reps=6, seed=53, max_steps=40),
        "EnsembleCountsEngine",
        "b91a3834e91632a05bfb2f0bcd17dd521954b6d762521afeffd34c5e9b48d936",
    ),
    (
        dict(protocol="one-extra-bit", n=100_000, model="synchronous", seed=54, max_steps=5, **BIAS_8),
        "CountsEngine",
        "16f9d87a218ebbc8118e86846405f1005f598dcd75cbbf0245ce40d2586b8ba5",
    ),
]


#: (spec fields, routed engine, sha256) on sparse topologies.  Every
#: value here also depends on the CSR row order of the graph builder
#: (neighbour sampling draws a slot index into the row), so these lock
#: the builders as well as the agent tick routes off ``K_n``.
SPARSE_PINS = [
    (
        dict(protocol="two-choices", n=2_500, topology="torus", model="sequential", seed=61,
             max_steps=25_000, **BIAS_3),
        "SequentialEngine",
        "844a5634cf9d7c1ccf8109d1f6a8fc9728412308bcf6b0448f000ae2bce0a9b4",
    ),
    (
        dict(protocol="three-majority", n=900, topology="torus", topology_params={"rows": 30},
             model="continuous", seed=62, **BIAS_3),
        "ContinuousEngine",
        "f63e6b8f9a61fb8bbb5ca46f1544263bab84096eec0de9e2dcf158e020b9ff8a",
    ),
    (
        dict(protocol="undecided-state", n=3_000, topology="ring", model="continuous", seed=63,
             max_time=8.0, **BIAS_3),
        "ContinuousEngine",
        "afa0037c84cc1ea635611f639942aa7a534a4000ba6e4e9c58738ec94e85a36c",
    ),
    (
        dict(protocol="voter", n=2_000, topology="ring", model="sequential", seed=64,
             max_steps=20_000, **BIAS_3),
        "SequentialEngine",
        "3a80ee1a6fe0db468ebfadcaae95f9386aa66c421f8c4b21a8e1aea2aa021002",
    ),
    (
        dict(protocol="two-choices", n=2_000, topology="random-regular",
             topology_params={"degree": 4, "graph_seed": 65}, model="continuous", seed=65, **BIAS_3),
        "ContinuousEngine",
        "ebff52709417952e5d0eae67832220604614b7e76e0175ca45cb5abf453c54b8",
    ),
    (
        dict(protocol="three-majority", n=2_000, topology="random-regular",
             topology_params={"degree": 6, "graph_seed": 66}, model="sequential", reps=3, seed=66,
             **BIAS_3),
        "SequentialEngine",
        "6388431a431fb1248a61e06300fc4b1ccf0fd60eed0de13350db2798e1db6cf6",
    ),
    (
        dict(protocol="undecided-state", n=2_000, topology="watts-strogatz",
             topology_params={"neighbors": 4, "rewire_probability": 0.1, "graph_seed": 67},
             model="sequential", seed=67, max_steps=20_000, **BIAS_3),
        "SequentialEngine",
        "8a31c8bb65f41f8fbb1f48dee91ae1bdf6a796f81429721545a07e27bfc354a2",
    ),
    (
        dict(protocol="two-choices", n=2_000, topology="watts-strogatz",
             topology_params={"neighbors": 3, "rewire_probability": 0.5, "graph_seed": 68},
             model="continuous", seed=68, **BIAS_3),
        "ContinuousEngine",
        "5dbb053cb2528b9bbc3b3439f77ccebb02c13515758099763b09bd39f4be1a9f",
    ),
    (
        dict(protocol="two-choices", n=2_000, topology="dynamic-ring",
             topology_params={"churn_rate": 0.05, "churn_seed": 69}, model="sequential", seed=69,
             max_steps=20_000, **BIAS_3),
        "SequentialEngine",
        "cfcabfb456873a2ea37d8da9615dbc64256b379cfaa070fbf75d880c676ce70c",
    ),
    (
        dict(protocol="three-majority", n=2_000, topology="random-regular",
             topology_params={"degree": 4, "graph_seed": 70}, model="sequential", seed=70,
             max_steps=20_000, faults=[{"name": "stubborn", "params": {"fraction": 0.05, "fault_seed": 70}}],
             **BIAS_3),
        "SequentialEngine",
        "b19c35b1fd611069b7a49a336a9dc8ff20fd90125cc534d2ceb2d16c3766065f",
    ),
    (
        dict(protocol="voter", n=1_000, topology="random-regular",
             topology_params={"degree": 4, "graph_seed": 71}, model="continuous", seed=71,
             max_time=10.0, faults=[{"name": "stubborn", "params": {"fraction": 0.05, "fault_seed": 71}}],
             **BIAS_3),
        "ContinuousEngine",
        "80eb7dd8302328a7de73c48012b6a7283cc21f97afd42144303b855f3a0822ef",
    ),
]


#: (spec fields, routed engine, sha256) shaped like the cold misses of
#: ``repro serve``: small ``K_n``, mostly sequential, on the per-tick
#: agent routes where dense write phases dominate a run.  One case per
#: footprint protocol, plus a two-replication budget hit, a continuous
#: run and a stubborn-faulted run.
MISS_PINS = [
    (
        dict(protocol="voter", n=120, model="sequential", seed=101, **_bias(2)),
        "SequentialEngine",
        "41925a3462257be3ccade70e2b00eb6c7b1ee7689f91caf1d4f69bfb91054c7b",
    ),
    (
        dict(protocol="two-choices", n=180, model="sequential", seed=102, **_bias(5)),
        "SequentialEngine",
        "8fa33adcccf486ca3503d78a9ed2a0cb3c94e2c8710de1a8e3ca61dfa952ad63",
    ),
    (
        dict(protocol="three-majority", n=420, model="sequential", seed=103, **_bias(8)),
        "SequentialEngine",
        "a45d3ec9822b9a15c59a81181bd20da16a184de87371fb185b625013c8116ca7",
    ),
    (
        dict(protocol="undecided-state", n=760, model="sequential", seed=104, **_bias(3)),
        "SequentialEngine",
        "9cb3c8e36ed362a89ef54dbdfb2e93e9398cb47b384b266f84109209b3ffb0ed",
    ),
    (
        dict(protocol="two-choices", n=2_000, model="sequential", seed=105, **_bias(6)),
        "SequentialEngine",
        "9f160a026d31a4e6edc825b0abe19a1d5e7f1c6a7c8f816a45b8fc90cb1c0bc4",
    ),
    (
        dict(protocol="voter", n=500, model="sequential", reps=2, seed=106, **_bias(4)),
        "SequentialEngine",
        "f4bf655f147b7f61cf641af0559cd987319091b1e1a68578236efe1cb7265176",
    ),
    (
        dict(protocol="undecided-state", n=1_300, model="continuous", seed=107, **_bias(7)),
        "ContinuousEngine",
        "60ece3eceea6140aef580cc121fbde7c6090050bf7c565e3a967fa890ca6813d",
    ),
    (
        dict(protocol="three-majority", n=300, model="sequential", seed=108,
             faults=[{"name": "stubborn", "params": {"fraction": 0.05, "fault_seed": 108}}], **_bias(3)),
        "SequentialEngine",
        "9635f5e8b1c3d0c9d39fb05cce352cbfdca0e4bfcbfa9e68bca252a9a511c6e2",
    ),
]


#: (engine, counts protocol, initial counts, batch_ticks, seed, run
#: options, sha256) for direct counts-engine runs with one and two
#: ticks per batch, the regime no spec reaches below the crossover.
SMALL_BATCH_PINS = [
    (
        CountsSequentialEngine, VoterSequentialCounts, [80, 40], 1, 81, dict(max_ticks=48_000),
        "bdf001f2fe7e5ca3da01b76d546f746e41f4adb194e471f7f3b5bd45a046a59b",
    ),
    (
        CountsContinuousEngine, UndecidedStateSequentialCounts, [150, 100, 50], 2, 82,
        dict(record_trace=True),
        "f76f08f1354a020e40474742e01e25fe8b2d07b5ffbb6c30cf5b4de3b218ff69",
    ),
]


def _digest(payload) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _case_id(case) -> str:
    fields = case[0]
    topology = fields.get("topology", "complete")
    prefix = "" if topology == "complete" else f"{topology}-"
    return f"{prefix}{fields['protocol']}-{fields['model']}-r{fields.get('reps', 1)}-s{fields['seed']}"


def test_pins_reach_every_counts_tick_route():
    assert {engine for _, engine, _ in PINS} == {
        "CountsSequentialEngine",
        "CountsContinuousEngine",
        "EnsembleCountsSequentialEngine",
        "EnsembleCountsContinuousEngine",
    }


def test_sync_pins_reach_both_round_routes():
    assert {engine for _, engine, _ in SYNC_PINS} == {"CountsEngine", "EnsembleCountsEngine"}


def test_agent_pins_reach_both_agent_tick_routes():
    assert {engine for _, engine, _ in AGENT_PINS} == {"SequentialEngine", "ContinuousEngine"}


def test_sparse_pins_cover_both_models_and_every_deck_topology():
    assert {fields["model"] for fields, _, _ in SPARSE_PINS} == {"sequential", "continuous"}
    assert {fields["topology"] for fields, _, _ in SPARSE_PINS} == {
        "torus", "ring", "random-regular", "watts-strogatz", "dynamic-ring"
    }
    assert any(fields.get("faults") for fields, _, _ in SPARSE_PINS)


def test_miss_pins_cover_every_footprint_protocol_on_kn():
    assert {fields["protocol"] for fields, _, _ in MISS_PINS} == {
        "voter", "two-choices", "three-majority", "undecided-state"
    }
    assert all(fields.get("topology", "complete") == "complete" for fields, _, _ in MISS_PINS)
    assert all(120 <= fields["n"] <= 2_000 for fields, _, _ in MISS_PINS)
    assert {fields["model"] for fields, _, _ in MISS_PINS} == {"sequential", "continuous"}
    assert any(fields.get("faults") for fields, _, _ in MISS_PINS)


@pytest.mark.parametrize(
    "case", PINS + AGENT_PINS + ASYNC_PINS + SYNC_PINS + SPARSE_PINS + MISS_PINS, ids=_case_id
)
def test_payload_hash_is_pinned(case):
    fields, engine, expected = case
    result = simulate(SimulationSpec(**fields))
    assert result.engine == engine
    payload = result.to_dict()
    payload.pop("elapsed_seconds")
    if fields.get("record_trace"):
        assert result.runs[0].trace is not None and len(result.runs[0].trace) >= 2
    assert _digest(payload) == expected


@pytest.mark.parametrize("case", SMALL_BATCH_PINS, ids=lambda case: f"{case[0].__name__}-b{case[3]}")
def test_small_batch_run_is_pinned(case):
    engine, protocol, counts, batch_ticks, seed, options, expected = case
    result = engine(protocol(), batch_ticks=batch_ticks).run(ColorConfiguration(counts), seed=seed, **options)
    payload = result.to_dict()
    if result.trace is not None:
        payload["trace"] = [[point.time, list(point.counts)] for point in result.trace.points]
    assert _digest(payload) == expected
