"""Byte-level pins of seeded ``K_n`` payloads on the tick routes.

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
one ``max_steps`` budget hit.  A refactor of a tick loop, a transition
hook or the RNG call sequence that changes any value shows up here as
a hash mismatch.

Continuous specs that run into their ``max_time`` budget are left out
on purpose: the budget cut (see :mod:`repro.engine.counts_async`)
decides their final batch with extra draws.
"""

import hashlib
import json

import pytest

from repro.api import SimulationSpec, simulate

BIAS_3 = {"initial": "multiplicative-bias", "initial_params": {"k": 3, "ratio": 1.5}}

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


def _digest(payload) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _case_id(case) -> str:
    fields = case[0]
    return f"{fields['protocol']}-{fields['model']}-r{fields.get('reps', 1)}-s{fields['seed']}"


def test_pins_reach_every_counts_tick_route():
    assert {engine for _, engine, _ in PINS} == {
        "CountsSequentialEngine",
        "CountsContinuousEngine",
        "EnsembleCountsSequentialEngine",
        "EnsembleCountsContinuousEngine",
    }


def test_agent_pins_reach_both_agent_tick_routes():
    assert {engine for _, engine, _ in AGENT_PINS} == {"SequentialEngine", "ContinuousEngine"}


@pytest.mark.parametrize("case", PINS + AGENT_PINS, ids=_case_id)
def test_payload_hash_is_pinned(case):
    fields, engine, expected = case
    result = simulate(SimulationSpec(**fields))
    assert result.engine == engine
    payload = result.to_dict()
    payload.pop("elapsed_seconds")
    if fields.get("record_trace"):
        assert result.runs[0].trace is not None and len(result.runs[0].trace) >= 2
    assert _digest(payload) == expected
