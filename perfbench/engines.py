"""In-process closed loop for the three ``simulate()`` workloads."""

from __future__ import annotations

import math
import statistics
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from checks import payload_problems, value
from ops import canonical, past_deadline
from reference import Reference
from tracing import Tracer, instrument

#: Engine classes ``fastest_engine`` can route to; ``engine.route.other``
#: catches any class a later routing change introduces.
ENGINE_CLASSES = (
    "CountsEngine", "EnsembleCountsEngine", "SynchronousEngine",
    "CountsSequentialEngine", "CountsContinuousEngine",
    "EnsembleCountsSequentialEngine", "EnsembleCountsContinuousEngine",
    "SequentialEngine", "ContinuousEngine",
    "SparseSequentialEngine", "SparseContinuousEngine",
)

#: Layers whose per-op self time the traced pass reports.
LAYERS = ("graphs.build", "protocols.build", "workloads.initial", "engine.dispatch",
          "api.resolve", "engine.run", "api.results")


@dataclass
class Op:
    index: int
    seconds: float
    payload: Optional[Dict[str, Any]]
    body_bytes: int
    error: Optional[str]


def activations(payload: Dict[str, Any]) -> int:
    """Simulated node activations: ticks, or ``n`` per synchronous round."""
    per_round = payload["spec"]["n"] if payload["spec"]["model"] == "synchronous" else 1
    return sum(run["rounds"] * per_round for run in payload["runs"])


def run_op(spec, index: int, tracer: Optional[Tracer] = None) -> Op:
    """One op: ``simulate(spec)``, ``to_dict()`` and canonical JSON, timed."""
    from repro.api import simulate

    start = time.perf_counter()
    try:
        if tracer is None:
            payload = simulate(spec).to_dict()
            body = canonical(payload)
        else:
            with tracer.span("op", op=index):
                result = simulate(spec)
                with tracer.span("api.results"):
                    payload = result.to_dict()
                    body = canonical(payload)
    except Exception as exc:  # noqa: BLE001 - a failing op is counted, not fatal
        return Op(index, time.perf_counter() - start, None, 0, f"{type(exc).__name__}: {exc}")
    return Op(index, time.perf_counter() - start, payload, len(body), None)


def closed_loop(specs: Sequence, deck: int, seconds: float, reference: Reference,
                pause: Optional[Callable[[], None]] = None, every: float = math.inf):
    """Run *specs* in order until *seconds* of op time pass, finishing the current deck.

    After each op, *reference* runs the units its op time makes due.
    Once at least *every* seconds of op time have passed since the last
    pause, ``pause()`` runs between two ops.  Both are off the clock.
    Returns ``(ops, timed seconds)``.
    """
    ops: List[Op] = []
    timed = since = 0.0
    for index, spec in enumerate(specs):
        if past_deadline(index, deck, timed, seconds):
            break
        ops.append(run_op(spec, index))
        timed += ops[-1].seconds
        since += ops[-1].seconds
        reference.pace(ops[-1].seconds)
        if pause is not None and since >= every:
            pause()
            since = 0.0
    return ops, timed


def problems(ops: Sequence[Op]) -> Dict[int, List[str]]:
    """Failed checks per op index (ops that pass are absent)."""
    out = {}
    for op in ops:
        found = [op.error] if op.error else payload_problems(op.payload)
        if found:
            out[op.index] = found
    return out


def repeat_sample(specs: Sequence, ops: Sequence[Op]) -> List[str]:
    """Re-run the first, middle and last completed op; each must reproduce its value."""
    from repro.api import simulate

    done = [op for op in ops if op.payload is not None]
    picks = {op.index: op for op in (done[:1] + done[len(done) // 2:][:1] + done[-1:])}
    return [f"op {index} did not repeat" for index, op in sorted(picks.items())
            if value(simulate(specs[index]).to_dict()) != value(op.payload)]


def end_to_end(ops: Sequence[Op], wall: float, failed: int, speed: float) -> Dict[str, Any]:
    """Rates over *wall* seconds of op time, at the nominal machine speed
    (divided by the reference *speed*)."""
    done = [op for op in ops if op.payload is not None]
    return {
        "ops_per_s": (len(ops) / wall / speed, "1/s", len(ops)),
        "ticks_per_s": (sum(activations(op.payload) for op in done) / wall / speed, "1/s", len(done)),
        "ok_frac": ((len(ops) - failed) / len(ops), "fraction", len(ops)),
    }


def per_layer(ops: Sequence[Op], tracer: Tracer, untraced_wall: float, traced_wall: float) -> Dict[str, Any]:
    """Layer metrics of traced *ops*; the walls time the same ops without
    and with tracing."""
    done = [op for op in ops if op.payload is not None]
    count = max(len(done), 1)
    selfs = tracer.self_times()
    op_time = tracer.total("op") or float("nan")
    metrics = {f"{layer}_ms": (selfs.get(layer, 0.0) * 1e3 / count, "ms") for layer in LAYERS}
    metrics["graphs.build_share"] = (selfs.get("graphs.build", 0.0) / op_time, "fraction")
    metrics["engine.run_share"] = (selfs.get("engine.run", 0.0) / op_time, "fraction")
    run_time = selfs.get("engine.run", 0.0)
    ticks = sum(activations(op.payload) for op in done)
    metrics["engine.ticks_per_run_s"] = (ticks / run_time if run_time else 0.0, "1/s")
    batches = [max(run["rounds"] / run["metadata"]["batch_ticks"] for run in op.payload["runs"])
               for op in done if all("batch_ticks" in run["metadata"] for run in op.payload["runs"])]
    metrics["engine.batches_per_op"] = (statistics.fmean(batches) if batches else 0.0, "count")
    metrics.update(route_shares(op.payload["engine"] for op in done))
    metrics.update(outcomes(op.payload for op in done))
    metrics["api.payload_bytes"] = (statistics.fmean(op.body_bytes for op in done) if done else 0.0, "bytes")
    metrics["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "fraction")
    return metrics


def route_shares(engines) -> Dict[str, Any]:
    counts = Counter(engines)
    total = max(sum(counts.values()), 1)
    shares = {f"engine.route.{name}": (counts.pop(name, 0) / total, "fraction") for name in ENGINE_CLASSES}
    shares["engine.route.other"] = (sum(counts.values()) / total, "fraction")
    return shares


def outcomes(payloads) -> Dict[str, Any]:
    runs = [run for payload in payloads for run in payload["runs"]]
    total = max(len(runs), 1)
    return {
        "engine.converged_frac": (sum(run["converged"] for run in runs) / total, "fraction"),
        "engine.plurality_frac": (sum(run["plurality_preserved"] for run in runs) / total, "fraction"),
    }


def traced_pass(specs: Sequence, deck: int, seconds: float):
    """Each op untraced, then again traced, until *seconds* pass (whole decks).

    Interleaving op by op puts both executions in the same machine-speed
    regime, so their time ratio measures the tracing overhead rather
    than CPU drift.  Returns ``(untraced ops, traced ops, tracer)``.
    """
    tracer = Tracer()
    untraced: List[Op] = []
    traced: List[Op] = []
    start = time.perf_counter()
    for index, spec in enumerate(specs):
        if past_deadline(index, deck, time.perf_counter() - start, seconds):
            break
        plain, spanned = run_pair(spec, index, tracer)
        untraced.append(plain)
        traced.append(spanned)
    return untraced, traced, tracer


def run_pair(spec, index: int, tracer: Tracer):
    """``(untraced op, traced op)``: *spec* run twice, the second time under *tracer*."""
    plain = run_op(spec, index)
    with instrument(tracer):
        return plain, run_op(spec, index, tracer)
