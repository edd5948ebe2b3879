"""The declarative simulation spec.

A :class:`SimulationSpec` is the serializable answer to "run protocol P
on topology G under execution model M, R times, and summarize
convergence" — the one shape every experiment in the paper instantiates.
It is plain data: names into the registries of
:mod:`repro.api.registry` plus parameter dicts, with a loss-free
``to_dict`` / ``from_dict`` round trip so specs can be stored next to
results, shipped over a wire, or built from CLI flags.  Validation
against the registries happens when the spec is *run*
(:func:`repro.api.simulate`), not when it is built, so specs can be
constructed and serialized without importing any simulation code.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, Mapping, Optional, Tuple

from ..core.exceptions import ConfigurationError

__all__ = ["SimulationSpec"]


def _normalize_fault(entry: Mapping[str, Any]) -> Dict[str, Any]:
    """Canonical ``{"name": str, "params": dict}`` form of a fault entry."""
    if isinstance(entry, str):
        entry = {"name": entry}
    try:
        entry = dict(entry)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"fault entries must be mappings with a 'name' key, got {entry!r}"
        ) from None
    unknown = sorted(set(entry) - {"name", "params"})
    if unknown:
        raise ConfigurationError(f"unknown fault entry key(s) {unknown}; expected 'name'/'params'")
    name = entry.get("name")
    if not isinstance(name, str) or not name:
        raise ConfigurationError(f"fault entries need a non-empty string 'name', got {name!r}")
    return {"name": name, "params": dict(entry.get("params") or {})}


@dataclass(frozen=True)
class SimulationSpec:
    """Everything needed to reproduce one replicated simulation.

    Attributes
    ----------
    protocol / protocol_params:
        Registry name of the protocol (e.g. ``"two-choices"``) and
        constructor overrides (e.g. ``{"bp_rounds": 12}``).
    n:
        Number of nodes; the topology and initial-condition factories
        both receive it.
    topology / topology_params:
        Registry name of the topology (default the paper's ``K_n``) and
        factory overrides (e.g. ``{"degree": 8}`` for ``random-regular``).
    model:
        Execution model: ``"sequential"`` (tick-based asynchronous, the
        default), ``"continuous"`` (Poisson clocks) or ``"synchronous"``
        (round-based).
    delay / delay_params:
        Optional response-delay model name for the continuous model
        (``None`` means instantaneous responses, the paper's base model).
    initial / initial_params:
        Registry name of the initial-condition generator (default the
        60/40 benchmark split) and its parameters (e.g. ``{"k": 8,
        "z": 1.0}`` for ``theorem-1-1-gap``).
    stop / stop_params:
        Stop-criterion name (default full consensus).
    faults:
        Optional chain of fault-wrapper applications, each a
        ``{"name": ..., "params": {...}}`` mapping into the
        :data:`~repro.api.registry.FAULTS` registry (e.g. ``({"name":
        "stubborn", "params": {"fraction": 0.05}},)``).  Wrappers are
        applied first-entry-innermost around the resolved protocol.
        Fault wrappers wrap the tick interface, so faults require an
        asynchronous model (``sequential`` or ``continuous``).
    reps:
        Independent replications.  ``reps == 1`` runs the engine
        directly with *seed* (value-for-value what hand-wiring
        ``fastest_engine(...).run(..., seed=seed)`` produces);
        ``reps > 1`` routes through
        :func:`repro.engine.ensemble.run_replicated` under the PR-2
        seeding contract.
    seed:
        Master seed (``None`` for fresh OS entropy — use an int for
        reproducible specs).
    max_steps:
        Optional step budget in the model's native unit: synchronous
        rounds or sequential ticks.  Rejected for the continuous model
        (its budget is wall-clock time).
    max_time:
        Optional continuous-time budget; continuous model only.
    record_trace / trace_every:
        Record a counts trace every *trace_every* native time units
        (rounds for the synchronous model, parallel time otherwise).
        Only valid with ``reps == 1`` — the ensemble engines do not
        trace.
    """

    protocol: str
    n: int
    protocol_params: Dict[str, Any] = field(default_factory=dict)
    topology: str = "complete"
    topology_params: Dict[str, Any] = field(default_factory=dict)
    model: str = "sequential"
    delay: Optional[str] = None
    delay_params: Dict[str, Any] = field(default_factory=dict)
    initial: str = "benchmark-split"
    initial_params: Dict[str, Any] = field(default_factory=dict)
    stop: str = "consensus"
    stop_params: Dict[str, Any] = field(default_factory=dict)
    faults: Tuple[Dict[str, Any], ...] = ()
    reps: int = 1
    seed: Optional[int] = None
    max_steps: Optional[int] = None
    max_time: Optional[float] = None
    record_trace: bool = False
    trace_every: Optional[float] = None

    def __post_init__(self):
        # Normalise the param mappings to plain dicts so equality,
        # serialization and hashing-by-content behave predictably.
        for name in ("protocol_params", "topology_params", "delay_params", "initial_params", "stop_params"):
            object.__setattr__(self, name, dict(getattr(self, name) or {}))
        object.__setattr__(
            self, "faults", tuple(_normalize_fault(entry) for entry in (self.faults or ()))
        )
        if self.n < 2:
            raise ConfigurationError(f"n must be at least 2, got {self.n}")
        if self.reps < 1:
            raise ConfigurationError(f"reps must be positive, got {self.reps}")
        if self.model not in ("sequential", "continuous", "synchronous"):
            raise ConfigurationError(
                f"unknown model {self.model!r}; expected 'sequential', 'continuous' or 'synchronous'"
            )
        if self.max_time is not None and self.model != "continuous":
            raise ConfigurationError("max_time only applies to the continuous model")
        if self.max_steps is not None and self.model == "continuous":
            raise ConfigurationError("the continuous model budgets time, not steps; use max_time")
        if self.record_trace and self.reps != 1:
            raise ConfigurationError("record_trace requires reps == 1 (ensemble engines do not trace)")
        if self.trace_every is not None:
            if not self.trace_every > 0:
                raise ConfigurationError(f"trace_every must be positive, got {self.trace_every}")
            if self.model == "synchronous" and self.trace_every < 1:
                raise ConfigurationError(
                    f"synchronous trace_every counts rounds and must be at least 1, got {self.trace_every}"
                )
        if self.seed is not None and not isinstance(self.seed, int):
            raise ConfigurationError(f"seed must be an int or None, got {type(self.seed).__name__}")
        if self.faults and self.model == "synchronous":
            raise ConfigurationError(
                "faults wrap the sequential tick interface; use the "
                "'sequential' or 'continuous' model"
            )

    def to_dict(self) -> Dict[str, Any]:
        """Loss-free JSON-ready form; inverse of :meth:`from_dict`.

        The ``faults`` key is emitted only when the chain is non-empty,
        so the serialized form — and therefore every
        :func:`~repro.api.cache.spec_key` content hash of a fault-free
        spec — is byte-identical to what it was before the field
        existed (cached campaign results stay valid).
        """
        payload = {
            "protocol": self.protocol,
            "protocol_params": dict(self.protocol_params),
            "n": self.n,
            "topology": self.topology,
            "topology_params": dict(self.topology_params),
            "model": self.model,
            "delay": self.delay,
            "delay_params": dict(self.delay_params),
            "initial": self.initial,
            "initial_params": dict(self.initial_params),
            "stop": self.stop,
            "stop_params": dict(self.stop_params),
            "reps": self.reps,
            "seed": self.seed,
            "max_steps": self.max_steps,
            "max_time": self.max_time,
            "record_trace": self.record_trace,
            "trace_every": self.trace_every,
        }
        if self.faults:
            payload["faults"] = [
                {"name": entry["name"], "params": dict(entry["params"])} for entry in self.faults
            ]
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SimulationSpec":
        """Rebuild a spec from :meth:`to_dict` output (identity round trip)."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigurationError(f"unknown SimulationSpec field(s): {unknown}")
        return cls(**dict(payload))

    def replace(self, **changes) -> "SimulationSpec":
        """A copy with *changes* applied (convenience for sweeps)."""
        import dataclasses

        return dataclasses.replace(self, **changes)
