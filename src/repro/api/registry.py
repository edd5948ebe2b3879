"""String-keyed factory registries behind the declarative API.

:func:`repro.api.simulate` turns a serializable
:class:`~repro.api.spec.SimulationSpec` into protocol / topology /
initial-condition / delay / stop objects.  The mapping from spec
*names* to *factories* lives here, in five registries that the
implementing modules populate at import time:

====================  =========================  ==========================
registry              registered by              example names
====================  =========================  ==========================
:data:`PROTOCOLS`     ``repro.protocols.*``      ``two-choices``, ``voter``
:data:`TOPOLOGIES`    ``repro.graphs.*``         ``complete``, ``ring``
:data:`INITIALS`      ``repro.workloads.initial``  ``two-colors``, ``balanced``
:data:`DELAYS`        ``repro.engine.delays``    ``exponential``, ``fixed``
:data:`STOPS`         ``repro.engine.base``      ``consensus``, ``near-consensus``
:data:`FAULTS`        ``repro.protocols.faults``  ``loss``, ``stubborn``
====================  =========================  ==========================

Each entry carries parameter metadata (:class:`ParamSpec`) so the CLI
can list, document and type-coerce ``key=value`` overrides, and so
:meth:`RegistryEntry.build` can reject unknown parameters with the
valid names in the error message.

This module is deliberately import-light (stdlib + exceptions only):
the registering modules import it at module level, so anything heavier
would recreate exactly the import cycles the registry exists to avoid.
Importing any part of :mod:`repro` populates every registry, because
``repro/__init__`` pulls in all the registering modules.

Protocols are special-cased (:class:`ProtocolEntry`): one protocol
*name* covers up to three interface realisations — a round-based
counts-exact class (``K_n`` only), an agent-level synchronous class
(any topology) and a tick-based sequential class (shared by the
sequential and continuous models) — and the runner picks the
realisation that :func:`repro.engine.dispatch.fastest_engine` can
route fastest for the requested (model, topology) pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.exceptions import ConfigurationError

__all__ = [
    "ParamSpec",
    "RegistryEntry",
    "ProtocolEntry",
    "Registry",
    "ProtocolRegistry",
    "PROTOCOLS",
    "TOPOLOGIES",
    "INITIALS",
    "DELAYS",
    "STOPS",
    "FAULTS",
    "register_protocol",
    "register_topology",
    "register_initial",
    "register_delay",
    "register_stop",
    "register_fault",
]

def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


_KINDS: Dict[str, Callable[[str], Any]] = {
    "int": int,
    "float": float,
    "str": str,
    "bool": _parse_bool,
}


@dataclass(frozen=True)
class ParamSpec:
    """Metadata for one factory parameter.

    ``kind`` names the scalar type (``int`` / ``float`` / ``str`` /
    ``bool``) used to coerce CLI-style string values; ``default`` is
    documentation only — defaults are owned by the factory signature,
    and :meth:`RegistryEntry.build` passes a parameter through only
    when the caller supplied it.
    """

    name: str
    kind: str = "float"
    default: Any = None
    required: bool = False
    doc: str = ""

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigurationError(
                f"unknown param kind {self.kind!r}; expected one of {sorted(_KINDS)}"
            )

    def coerce(self, value: Any) -> Any:
        """Coerce a CLI string into the declared kind (non-strings pass through)."""
        if not isinstance(value, str) or self.kind == "str":
            return value
        try:
            return _KINDS[self.kind](value)
        except ValueError as exc:
            raise ConfigurationError(
                f"parameter {self.name!r} expects {self.kind}, got {value!r}"
            ) from exc


def _validated_params(
    kind: str, name: str, params: Sequence[ParamSpec], overrides: Optional[Mapping]
) -> Dict[str, Any]:
    """Check *overrides* against the declared params and coerce values."""
    overrides = dict(overrides or {})
    by_name = {p.name: p for p in params}
    unknown = sorted(set(overrides) - set(by_name))
    if unknown:
        valid = ", ".join(sorted(by_name)) or "(none)"
        raise ConfigurationError(
            f"unknown parameter(s) {unknown} for {kind} {name!r}; valid: {valid}"
        )
    missing = sorted(p.name for p in params if p.required and p.name not in overrides)
    if missing:
        raise ConfigurationError(f"{kind} {name!r} requires parameter(s) {missing}")
    return {key: by_name[key].coerce(value) for key, value in overrides.items()}


@dataclass(frozen=True)
class RegistryEntry:
    """One named factory plus its parameter metadata."""

    kind: str
    name: str
    factory: Callable
    params: Tuple[ParamSpec, ...] = ()
    description: str = ""

    def build(self, overrides: Optional[Mapping] = None, *args) -> Any:
        """Call the factory with positional *args* + validated *overrides*."""
        return self.factory(*args, **_validated_params(self.kind, self.name, self.params, overrides))


class Registry:
    """Name → :class:`RegistryEntry` map with decorator registration."""

    def __init__(self, kind: str):
        self.kind = kind
        self._entries: Dict[str, RegistryEntry] = {}

    def register(
        self,
        name: str,
        factory: Optional[Callable] = None,
        *,
        params: Sequence[ParamSpec] = (),
        description: str = "",
    ):
        """Register *factory* under *name*; usable as a decorator."""

        def _register(fn: Callable) -> Callable:
            if name in self._entries:
                raise ConfigurationError(f"duplicate {self.kind} registration: {name!r}")
            self._entries[name] = RegistryEntry(
                kind=self.kind,
                name=name,
                factory=fn,
                params=tuple(params),
                description=description or _first_doc_line(fn),
            )
            return fn

        if factory is None:
            return _register
        return _register(factory)

    def get(self, name: str) -> RegistryEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown {self.kind} {name!r}; registered: {', '.join(self.names())}"
            ) from None

    def names(self) -> List[str]:
        return sorted(self._entries)

    def build(self, name: str, overrides: Optional[Mapping] = None, *args) -> Any:
        """Build ``name`` with positional *args* and keyword *overrides*."""
        return self.get(name).build(overrides, *args)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __iter__(self):
        return iter(self.names())


@dataclass(frozen=True)
class ProtocolEntry:
    """One protocol name covering up to three interface realisations.

    ``counts`` / ``synchronous`` serve the synchronous model (counts is
    the ``K_n``-exact fast form, synchronous the agent-level fallback
    for other topologies); ``sequential`` serves both asynchronous
    models (the dispatcher upgrades it to a counts tick engine on
    ``K_n`` via ``as_sequential_counts`` once ``n * reps`` reaches the
    counts crossover).  All realisations share one
    parameter list — they are the same protocol under different
    machines.
    """

    name: str
    counts: Optional[Callable] = None
    synchronous: Optional[Callable] = None
    sequential: Optional[Callable] = None
    params: Tuple[ParamSpec, ...] = ()
    description: str = ""

    def models(self) -> List[str]:
        """Execution models this protocol can run under."""
        out = []
        if self.counts is not None or self.synchronous is not None:
            out.append("synchronous")
        if self.sequential is not None:
            out.extend(["sequential", "continuous"])
        return out

    def factory_for(self, model: str, on_complete: bool = True) -> Callable:
        """The realisation the dispatcher routes fastest for *model*."""
        if model == "synchronous":
            if on_complete and self.counts is not None:
                return self.counts
            if self.synchronous is not None:
                return self.synchronous
            if self.counts is not None:  # counts-only protocols need K_n
                return self.counts
        elif model in ("sequential", "continuous"):
            if self.sequential is not None:
                return self.sequential
        else:
            raise ConfigurationError(
                f"unknown model {model!r}; expected 'sequential', 'continuous' or 'synchronous'"
            )
        raise ConfigurationError(
            f"protocol {self.name!r} does not implement the {model} model "
            f"(supported: {', '.join(self.models())})"
        )

    def build(self, model: str, overrides: Optional[Mapping] = None, on_complete: bool = True):
        factory = self.factory_for(model, on_complete=on_complete)
        return factory(**_validated_params("protocol", self.name, self.params, overrides))


class ProtocolRegistry:
    """Name → :class:`ProtocolEntry` map."""

    kind = "protocol"

    def __init__(self):
        self._entries: Dict[str, ProtocolEntry] = {}

    def register(
        self,
        name: str,
        *,
        counts: Optional[Callable] = None,
        synchronous: Optional[Callable] = None,
        sequential: Optional[Callable] = None,
        params: Sequence[ParamSpec] = (),
        description: str = "",
    ) -> ProtocolEntry:
        if name in self._entries:
            raise ConfigurationError(f"duplicate protocol registration: {name!r}")
        if counts is None and synchronous is None and sequential is None:
            raise ConfigurationError(f"protocol {name!r} registered without any realisation")
        entry = ProtocolEntry(
            name=name,
            counts=counts,
            synchronous=synchronous,
            sequential=sequential,
            params=tuple(params),
            description=description,
        )
        self._entries[name] = entry
        return entry

    def get(self, name: str) -> ProtocolEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown protocol {name!r}; registered: {', '.join(self.names())}"
            ) from None

    def names(self) -> List[str]:
        return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __iter__(self):
        return iter(self.names())


def _first_doc_line(fn: Callable) -> str:
    doc = (fn.__doc__ or "").strip()
    return doc.splitlines()[0] if doc else ""


PROTOCOLS = ProtocolRegistry()
TOPOLOGIES = Registry("topology")
INITIALS = Registry("initial condition")
DELAYS = Registry("delay model")
STOPS = Registry("stop condition")
#: Fault wrappers (:mod:`repro.protocols.faults`): factories that take
#: the protocol to wrap as their one positional argument and return the
#: wrapped protocol, so a ``SimulationSpec.faults`` chain composes
#: inner-to-outer through :meth:`Registry.build`.
FAULTS = Registry("fault wrapper")

#: Module-level aliases so registering modules read naturally.
register_protocol = PROTOCOLS.register
register_topology = TOPOLOGIES.register
register_initial = INITIALS.register
register_delay = DELAYS.register
register_stop = STOPS.register
register_fault = FAULTS.register
