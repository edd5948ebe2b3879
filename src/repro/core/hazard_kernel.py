"""Compiled kernels for the hazard-batched tick hot loop.

:func:`repro.core.hazard.apply_hazard_free` is the hot path of every
sparse-topology asynchronous run: evaluate a presampled tick block,
stamp first writers, apply the longest hazard-free prefix, repeat.  The
pure-numpy implementation is at its ceiling (~120-200 ns/tick — each
window costs a handful of full-array passes and the mixed start-up
phase re-evaluates short windows over and over).  A compiled kernel
collapses all of that into the loop the numpy machinery emulates: apply
the presampled ticks *one at a time, in C*, reading each tick's targets
from the live colour vector.  No hazard detection is needed at all —
the loop is genuinely sequential — so the kernel is **bit-identical**
to ``SequentialProtocol.seq_tick_batch_loop`` (and therefore to
``apply_hazard_free``, which is pinned against that loop) on the same
draws.  Switching kernels never changes results, only wall-clock time:
all RNG draws happen *before* the apply, in the same order, whichever
kernel applies them.

One compiled implementation is provided, and it is optional:

``c``
    ``_hazard_kernel.c`` compiled on demand with the system C compiler
    (``cc -O3 -shared -fPIC`` — no Python headers needed) into a cached
    shared library loaded through :mod:`ctypes`.  Available wherever a
    C toolchain is installed; zero Python dependencies.

Selection order (the capability probe used by
:func:`repro.engine.dispatch.fastest_engine` and the engines):

1. the ``REPRO_KERNEL`` environment variable — ``numpy`` (default),
   ``c`` or ``auto`` (c when it builds, else numpy);
2. a requested-but-unavailable compiled kernel *degrades to numpy with
   a warning* — the numpy path is always present and always exact, so
   a missing toolchain can never break a run;
3. per protocol: a kernel only engages for protocols that declare a
   ``tick_kernel`` rule id matching their
   :class:`~repro.protocols.base.TickFootprint`; everything else stays
   on the Python paths (the scalar list rule or the numpy hazard
   windows — see :mod:`repro.core.hazard`).

``python -m repro kernels`` prints the probe results and benchmarks
the available kernels; ``tests/test_hazard_kernel.py`` pins the
bit-exactness contract on adversarial graphs.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from .exceptions import ConfigurationError

__all__ = [
    "KERNEL_ENV",
    "KERNEL_NAMES",
    "RULE_IDS",
    "KernelUnavailable",
    "KernelProbe",
    "TickKernel",
    "available_kernels",
    "get_kernel",
    "active_kernel",
    "active_kernel_name",
    "kernel_for",
    "reset_active_kernel",
]

#: environment variable naming the kernel to run the tick loop with.
KERNEL_ENV = "REPRO_KERNEL"
#: override for the compiled-library cache directory.
CACHE_ENV = "REPRO_KERNEL_CACHE"
#: accepted ``REPRO_KERNEL`` values.
KERNEL_NAMES = ("numpy", "c", "auto")
#: probe order of ``auto``, fastest first.
_AUTO_ORDER = ("c",)

#: rule-name -> ABI rule id; must stay in sync with ``_hazard_kernel.c``.
RULE_IDS: Dict[str, int] = {
    "voter": 1,
    "two-choices": 2,
    "three-majority": 3,
    "undecided-state": 4,
}
#: samples per rule, cross-checked against the protocol's footprint so
#: a mismatched declaration fails the probe instead of corrupting state.
_RULE_SAMPLES: Dict[str, int] = {
    "voter": 1,
    "two-choices": 2,
    "three-majority": 3,
    "undecided-state": 1,
}

_C_SOURCE = Path(__file__).with_name("_hazard_kernel.c")
_C_ABI_VERSION = 1


class KernelUnavailable(RuntimeError):
    """A compiled kernel cannot be built or loaded in this environment."""


@dataclass(frozen=True)
class KernelProbe:
    """Availability of one kernel implementation."""

    name: str
    available: bool
    detail: str


class TickKernel:
    """A compiled implementation of the presampled per-tick apply loop.

    ``apply`` must be bit-identical to looping
    :meth:`~repro.protocols.base.SequentialProtocol.seq_tick` over the
    presampled draws — the contract every kernel is pinned against in
    ``tests/test_hazard_kernel.py``.
    """

    name = "abstract"

    def supports(self, protocol) -> bool:
        """True when this kernel compiles *protocol*'s tick rule.

        The protocol must name a known ``tick_kernel`` rule and its
        declared footprint must match the rule's sample count and be
        self-writing; anything else stays on the numpy path.
        """
        rule = getattr(protocol, "tick_kernel", None)
        if rule not in RULE_IDS:
            return False
        footprint = getattr(protocol, "tick_footprint", None)
        return (
            footprint is not None
            and footprint.writes_self_only
            and footprint.samples == _RULE_SAMPLES[rule]
        )

    def apply(self, protocol, state, nodes: np.ndarray, targets: np.ndarray) -> int:
        """Apply the presampled block to ``state.colors`` in place.

        Returns the hazard-cut count of the equivalent numpy call,
        which for a true sequential loop is always 0.
        """
        raise NotImplementedError


def _block_arrays(state, nodes: np.ndarray, targets: np.ndarray):
    """Validate/normalise one presampled block for a compiled loop."""
    colors = state.colors
    if colors.dtype != np.int64 or not colors.flags["C_CONTIGUOUS"]:
        raise KernelUnavailable("state.colors must be a contiguous int64 vector")
    nodes = np.ascontiguousarray(nodes, dtype=np.int64)
    targets = np.ascontiguousarray(targets, dtype=np.int64)
    if targets.ndim != 2 or targets.shape[0] != nodes.shape[0]:
        raise KernelUnavailable(
            f"targets must be (m, s) aligned with nodes, got {targets.shape}"
        )
    return colors, nodes, targets


class CTickKernel(TickKernel):
    """ctypes wrapper over the cached ``_hazard_kernel.c`` build."""

    name = "c"

    def __init__(self, fn, library_path: str):
        self._fn = fn
        self.library_path = library_path

    def apply(self, protocol, state, nodes: np.ndarray, targets: np.ndarray) -> int:
        colors, nodes, targets = _block_arrays(state, nodes, targets)
        wrote = self._fn(
            colors.ctypes.data,
            nodes.ctypes.data,
            targets.ctypes.data,
            nodes.shape[0],
            targets.shape[1],
            RULE_IDS[protocol.tick_kernel],
            state.k - 1,
        )
        if wrote < 0:
            raise KernelUnavailable(
                f"compiled rule rejected ({protocol.tick_kernel!r}, "
                f"s={targets.shape[1]}) — library/protocol mismatch"
            )
        return 0


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------
def _cache_dir() -> Path:
    override = os.environ.get(CACHE_ENV)
    if override:
        return Path(override)
    base = os.environ.get("XDG_CACHE_HOME") or (Path.home() / ".cache")
    return Path(base) / "repro" / "kernels"


def _find_compiler() -> str:
    candidates = [os.environ.get("CC"), "cc", "gcc", "clang"]
    for candidate in candidates:
        if candidate:
            path = shutil.which(candidate)
            if path:
                return path
    raise KernelUnavailable(
        "no C compiler on PATH (tried $CC, cc, gcc, clang); "
        "install a toolchain or use REPRO_KERNEL=numpy"
    )


def _build_c_library() -> Path:
    """Compile ``_hazard_kernel.c`` into the cache (content-addressed).

    The library name embeds a hash of the source and the ABI version,
    so editing the C file or bumping the ABI invalidates stale builds
    without any explicit cache management; concurrent builders race
    benignly through an atomic rename.
    """
    if not _C_SOURCE.exists():
        raise KernelUnavailable(f"kernel source missing: {_C_SOURCE}")
    source = _C_SOURCE.read_bytes()
    tag = hashlib.sha256(source + str(_C_ABI_VERSION).encode()).hexdigest()[:16]
    out = _cache_dir() / f"hazard_{tag}_{platform.machine()}.so"
    if out.exists():
        return out
    compiler = _find_compiler()
    out.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=out.parent, suffix=".so")
    os.close(fd)
    cmd = [compiler, "-O3", "-fPIC", "-shared", "-o", tmp_path, str(_C_SOURCE)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    except (OSError, subprocess.TimeoutExpired) as exc:
        os.unlink(tmp_path)
        raise KernelUnavailable(f"{compiler} could not run: {exc}") from exc
    if proc.returncode != 0:
        os.unlink(tmp_path)
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-5:]
        raise KernelUnavailable(
            f"{compiler} failed (exit {proc.returncode}): " + " | ".join(tail)
        )
    os.replace(tmp_path, out)
    return out


def _load_c_kernel() -> CTickKernel:
    path = _build_c_library()
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as exc:
        raise KernelUnavailable(f"cannot load {path}: {exc}") from exc
    try:
        abi = lib.repro_kernel_abi
        fn = lib.repro_tick_loop
    except AttributeError as exc:
        raise KernelUnavailable(f"{path} lacks the kernel entry points: {exc}") from exc
    abi.restype = ctypes.c_int64
    if abi() != _C_ABI_VERSION:
        raise KernelUnavailable(
            f"{path} has ABI {abi()}, expected {_C_ABI_VERSION} (stale cache?)"
        )
    fn.restype = ctypes.c_int64
    fn.argtypes = [
        ctypes.c_void_p,
        ctypes.c_void_p,
        ctypes.c_void_p,
        ctypes.c_int64,
        ctypes.c_int64,
        ctypes.c_int64,
        ctypes.c_int64,
    ]
    return CTickKernel(fn, str(path))


_BUILDERS = {"c": _load_c_kernel}

#: built kernels and remembered failures (both per process — a missing
#: toolchain does not get cheaper by re-probing every block).
_kernels: Dict[str, TickKernel] = {}
_failures: Dict[str, str] = {}


def get_kernel(name: Optional[str]) -> Optional[TickKernel]:
    """The kernel registered under *name* (built on first use).

    ``None``/``""``/``"numpy"`` return ``None`` — the numpy path.
    ``"auto"`` returns the first available compiled kernel (or ``None``
    when none builds).  An explicit compiled name raises
    :class:`KernelUnavailable` when it cannot be provided; use
    :func:`active_kernel` for the degrade-with-warning behaviour.
    """
    if name in (None, "", "numpy"):
        return None
    if name == "auto":
        for candidate in _AUTO_ORDER:
            try:
                return get_kernel(candidate)
            except KernelUnavailable:
                continue
        return None
    if name not in _BUILDERS:
        raise ConfigurationError(
            f"unknown kernel {name!r}; expected one of {KERNEL_NAMES}"
        )
    if name in _kernels:
        return _kernels[name]
    if name in _failures:
        raise KernelUnavailable(_failures[name])
    try:
        kernel = _BUILDERS[name]()
    except KernelUnavailable as exc:
        _failures[name] = str(exc)
        raise
    except Exception as exc:  # defensive: builders should raise KernelUnavailable
        _failures[name] = f"{type(exc).__name__}: {exc}"
        raise KernelUnavailable(_failures[name]) from exc
    _kernels[name] = kernel
    return kernel


def available_kernels() -> Dict[str, KernelProbe]:
    """Probe every kernel; ``numpy`` is always available."""
    probes = {
        "numpy": KernelProbe("numpy", True, "pure-numpy hazard batches (reference)")
    }
    for name in _BUILDERS:
        try:
            kernel = get_kernel(name)
            detail = kernel.library_path
            probes[name] = KernelProbe(name, True, detail)
        except KernelUnavailable as exc:
            probes[name] = KernelProbe(name, False, str(exc))
    return probes


_UNRESOLVED = object()
_active: object = _UNRESOLVED


def active_kernel() -> Optional[TickKernel]:
    """The process-wide kernel selected by ``REPRO_KERNEL``.

    Resolved once per process (see :func:`reset_active_kernel` for the
    test hook).  An unavailable explicit choice degrades to the numpy
    path with a :class:`RuntimeWarning` — loud, but never fatal.
    """
    global _active
    if _active is _UNRESOLVED:
        name = (os.environ.get(KERNEL_ENV) or "numpy").strip().lower()
        if name not in KERNEL_NAMES:
            raise ConfigurationError(
                f"{KERNEL_ENV}={name!r}: unknown kernel; expected one of {KERNEL_NAMES}"
            )
        try:
            _active = get_kernel(name)
        except KernelUnavailable as exc:
            warnings.warn(
                f"{KERNEL_ENV}={name} is unavailable here, falling back to the "
                f"numpy path: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
            _active = None
    return _active  # type: ignore[return-value]


def active_kernel_name() -> str:
    """Name of the resolved process-wide kernel (``"numpy"`` for none)."""
    kernel = active_kernel()
    return kernel.name if kernel is not None else "numpy"


def kernel_for(protocol) -> Optional[TickKernel]:
    """The active kernel, iff it compiles *protocol*'s tick rule.

    The per-block capability probe of the hazard path: returns ``None``
    (numpy) for footprint-less protocols, unknown rules, or when
    ``REPRO_KERNEL`` selects numpy.
    """
    kernel = active_kernel()
    if kernel is not None and kernel.supports(protocol):
        return kernel
    return None


def reset_active_kernel() -> None:
    """Forget the resolved ``REPRO_KERNEL`` choice (re-read the env).

    Test hook: lets a monkeypatched environment take effect without a
    fresh process.  Built kernels and remembered failures survive — only
    the *selection* is re-resolved.
    """
    global _active
    _active = _UNRESOLVED
