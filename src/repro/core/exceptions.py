"""Exception hierarchy for the :mod:`repro` library.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still letting programming errors (``TypeError`` and friends) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """An invalid model or protocol configuration was supplied.

    Raised for things like negative node counts, opinion vectors that do
    not sum to ``n``, or schedule constants that produce empty phases.
    """


class TopologyError(ReproError):
    """A graph/topology operation was invalid (bad node id, empty graph...)."""


class ScheduleError(ConfigurationError):
    """A phase schedule was constructed with inconsistent segments."""


class ExperimentError(ReproError):
    """An experiment harness failure (unknown id, bad sweep grid...)."""
