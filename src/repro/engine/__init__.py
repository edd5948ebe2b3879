"""Execution engines: synchronous, counts-exact, sequential, continuous."""

from .base import (
    StopCondition,
    build_result,
    consensus_reached,
    near_consensus,
    plurality_fraction_at_least,
)
from .continuous import ContinuousEngine
from .counts import CountsEngine
from .counts_async import CountsContinuousEngine, CountsSequentialEngine
from .delays import DelayModel, ExponentialDelay, FixedDelay, NoDelay
from .dispatch import fastest_engine
from .ensemble import run_replicated
from .events import EventQueue
from .sequential import SequentialEngine
from .synchronous import SynchronousEngine

__all__ = [
    "StopCondition",
    "build_result",
    "consensus_reached",
    "near_consensus",
    "plurality_fraction_at_least",
    "ContinuousEngine",
    "CountsContinuousEngine",
    "CountsEngine",
    "CountsSequentialEngine",
    "DelayModel",
    "ExponentialDelay",
    "FixedDelay",
    "NoDelay",
    "run_replicated",
    "EventQueue",
    "SequentialEngine",
    "SynchronousEngine",
    "fastest_engine",
]
