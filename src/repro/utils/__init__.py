"""Shared utilities: deterministic RNG handling and timers."""

from .rng import as_rng, spawn_rngs
from .timing import Timer, StepTimes

__all__ = [
    "as_rng",
    "spawn_rngs",
    "Timer",
    "StepTimes",
]
