"""Search orchestration: the annealing driver every SA chain runs on.

:mod:`repro.search.tempering` steps a search's chains in segments on
the resilient worker pool — a parallel-tempering ladder whose rungs
exchange configurations, or independent restarts (a ladder that never
exchanges).
"""

from __future__ import annotations

from repro.search.tempering import (
    ExchangeRecord,
    TemperingOutcome,
    TemperingPlan,
    run_tempering,
)

__all__ = [
    "ExchangeRecord",
    "TemperingOutcome",
    "TemperingPlan",
    "run_tempering",
]
