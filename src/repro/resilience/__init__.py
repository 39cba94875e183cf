"""Resilience layer: budgets, anytime-sound degradation, fault injection.

Three cooperating pieces turn the analysis engine into something that
can be trusted inside a larger system:

* :mod:`repro.resilience.budget` — cooperative effort budgets
  (:class:`Budget`, :func:`budget_scope`, :func:`checkpoint`) threaded
  through the frontier exploration, busy-window iteration and min-plus
  kernels;
* :mod:`repro.resilience.bounded` — :func:`bounded_delay`, which turns
  budget exhaustion into a sound over-approximate bound via a
  degradation ladder instead of a failure;
* :mod:`repro.resilience.chaos` — deterministic, seeded fault injection
  (``REPRO_CHAOS``) exercising worker crashes, hangs and cache
  corruption in tests and CI.
"""

from repro.errors import BudgetExhaustedError, WorkerError
from repro.resilience.bounded import (
    BoundedDelayResult,
    bounded_delay,
    bounded_delay_many,
)
from repro.resilience.budget import (
    Budget,
    BudgetMeter,
    budget_scope,
    checkpoint,
)
from repro.resilience import chaos

__all__ = [
    "Budget",
    "BudgetMeter",
    "BudgetExhaustedError",
    "BoundedDelayResult",
    "WorkerError",
    "bounded_delay",
    "bounded_delay_many",
    "budget_scope",
    "chaos",
    "checkpoint",
]
