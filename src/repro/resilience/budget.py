"""Cooperative analysis budgets: bounded effort with a sound way out.

The frontier exploration at the heart of the structural analyses is
input-dependent and can blow up (high utilization stretches the busy
window; dense graphs multiply tuples).  A :class:`Budget` puts a hard
lid on that effort — a wall-clock *deadline*, a *max_expansions* cap on
cooperative work units, and a *max_segments* parameter for the degraded
approximation — without ever compromising soundness: code on the hot
paths calls :func:`checkpoint` at natural work boundaries, and when the
active budget is exhausted a typed
:class:`~repro.errors.BudgetExhaustedError` unwinds the analysis.
:func:`repro.resilience.bounded.bounded_delay` catches it and walks a
degradation ladder to a sound over-approximate bound.

Design constraints:

* **Near-zero disabled cost.**  With no active budget, :func:`checkpoint`
  is one global read and one ``is None`` test.  The benchmark gate
  (``benchmarks/bench_resilience.py``) asserts the disabled overhead of
  all checkpoints in an analysis sweep stays below 2% of its runtime.
* **Cheap enabled cost.**  The deadline is checked against
  ``time.monotonic()`` only every :data:`CLOCK_STRIDE` charged units, so
  enabling a budget does not add a syscall per frontier pop.
* **Resumable exhaustion.**  The exploration state of
  :class:`repro.drt.request.FrontierExplorer` survives a mid-loop unwind
  (its heap and per-vertex frontiers are instance state), so a later
  attempt resumes where the budget ran out instead of restarting, and
  the k-segment rung of the degradation ladder reads the staircase
  explored so far.

Budgets are *specifications*; the consumable state lives in a
:class:`BudgetMeter` created per analysis attempt (one :class:`Budget`
can be reused across many calls).  Meters install via
:func:`budget_scope` and nest: the innermost meter is charged, and
charges propagate outward so an enclosing budget also counts work done
under an inner one.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.errors import BudgetExhaustedError

__all__ = [
    "Budget",
    "BudgetMeter",
    "budget_scope",
    "checkpoint",
    "CLOCK_STRIDE",
]

#: Charged units between wall-clock reads (deadline check granularity).
CLOCK_STRIDE = 64


@dataclass(frozen=True)
class Budget:
    """Bounded-effort specification for one analysis.

    Attributes:
        deadline: Wall-clock allowance in seconds (None = unlimited).
        max_expansions: Cap on cooperative work units — frontier tuple
            expansions plus amortised kernel/pseudo-inverse charges
            (None = unlimited).
        max_segments: Segment budget of the degraded request-bound
            approximation (the ``k`` of
            :func:`repro.minplus.approximation.upper_approximation`);
            ``None`` uses :data:`DEFAULT_MAX_SEGMENTS`.
    """

    deadline: Optional[float] = None
    max_expansions: Optional[int] = None
    max_segments: Optional[int] = None

    def __post_init__(self) -> None:
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("budget deadline must be positive")
        if self.max_expansions is not None and self.max_expansions < 0:
            raise ValueError("budget max_expansions must be >= 0")
        if self.max_segments is not None and self.max_segments < 2:
            raise ValueError("budget max_segments must be >= 2")

    def start(self) -> "BudgetMeter":
        """A fresh consumable meter for this specification."""
        return BudgetMeter(self)

    @classmethod
    def from_request(
        cls,
        deadline_ms: Optional[float] = None,
        max_expansions: Optional[int] = None,
        max_segments: Optional[int] = None,
    ) -> Optional["Budget"]:
        """A budget from wire-level request fields, or None.

        The analysis service expresses deadlines in milliseconds (the
        natural unit of a latency SLO); this is the one conversion point
        onto the engine's seconds-based :class:`Budget`.  Returns None
        when every field is absent, so callers can pass the result
        straight to ``budget=`` parameters.

        Raises:
            ValueError: on non-positive deadlines or negative caps, with
                the same messages as the :class:`Budget` constructor.
        """
        if deadline_ms is None and max_expansions is None and max_segments is None:
            return None
        return cls(
            deadline=None if deadline_ms is None else float(deadline_ms) / 1000.0,
            max_expansions=max_expansions,
            max_segments=max_segments,
        )

    def tightened(
        self,
        deadline: Optional[float] = None,
        max_expansions: Optional[int] = None,
    ) -> "Budget":
        """A budget at least as strict as this one.

        Each given field is min-combined with the existing value (an
        unlimited field adopts the new cap outright).  The service's
        load shedder uses this to force overload requests onto the fast
        degraded rungs without ever *loosening* what the client asked
        for.
        """

        def _combine(mine, new):
            if new is None:
                return mine
            return new if mine is None else min(mine, new)

        return Budget(
            deadline=_combine(self.deadline, deadline),
            max_expansions=_combine(self.max_expansions, max_expansions),
            max_segments=self.max_segments,
        )


#: Default segment budget of the degraded approximation ladder rung.
DEFAULT_MAX_SEGMENTS = 32


class BudgetMeter:
    """Consumable runtime state of one :class:`Budget`.

    The meter survives across ladder rungs of one bounded analysis: a
    rung that exhausts the expansion allowance leaves ``remaining()``
    honest for the next rung's slack test.
    """

    __slots__ = ("budget", "_deadline_at", "_remaining", "_until_clock")

    def __init__(self, budget: Budget) -> None:
        self.budget = budget
        self._deadline_at = (
            None
            if budget.deadline is None
            else time.monotonic() + budget.deadline
        )
        self._remaining = budget.max_expansions
        self._until_clock = CLOCK_STRIDE

    # -- accounting ------------------------------------------------------

    def charge(self, n: int = 1) -> None:
        """Consume *n* work units; raise when the budget is exhausted.

        Raises:
            BudgetExhaustedError: when the expansion allowance drops
                below zero or the wall-clock deadline has passed.
        """
        if self._remaining is not None:
            self._remaining -= n
            if self._remaining < 0:
                self._remaining = 0
                raise BudgetExhaustedError(
                    f"analysis budget exhausted: more than "
                    f"{self.budget.max_expansions} work units expanded",
                    reason="max_expansions",
                )
        if self._deadline_at is not None:
            self._until_clock -= n
            if self._until_clock <= 0:
                self._until_clock = CLOCK_STRIDE
                self._check_deadline()

    def _check_deadline(self) -> None:
        if (
            self._deadline_at is not None
            and time.monotonic() >= self._deadline_at
        ):
            raise BudgetExhaustedError(
                f"analysis budget exhausted: deadline of "
                f"{self.budget.deadline}s passed",
                reason="deadline",
            )

    # -- slack queries (for the degradation ladder) ----------------------

    def remaining_expansions(self) -> Optional[int]:
        """Unused expansion allowance (None = unlimited)."""
        return self._remaining

    def remaining_seconds(self) -> Optional[float]:
        """Unused wall-clock allowance in seconds (None = unlimited)."""
        if self._deadline_at is None:
            return None
        return self._deadline_at - time.monotonic()

    def has_slack(self) -> bool:
        """True iff another cooperative attempt could make progress."""
        if self._remaining is not None and self._remaining <= 0:
            return False
        secs = self.remaining_seconds()
        return secs is None or secs > 0

    def max_segments(self) -> int:
        """The degraded approximation's segment budget."""
        k = self.budget.max_segments
        return DEFAULT_MAX_SEGMENTS if k is None else k


# ----------------------------------------------------------------------
# The active-meter stack and the hot-path checkpoint
# ----------------------------------------------------------------------

#: Innermost active meter (hot-path fast path: one read, one None test).
_active: Optional[BudgetMeter] = None
#: Enclosing meters, outermost first (charges propagate to all of them).
_stack: List[BudgetMeter] = []


@contextmanager
def budget_scope(budget) -> Iterator[Optional[BudgetMeter]]:
    """Install *budget* for the enclosed block.

    Accepts a :class:`Budget` (a fresh meter is started), an existing
    :class:`BudgetMeter` (resumed — the degradation ladder's rungs share
    one meter), or ``None`` (no-op scope).  Scopes nest; work done under
    an inner scope also charges the enclosing meters.
    """
    global _active
    if budget is None:
        yield None
        return
    meter = budget.start() if isinstance(budget, Budget) else budget
    _stack.append(meter)
    prev = _active
    _active = meter
    try:
        yield meter
    finally:
        _stack.pop()
        _active = prev


def checkpoint(n: int = 1) -> None:
    """Cooperative budget checkpoint (hot-path safe).

    Called from the engine's work loops — frontier expansions,
    busy-window rounds, batched kernel sweeps — with *n* proportional to
    the work since the last call.  No-op unless a budget scope is
    active.

    Raises:
        BudgetExhaustedError: when the active budget is exhausted.
    """
    meter = _active
    if meter is None:
        return
    if len(_stack) == 1:
        meter.charge(n)
        return
    for m in _stack:
        m.charge(n)
