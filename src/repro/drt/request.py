"""Request-bound machinery: path abstraction with domination pruning.

The *request bound function* ``rbf(Delta)`` of a DRT task is the maximum
total WCET any behaviour can release inside a closed time window of length
``Delta``.  Computing it by enumerating paths is exponential; the path
abstraction of Stigge et al. keeps, per end vertex, only the Pareto
frontier of *request tuples* ``(t, w)`` — "some path ends with a job
released at time ``t`` having released total work ``w``" — pruning every
tuple dominated by an earlier-and-heavier one.  The same frontier is the
raw material of the structural delay analysis in :mod:`repro.core.delay`,
which is what makes that analysis strictly more precise than the
arrival-curve abstraction: it never mixes ``t`` from one path with ``w``
from another.

Exploration is *incremental*: a :class:`FrontierExplorer` keeps its heap,
its per-vertex frontiers and the successors deferred beyond the explored
horizon between calls, so ``extend_to(h2)`` after ``extend_to(h1)`` only
expands the tuples in ``(h1, h2]``.  Each task caches one shared explorer
(tasks are immutable), which every analysis layer — busy-window horizon
iteration, delay, backlog, EDF, multi-task aggregation — reuses instead
of re-exploring from scratch.  Queries truncated at any ``h`` below the
explored horizon are exact: exploration is best-first by release time, so
the frontier state restricted to ``time <= h`` coincides with a
from-scratch run at horizon ``h`` (evictions only ever happen among
equal-time tuples, which both runs process identically).

The engine runs on Python ints: times in units of ``1/S`` and works in
units of ``1/W`` (:meth:`~repro.drt.model.DRTTask.scales`), and a horizon
``h`` compares as ``t > floor(h * S)``, exact for integer ``t``.  Values
become Fractions only where they leave the engine: the
:class:`RequestTuple` list of :meth:`FrontierExplorer.tuples` and the
steps of :meth:`FrontierExplorer.rbf_curve`.  The analyses reduce the int
:meth:`FrontierExplorer.keys` and :meth:`FrontierExplorer.staircase`
against the service curve lowered to the same units
(:meth:`FrontierExplorer.lowered`) and convert only the winner.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import lcm
from typing import Dict, List, Optional, Tuple

from repro import perf
from repro._memo import process_memo
from repro._numeric import Q, NumLike, as_q, scaled_int
from repro.drt.model import DRTTask
from repro.errors import ModelError
from repro.resilience.budget import checkpoint
from repro.minplus.curve import Curve
from repro.minplus.lowering import IntService
from repro.minplus.segment import Segment

__all__ = [
    "RequestTuple",
    "FrontierExplorer",
    "frontier_explorer",
    "request_frontier",
    "rbf_curve",
    "rbf_value",
    "FrontierStats",
]

#: Sort key of a frontier tuple, ``(time, -work, vertex position,
#: vertex)`` in scaled ints: a total order equal to the stable sort by
#: ``(time, -work)`` over the frontiers in task vertex order.
Key = Tuple[int, int, int, str]

#: Service curves lowered per ``(beta, S, W)``.  An :class:`IntService`
#: is immutable and a ``Curve`` hashes and compares by content, so fresh
#: tasks with equal scales share one lowering.
_INT_SERVICES = process_memo("drt.int_service", 1024)


@dataclass(frozen=True)
class RequestTuple:
    """An abstract path prefix.

    Attributes:
        time: Earliest release time of the last job (path span).
        work: Total WCET released by the path, including the last job.
        vertex: End vertex of the abstracted paths.
    """

    time: Fraction
    work: Fraction
    vertex: str


@dataclass
class FrontierStats:
    """Exploration statistics (used by the pruning ablation experiment).

    The invariant ``expanded == kept + pruned`` holds at every horizon:
    a generated tuple is either on the frontier (*kept*) or was discarded
    (*pruned*) — at the pre-push domination check, at the pop check, or by
    a later eviction from :meth:`_VertexFrontier.insert`.
    """

    expanded: int = 0
    kept: int = 0
    pruned: int = 0

    def add(self, other: "FrontierStats") -> None:
        """Accumulate *other* into this collector."""
        self.expanded += other.expanded
        self.kept += other.kept
        self.pruned += other.pruned


class _VertexFrontier:
    """Pareto frontier of scaled (time, work) tuples for one end vertex.

    Invariant: times strictly increasing and works strictly increasing —
    a tuple is kept only if no other tuple has smaller-or-equal time and
    greater-or-equal work.
    """

    __slots__ = ("times", "works")

    def __init__(self) -> None:
        self.times: List[int] = []
        self.works: List[int] = []

    def dominated(self, time: int, work: int) -> bool:
        """True iff (time, work) is dominated by a stored tuple."""
        # Find tuples with stored_time <= time; the best of them has the
        # largest work (works increase with times).
        idx = bisect_right(self.times, time) - 1
        return idx >= 0 and self.works[idx] >= work

    def insert(self, time: int, work: int) -> int:
        """Insert a non-dominated tuple; return how many it evicts."""
        idx = bisect_left(self.times, time)
        # Remove stored tuples dominated by the new one: time' >= time
        # and work' <= work.
        j = idx
        while j < len(self.times) and self.works[j] <= work:
            j += 1
        evicted = j - idx
        del self.times[idx:j]
        del self.works[idx:j]
        self.times.insert(idx, time)
        self.works.insert(idx, work)
        return evicted

    def keys(self, pos: int, vertex: str, lo: int, hi: int) -> List[Key]:
        """Sort keys of the tuples with scaled time in ``(lo, hi]``."""
        times, works = self.times, self.works
        i, j = bisect_right(times, lo), bisect_right(times, hi)
        return [(t, -w, pos, vertex) for t, w in zip(times[i:j], works[i:j])]

    def rescaled(self, ft: int, fw: int) -> "_VertexFrontier":
        """An independent copy with times times *ft*, works times *fw*
        (used when forking an explorer)."""
        out = _VertexFrontier()
        out.times = [t * ft for t in self.times]
        out.works = [w * fw for w in self.works]
        return out


class IntTask:
    """A task in the engine's ints: WCETs times ``W`` and edge
    separations times ``S`` by ``(src, dst)``, in edge order."""

    __slots__ = ("S", "W", "wcet", "sep")

    def __init__(self, task: DRTTask, S: int, W: int) -> None:
        self.S, self.W = S, W
        self.wcet = {v: scaled_int(j.wcet, W) for v, j in task.jobs.items()}
        self.sep = {(e.src, e.dst): scaled_int(e.separation, S) for e in task.edges}


def int_task(task: DRTTask) -> IntTask:
    """The task in its own scales (:meth:`~repro.drt.model.DRTTask.scales`),
    memoized on it: its explorers and the cycle-ratio search of
    :mod:`repro.drt.utilization` share one scaling to ints."""
    from repro.drt.digest import guard_cache

    cache = guard_cache(task)
    ints = cache.get("int_task")
    if ints is None:
        ints = cache["int_task"] = IntTask(task, *task.scales())
    return ints


class FrontierExplorer:
    """Resumable best-first exploration of a task's request tuples.

    The explorer owns the exploration state — heap, per-vertex Pareto
    frontiers, and successors deferred beyond the explored horizon — and
    extends it monotonically: :meth:`extend_to` expands exactly the tuples
    the requested horizon adds.  All query methods (:meth:`tuples`,
    :meth:`rbf_curve`, :meth:`stats_at`) accept any horizon at or below
    the explored one and answer exactly as a from-scratch run at that
    horizon would.

    A shared per-task instance is available via :func:`frontier_explorer`;
    unpruned explorations (the ablation) always use a private instance.

    Args:
        task: The structural workload (immutable after construction).
        prune: Apply Pareto domination pruning (default).  Disabling it
            keeps every distinct tuple — exponentially slower, for the
            pruning-ablation experiment only.
    """

    __slots__ = (
        "task",
        "prune",
        "_S",
        "_W",
        "_wcet",
        "_succ",
        "_frontiers",
        "_heap",
        "_deferred",
        "_tiebreak",
        "_explored",
        "_all",
        "_pop_times",
        "_popdom_times",
        "_evict_times",
        "_evict_counts",
        "_pushprune_times",
        "_pushprune_sorted",
        "_new_kept_since_query",
        "_sorted_hz",
        "_sorted",
        "_steps",
        "_stepped",
        "_fork_cone",
        "_fork_carried_hz",
        "_fork_carried",
    )

    def __init__(self, task: DRTTask, prune: bool = True) -> None:
        self._reset(task, prune, int_task(task))
        for v, wcet in self._wcet.items():
            heapq.heappush(self._heap, (0, self._tiebreak, wcet, v))
            self._tiebreak += 1

    def _reset(self, task: DRTTask, prune: bool, ints: IntTask) -> None:
        """Empty exploration state for *task* in the units of *ints*
        (multiples of the task's own scales)."""
        self.task = task
        self.prune = prune
        self._S, self._W = ints.S, ints.W
        self._wcet = wcet = ints.wcet
        # Per vertex ``(separation * S, wcet(dst) * W, dst)`` for every
        # outgoing edge in the task's edge order.
        self._succ: Dict[str, List[Tuple[int, int, str]]] = {v: [] for v in wcet}
        for (src, dst), sep in ints.sep.items():
            self._succ[src].append((sep, wcet[dst], dst))
        self._frontiers: Dict[str, _VertexFrontier] = {
            v: _VertexFrontier() for v in task.job_names
        }
        # Heap of (time, tiebreak, work, vertex); best-first by release
        # time so that domination checks see the strongest tuples early.
        self._heap: List[Tuple[int, int, int, str]] = []
        # Successors released beyond the explored horizon, waiting for a
        # later extend_to to reactivate them (same entry layout).
        self._deferred: List[Tuple[int, int, int, str]] = []
        self._tiebreak = 0
        self._explored: Optional[Q] = None
        # Unpruned mode keeps every popped tuple as a sort key whose
        # position slot is the pop index (pops are time-ordered).
        self._all: List[Key] = []
        # Event logs for exact truncated statistics; every list is
        # nondecreasing except _pushprune_times (sorted on demand).
        self._pop_times: List[int] = []
        self._popdom_times: List[int] = []
        self._evict_times: List[int] = []
        self._evict_counts: List[int] = []
        self._pushprune_times: List[int] = []
        self._pushprune_sorted = True
        self._new_kept_since_query = 0
        # Sorted-keys prefix cache: once explored past a horizon, every
        # tuple at or below it is final (pops are time-ordered and evict
        # only equal-time entries), so queries at smaller horizons slice
        # an exact prefix, and larger ones sort only the keys they add.
        self._sorted_hz: Optional[Q] = None
        self._sorted: List[Key] = []
        # The staircase (cumulative maximum) of the first ``_stepped``
        # sorted keys, extended as the prefix grows.
        self._steps: List[Tuple[int, int]] = []
        self._stepped = 0
        # Fork-carried sorted prefix (set by :meth:`fork`): the source
        # explorer's sorted keys restricted to carried vertices.  The
        # cone is forward-closed, so below the carried horizon the
        # non-cone frontiers are final and a merge with the cone's
        # (small) key set replaces the full re-sort.
        self._fork_cone: Optional[frozenset] = None
        self._fork_carried_hz: Optional[Q] = None
        self._fork_carried: List[Key] = []

    def _limit(self, hz: Fraction) -> int:
        """``floor(hz * S)``: a scaled time ``t`` lies at or below *hz*
        iff ``t <= floor(hz * S)``."""
        return hz.numerator * self._S // hz.denominator

    # -- exploration -----------------------------------------------------

    @property
    def units(self) -> Tuple[int, int]:
        """``(S, W)``: :meth:`keys` count time in ``1/S`` and work in
        ``1/W`` (a fork may count in multiples of its task's scales)."""
        return self._S, self._W

    @property
    def explored_horizon(self) -> Optional[Fraction]:
        """Largest horizon explored so far (None before the first call)."""
        return self._explored

    def extend_to(self, horizon: NumLike) -> None:
        """Ensure every request tuple with ``time <= horizon`` is explored.

        Re-entrant and monotone: horizons at or below the explored one
        return immediately; larger ones resume from the saved heap and the
        deferred successors instead of restarting.
        """
        hz = as_q(horizon)
        if hz < 0:
            raise ModelError("horizon must be non-negative")
        perf.record("frontier.extend_calls")
        if self._explored is not None and hz <= self._explored:
            perf.record("frontier.extend_noop")
            return
        limit = self._limit(hz)
        succ = self._succ
        prune = self.prune
        heap = self._heap
        deferred = self._deferred
        frontiers = self._frontiers
        # Event-log sizes before the sweep; counters are recorded once at
        # the end (per-tuple perf calls would dominate the hot loop).
        pops0 = len(self._pop_times)
        popdom0 = len(self._popdom_times)
        evicted0 = sum(self._evict_counts)
        pushprune0 = len(self._pushprune_times)
        # Reactivate deferred successors that the new horizon admits.
        while deferred and deferred[0][0] <= limit:
            heapq.heappush(heap, heapq.heappop(deferred))
        while heap:
            time, _, work, vertex = heap[0]
            if prune and frontiers[vertex].dominated(time, work):
                heapq.heappop(heap)
                self._pop_times.append(time)
                self._popdom_times.append(time)
                continue
            # Cooperative budget checkpoint: one charged unit per tuple
            # expansion (a pop the frontier dominates expands nothing).
            # A BudgetExhaustedError unwinding here, before the pop,
            # leaves the explorer resumable (``_explored`` is only
            # advanced on completion; the heap and frontiers keep
            # partial progress).
            checkpoint()
            heapq.heappop(heap)
            self._pop_times.append(time)
            if prune:
                front = frontiers[vertex]
                evicted = front.insert(time, work)
                if evicted:
                    # Evictions happen only among equal-time tuples (pops
                    # are time-ordered), so the event time is exact.
                    self._evict_times.append(time)
                    self._evict_counts.append(evicted)
                self._new_kept_since_query += 1 - evicted
            else:
                self._all.append((time, -work, len(self._all), vertex))
                self._new_kept_since_query += 1
            for sep, wcet, dst in succ[vertex]:
                t2 = time + sep
                w2 = work + wcet
                if t2 > limit:
                    heapq.heappush(deferred, (t2, self._tiebreak, w2, dst))
                    self._tiebreak += 1
                    continue
                if prune and frontiers[dst].dominated(t2, w2):
                    self._pushprune_times.append(t2)
                    self._pushprune_sorted = False
                    continue
                heapq.heappush(heap, (t2, self._tiebreak, w2, dst))
                self._tiebreak += 1
        self._explored = hz
        pops = len(self._pop_times) - pops0
        pushpruned = len(self._pushprune_times) - pushprune0
        pruned = (
            (len(self._popdom_times) - popdom0)
            + (sum(self._evict_counts) - evicted0)
            + pushpruned
        )
        perf.record("frontier.tuples_expanded", pops + pushpruned)
        perf.record("frontier.tuples_pruned", pruned)

    # -- forking ---------------------------------------------------------

    def fork(self, new_task: DRTTask, diff) -> "FrontierExplorer":
        """A new explorer for *new_task* carrying this one's exploration.

        *diff* is the :class:`~repro.drt.digest.StructuralDiff` taking
        this explorer's task to *new_task*.  Per-vertex frontiers and
        deferred successors whose generating paths end outside the
        diff's affected cone are valid in both models (no path reaching
        them traverses a touched vertex or edge), so they carry over
        verbatim; only the cone re-expands:

        * cone vertices restart from their time-0 origin tuples, and
        * every carried frontier tuple is re-extended along the new
          graph's edges into the cone (extensions of *dominated* tuples
          are themselves dominated, so extending only the Pareto-kept
          tuples is exhaustive).

        All seeds land in the deferred set with the explored horizon
        reset, so the forked explorer answers any horizon exactly as a
        from-scratch exploration of *new_task* would — frontier content
        is canonical (the set of non-dominated tuples per vertex), and
        the cone is forward-closed, so cone re-expansion never touches
        a carried frontier.  Only :meth:`stats_at` differs: a forked
        explorer's event log counts the *incremental* work, which is
        the quantity the what-if engine reports.

        An edit may change the scales (a fractional separation or
        WCET): the fork then counts in ``lcm`` units of both tasks and
        rescales the carried ints, which leaves every value unchanged.

        A mid-extension explorer (budget exhaustion left tuples on the
        heap) has no consistent carried state, and an unexplored one
        has nothing to carry; both fall back to a fresh explorer.
        """
        if not self.prune:
            raise ModelError("only pruned explorers can be forked")
        cone = set(diff.affected_cone)
        if self._explored is None or self._heap:
            return FrontierExplorer(new_task)
        missing = [
            v
            for v in new_task.job_names
            if v not in cone and v not in self._frontiers
        ]
        if missing:
            raise ModelError(
                f"diff marks {missing} as carried but the source explorer "
                "never had them (stale diff?)"
            )
        ints = int_task(new_task)
        S, W = lcm(self._S, ints.S), lcm(self._W, ints.W)
        if (S, W) != (ints.S, ints.W):
            ints = IntTask(new_task, S, W)
        ft, fw = S // self._S, W // self._W
        new = FrontierExplorer.__new__(FrontierExplorer)
        new._reset(new_task, True, ints)
        new._tiebreak = self._tiebreak
        # Frontiers in new_task.job_names order: queries number vertices
        # in this order, so query ordering (and critical-tuple
        # tie-breaking) matches a from-scratch explorer of new_task.
        new._frontiers = {
            v: (
                _VertexFrontier()
                if v in cone
                else self._frontiers[v].rescaled(ft, fw)
            )
            for v in new_task.job_names
        }
        # Carry the source's sorted-keys prefix, restricted to carried
        # vertices.  Sound because (a) below the source's sorted horizon
        # the carried frontiers are final — the forward-closed cone
        # re-expands only into itself, and every carried deferred entry
        # lies beyond the source's explored horizon — and (b) re-keying
        # with new-task positions keeps the filtered prefix sorted
        # whenever the carried vertex sequence is the same in both
        # models (the guard below).
        if self._sorted_hz is not None and tuple(
            v for v in self.task.job_names if v not in cone
        ) == tuple(v for v in new_task.job_names if v not in cone):
            pos = {v: k for k, v in enumerate(new_task.job_names)}
            new._fork_cone = frozenset(cone)
            new._fork_carried_hz = self._sorted_hz
            new._fork_carried = [
                (t * ft, nw * fw, pos[v], v)
                for t, nw, _, v in self._sorted
                if v not in cone
            ]
        # Carried beyond-horizon successors: their generating paths end
        # outside the cone (a push into vertex v comes from a pop at a
        # predecessor u; u in the cone would put v in the cone too).
        for t, tb, w, v in self._deferred:
            if v not in cone:
                new._deferred.append((t * ft, tb, w * fw, v))
        # Cone origin seeds.
        for v, wcet in new._wcet.items():
            if v in cone:
                new._deferred.append((0, new._tiebreak, wcet, v))
                new._tiebreak += 1
        # Carried-prefix crossings into the cone along new-graph edges.
        for u in new_task.job_names:
            if u in cone:
                continue
            front = new._frontiers[u]
            for sep, wcet, dst in new._succ[u]:
                if dst not in cone:
                    continue
                for t, w in zip(front.times, front.works):
                    new._deferred.append(
                        (t + sep, new._tiebreak, w + wcet, dst)
                    )
                    new._tiebreak += 1
        heapq.heapify(new._deferred)
        perf.record("frontier.forks")
        perf.record(
            "frontier.fork_carried_tuples",
            sum(
                len(f.times)
                for v, f in new._frontiers.items()
                if v not in cone
            ),
        )
        return new

    # -- queries ---------------------------------------------------------

    def keys(self, horizon: NumLike) -> List[Key]:
        """Explore to *horizon*; the int sort keys ``(t, -w, position,
        vertex)`` of :meth:`tuples`, in the same order (time ``t/S``,
        work ``w/W``).

        The sorted keys are cached as a prefix that only grows: a query
        at or below the cached horizon slices it, and a query past it
        sorts just the keys in between and appends them (time is the
        primary sort key, and tuples at or below the cached horizon are
        final).  Counts the query in ``frontier.tuples_served``/``_reused``.
        """
        hi = self._served(as_q(horizon))
        return self._sorted[:hi]

    def _served(self, hz: Fraction) -> int:
        """Explore to *hz*, extend the sorted prefix to it, and return
        how many of its keys lie at or below *hz*."""
        self.extend_to(hz)
        keys = self._sorted
        if self._sorted_hz is not None and hz <= self._sorted_hz:
            hi = bisect_left(keys, (self._limit(hz) + 1,))
            perf.record("frontier.tuples_sliced")
        else:
            lo = -1 if self._sorted_hz is None else self._limit(self._sorted_hz)
            keys += self._sorted_between(lo, hz)
            self._sorted_hz = hz
            hi = len(keys)
        reused = max(0, hi - self._new_kept_since_query)
        self._new_kept_since_query = 0
        perf.record("frontier.tuples_served", hi)
        perf.record("frontier.tuples_reused", reused)
        return hi

    def _sorted_between(self, lo: int, hz: Fraction) -> List[Key]:
        """The sort keys at scaled times above *lo* and at or below *hz*,
        sorted.  A forked explorer below the carried horizon sorts only
        the re-expanded cone's keys and merges in the carried ones."""
        hi = self._limit(hz)
        if not self.prune:
            found = self._all
            return sorted(
                found[bisect_left(found, (lo + 1,)) : bisect_left(found, (hi + 1,))]
            )
        fork = self._fork_carried_hz is not None and hz <= self._fork_carried_hz
        keys = sorted(
            k
            for pos, (v, f) in enumerate(self._frontiers.items())
            if not fork or v in self._fork_cone
            for k in f.keys(pos, v, lo, hi)
        )
        if fork:
            carried = self._fork_carried
            carried = carried[
                bisect_left(carried, (lo + 1,)) : bisect_left(carried, (hi + 1,))
            ]
            keys = list(heapq.merge(carried, keys))
            perf.record("frontier.tuples_fork_merged")
        return keys

    def request_tuple(self, key: Key) -> RequestTuple:
        """The request tuple of one sort *key*, as Fractions."""
        t, nw, _, v = key
        return RequestTuple(Fraction(t, self._S), Fraction(-nw, self._W), v)

    def tuples(self, horizon: NumLike) -> List[RequestTuple]:
        """All non-dominated request tuples with ``time <= horizon``.

        Extends the exploration if needed.  Returns tuples sorted by time
        (ties by work descending), Pareto-merged per vertex but *not*
        across vertices — the per-vertex structure is what downstream
        structural analysis needs.
        """
        return [self.request_tuple(key) for key in self.keys(horizon)]

    def lowered(self, beta: Curve) -> IntService:
        """*beta* lowered to this explorer's time and work units, shared
        through the ``drt.int_service`` memo."""
        key = (beta, self._S, self._W)
        low = _INT_SERVICES.get(key)
        if low is None:
            low = IntService(beta, self._S, self._W)
            _INT_SERVICES.put(key, low)
        return low

    def stats_at(self, horizon: NumLike) -> FrontierStats:
        """Exploration statistics truncated at *horizon*.

        Exactly the statistics a from-scratch exploration at *horizon*
        would report: exploration is best-first by time, so the event
        stream restricted to times at or below *horizon* is identical.
        """
        hz = as_q(horizon)
        self.extend_to(hz)
        limit = self._limit(hz)
        pops = bisect_right(self._pop_times, limit)
        popdom = bisect_right(self._popdom_times, limit)
        evict_events = bisect_right(self._evict_times, limit)
        evicted = sum(self._evict_counts[:evict_events])
        if not self._pushprune_sorted:
            self._pushprune_times.sort()
            self._pushprune_sorted = True
        pushpruned = bisect_right(self._pushprune_times, limit)
        return FrontierStats(
            expanded=pops + pushpruned,
            kept=pops - popdom - evicted,
            pruned=popdom + evicted + pushpruned,
        )

    def staircase(self, horizon: NumLike) -> List[Tuple[int, int]]:
        """The steps ``(t, w)`` of the request bound function strictly
        before *horizon*, in scaled ints: the cumulative maximum of work
        by time over :meth:`keys` (which put the heaviest tuple of each
        time first, so every time gets at most one step).  The maximum
        is cached with the sorted prefix and extended with it."""
        hz = as_q(horizon)
        self._served(hz)
        steps = self._steps
        best = steps[-1][1] if steps else 0
        for t, nw, _, _ in islice(self._sorted, self._stepped, None):
            if -nw > best:
                steps.append((t, -nw))
                best = -nw
        self._stepped = len(self._sorted)
        hi = bisect_left(steps, (self._limit(hz) + 1,))
        if not hi or steps[0][0] != 0:
            raise ModelError("request frontier must contain a tuple at time 0")
        # Only a step at exactly t / S == hz lies at but not before hz.
        if steps[hi - 1][0] * hz.denominator == hz.numerator * self._S:
            hi -= 1
        return steps[:hi]

    def rbf_curve(self, horizon: NumLike) -> Curve:
        """The request bound function as a finitary staircase curve.

        Exact on ``[0, horizon)`` with the tight affine tail of
        :func:`repro.drt.utilization.linear_request_bound` beyond — see
        :func:`rbf_curve` (module level) for the full contract.
        """
        hz = as_q(horizon)
        S, W = self._S, self._W
        segs = [
            Segment(Fraction(t, S), Fraction(w, W), Q(0))
            for t, w in self.staircase(hz)
        ]
        # Tight affine tail from the exact linear bound rbf(D) <= B + rho*D
        # (see repro.drt.utilization.linear_request_bound): sound for every
        # window length and exact in rate, which guarantees that busy-window
        # horizon iteration terminates whenever the service rate exceeds rho.
        # B + rho*hz >= rbf(hz) >= every exact step value, so the curve
        # stays nondecreasing across the tail joint.
        from repro.drt.utilization import linear_request_bound

        burst, rho = linear_request_bound(self.task)
        segs.append(Segment(hz, burst + rho * hz, rho))
        return Curve(segs)


def frontier_explorer(task: DRTTask) -> FrontierExplorer:
    """The task's shared (pruned) explorer, created on first use.

    Tasks are immutable after construction, so the exploration state
    normally never needs invalidation; it simply grows monotonically
    with the largest horizon any analysis has asked for.  Code that
    mutates a task in place anyway used to silently receive an explorer
    for the *old* definition; :func:`repro.drt.digest.guard_cache`
    detects the mutation via a structural fingerprint and drops the
    whole memo cache (explorer, digests, analysis contexts) so the next
    access rebuilds against the current definition.
    """
    from repro.drt.digest import guard_cache

    cache = guard_cache(task)
    ex = cache.get("frontier_explorer")
    if ex is None:
        ex = cache["frontier_explorer"] = FrontierExplorer(task, prune=True)
    return ex


def request_frontier(
    task: DRTTask,
    horizon: NumLike,
    prune: bool = True,
    stats: Optional[FrontierStats] = None,
) -> List[RequestTuple]:
    """All non-dominated request tuples with ``time <= horizon``.

    Served from the task's shared :class:`FrontierExplorer` (pruned mode),
    so repeated calls — busy-window iterations, the delay/backlog/EDF
    analyses, multi-task aggregation — reuse exploration state instead of
    restarting.  With ``prune=False`` a private explorer keeps every
    distinct tuple (used by the pruning ablation; exponentially slower).

    Args:
        task: The structural workload.
        horizon: Window bound; tuples beyond it are not expanded.
        prune: Apply Pareto domination pruning (default).
        stats: Optional mutable statistics collector; receives the
            statistics of a from-scratch exploration at *horizon* (the
            truncated view of the shared explorer's event log).

    Returns:
        Request tuples sorted by time (ties by work descending), Pareto-
        merged per vertex but *not* across vertices.
    """
    hz = as_q(horizon)
    if hz < 0:
        raise ModelError("horizon must be non-negative")
    if prune:
        ex = frontier_explorer(task)
    else:
        ex = FrontierExplorer(task, prune=False)
    out = ex.tuples(hz)
    if stats is not None:
        stats.add(ex.stats_at(hz))
    return out


def rbf_value(task: DRTTask, delta: NumLike) -> Fraction:
    """Exact ``rbf(delta)``: maximum work in a closed window of length
    *delta* (the window start coincides with some job release)."""
    d = as_q(delta)
    tuples = request_frontier(task, d)
    return max(t.work for t in tuples)


def rbf_curve(task: DRTTask, horizon: NumLike) -> Curve:
    """The request bound function as a finitary staircase curve.

    Exact on ``[0, horizon)``.  Beyond the horizon the curve continues
    with the exact linear bound ``rbf(Delta) <= B + rho * Delta`` of
    :func:`repro.drt.utilization.linear_request_bound` — sound for every
    window length and exact in the long-run rate ``rho`` (the maximum
    cycle ratio), so busy-window horizon iteration terminates whenever
    the service outpaces the workload.

    Served from the task's shared :class:`FrontierExplorer`: growing
    horizons (the busy-window doubling loop, multi-task aggregation)
    only pay for the exploration the new horizon adds.

    Args:
        task: The structural workload.
        horizon: Exactness horizon (must be >= 0).
    """
    hz = as_q(horizon)
    if hz < 0:
        raise ModelError("horizon must be non-negative")
    return frontier_explorer(task).rbf_curve(hz)
