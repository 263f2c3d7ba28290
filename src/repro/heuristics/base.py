"""Heuristic abstraction.

A search heuristic ``h(x)`` estimates the number of transformation steps
from database *x* to the target critical instance *t* (§3).  Heuristics are
*compiled against the target*: construction precomputes whatever view of
``t`` the estimate needs (TNF projections, the database string, the term
vector), and evaluation sees only candidate states.

Estimates are memoised per state: databases are immutable and hashable, and
both IDA* and RBFS re-visit states across iterations/backtracks, so caching
changes nothing semantically while matching the paper's "states examined"
accounting (each distinct state is examined once per evaluation site).

The memo cache integrates with the search instrumentation: bind a
:class:`~repro.search.stats.SearchStats` via :meth:`Heuristic.bind_stats`
and hits / misses / evictions plus estimate wall-clock are recorded there
(the search engine does this automatically).  :attr:`Heuristic.cache_capacity`
bounds the cache with LRU eviction, consistent with the transposition table
in :mod:`repro.search.problem`.
"""

from __future__ import annotations

import abc
import math
from collections import OrderedDict
from time import perf_counter
from typing import TYPE_CHECKING

from ..obs.events import CACHE_HIT, CACHE_MISS
from ..obs.metrics import HEURISTIC_BUCKETS
from ..relational.database import Database

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..search.stats import SearchStats


def round_half_up(value: float) -> int:
    """Round to the nearest integer, halves away from zero.

    Python's built-in ``round`` is banker's rounding; the paper's
    ``round(y)`` is "the integer closest to y", which we take as the
    conventional half-up rule.
    """
    return int(math.floor(value + 0.5)) if value >= 0 else int(math.ceil(value - 0.5))


class Heuristic(abc.ABC):
    """Base class for search heuristics.

    Args:
        target: the target critical instance the heuristic is compiled for.
    """

    #: registry key (e.g. ``"h1"``, ``"cosine"``)
    name: str = ""

    def __init__(self, target: Database) -> None:
        self._target = target
        self._cache: OrderedDict[Database, int] = OrderedDict()
        self._stats: "SearchStats | None" = None
        #: optional LRU bound on the estimate cache (None = unbounded)
        self.cache_capacity: int | None = None

    @property
    def target(self) -> Database:
        """The target instance this heuristic was compiled for."""
        return self._target

    def bind_stats(self, stats: "SearchStats | None") -> None:
        """Report cache hits/misses/evictions and timing to *stats*."""
        self._stats = stats

    def clear_cache(self) -> None:
        """Drop all memoised estimates."""
        self._cache.clear()

    def __call__(self, state: Database) -> int:
        """The estimated distance from *state* to the target (memoised)."""
        stats = self._stats
        cache = self._cache
        cached = cache.get(state)
        if cached is not None:
            if self.cache_capacity is not None:  # LRU order only when bounded
                cache.move_to_end(state)
            if stats is not None:
                stats.heuristic_cache_hits += 1
                tracer = stats.tracer
                if tracer.enabled:
                    tracer.emit(CACHE_HIT, cache="heuristic")
            return cached
        start = perf_counter()
        value = self.estimate(state)
        if value < 0:
            raise ValueError(
                f"heuristic {self.name!r} returned negative estimate {value}"
            )
        cache[state] = value
        if stats is not None:
            stats.heuristic_cache_misses += 1
            stats.time_in_heuristic += perf_counter() - start
            tracer = stats.tracer
            if tracer.enabled:
                tracer.emit(CACHE_MISS, cache="heuristic", value=value)
            if stats.metrics is not None:
                stats.metrics.histogram(
                    "search.heuristic_value", HEURISTIC_BUCKETS
                ).observe(value)
        if self.cache_capacity is not None and len(cache) > self.cache_capacity:
            cache.popitem(last=False)
            if stats is not None:
                stats.heuristic_cache_evictions += 1
        return value

    @abc.abstractmethod
    def estimate(self, state: Database) -> int:
        """Compute the estimate for a state (no caching)."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class ScaledHeuristic(Heuristic):
    """Base for heuristics with the paper's scaling constant ``k``.

    The normalized Levenshtein, normalized Euclidean, and cosine heuristics
    all map a similarity in ``[0, 1]`` onto ``[0, k]`` (k ≫ 1); the tuned
    values of k differ per search algorithm (§5, constants table).
    """

    #: default scaling constant when none is supplied
    default_k: float = 10.0

    def __init__(self, target: Database, k: float | None = None) -> None:
        super().__init__(target)
        self.k = float(self.default_k if k is None else k)
        if self.k < 1:
            raise ValueError(f"scaling constant k must be >= 1, got {self.k}")
