"""Iterative Deepening A* (IDA*), one of the paper's two algorithms (§2.3).

IDA* performs repeated depth-first probes bounded by the f-value
``f(x) = g(x) + h(x)``, raising the bound to the smallest exceeded f after
each probe.  The algorithm's own memory (the path and its on-path set) is
linear in the search depth; the price is re-expansion of shallow states on
every iteration — which the paper accepts ("although they both perform
redundant explorations, they do not suffer from the exponential memory use
of basic A*").  Here those re-expansions are served from the problem's
transposition table and the heuristic memo, which keep every distinct state
examined unless ``SearchConfig.cache_capacity`` bounds them, so a run's
footprint grows with the states it examines, not with its depth.  All of it
is freed by reference counting when the run returns.
"""

from __future__ import annotations

import math

from ..errors import MappingNotFound
from ..fira.base import Operator
from ..heuristics.base import Heuristic
from ..obs.events import PRUNE
from ..relational.database import Database
from .problem import MappingProblem
from .stats import SearchStats

_FOUND = object()


def ida_star(
    problem: MappingProblem, heuristic: Heuristic, stats: SearchStats
) -> list[Operator]:
    """Run IDA* and return the operator path to a goal state.

    Raises:
        MappingNotFound: if the (pruned) space contains no goal.
        SearchBudgetExceeded: if ``stats.budget`` is exhausted.
    """
    root = problem.initial_state()
    path_ops: list[Operator] = []
    on_path: set[Database] = {root}
    max_depth = problem.config.max_depth
    tracer = stats.tracer

    def probe(state: Database, last_op: Operator | None, g: int, bound: float):
        """DFS bounded by f <= bound; returns _FOUND or the next bound."""
        stats.frontier_size = len(on_path)  # progress-heartbeat payload only
        stats.examine(g, state)
        f = g + heuristic(state)
        if f > bound:
            return f
        if problem.is_goal(state, stats):
            return _FOUND
        if max_depth is not None and g >= max_depth:
            return math.inf
        minimum: float = math.inf
        for op, child in problem.successors(state, last_op, stats):
            if child in on_path:
                if tracer.enabled:
                    tracer.emit(PRUNE, reason="on_path", depth=g + 1)
                continue
            path_ops.append(op)
            on_path.add(child)
            outcome = probe(child, op, g + 1, bound)
            if outcome is _FOUND:
                return _FOUND
            path_ops.pop()
            on_path.remove(child)
            if outcome < minimum:
                minimum = outcome
        return minimum

    try:
        bound: float = heuristic(root)
        while True:
            stats.iteration(bound=bound)
            outcome = probe(root, None, 0, bound)
            if outcome is _FOUND:
                return list(path_ops)
            if math.isinf(outcome):
                raise MappingNotFound(
                    f"IDA* exhausted the search space (final bound {bound})"
                )
            bound = outcome
    finally:
        # probe refers to itself through its closure cell, a cycle that
        # would keep the problem and its tables alive until a full
        # collection; emptying the cell lets reference counting free the
        # run on every outcome.
        del probe
