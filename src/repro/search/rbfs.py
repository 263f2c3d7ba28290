"""Recursive Best-First Search (RBFS), the paper's second algorithm (§2.3).

RBFS explores best-first with memory linear in the depth: at each node it
recurses into the lowest-f child with an f-limit equal to the best
*alternative* f-value anywhere on the current path, and on return stores the
child's backed-up f so abandoned subtrees can be re-entered at the right
cost later.  The paper found RBFS generally superior to IDA* (§5.4).  As in
:mod:`repro.search.ida`, the linear bound covers the recursion only: the
problem's transposition table and the heuristic memo keep every distinct
state examined unless ``SearchConfig.cache_capacity`` bounds them, and the
run is freed by reference counting when it returns.
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


class _Found(Exception):
    """Internal control flow: a goal was reached (path is on the stack)."""


def rbfs(
    problem: MappingProblem, heuristic: Heuristic, stats: SearchStats
) -> list[Operator]:
    """Run RBFS and return the operator path to a goal state.

    Raises:
        MappingNotFound: if the (pruned) space contains no goal.
        SearchBudgetExceeded: if ``stats.budget`` is exhausted.
    """
    root = problem.initial_state()
    path_ops: list[Operator] = []
    on_path: set[Database] = {root}
    max_depth = problem.config.max_depth
    tracer = stats.tracer

    def visit(
        state: Database,
        last_op: Operator | None,
        g: int,
        f_stored: float,
        f_limit: float,
    ) -> float:
        """Explore *state* within *f_limit*; return its backed-up f-value.

        Raises _Found when a goal is reached (path_ops then holds the path).
        """
        stats.frontier_size = len(on_path)  # progress-heartbeat payload only
        stats.examine(g, state)
        if problem.is_goal(state, stats):
            raise _Found
        if max_depth is not None and g >= max_depth:
            return math.inf
        entries: list[list] = []  # [f, op, child] — mutable f for back-up
        for op, child in problem.successors(state, last_op, stats):
            if child in on_path:
                if tracer.enabled:
                    tracer.emit(PRUNE, reason="on_path", depth=g + 1)
                continue
            f_child = max(g + 1 + heuristic(child), f_stored)
            entries.append([f_child, str(op), op, child])
        if not entries:
            return math.inf
        while True:
            entries.sort(key=lambda e: (e[0], e[1]))
            best = entries[0]
            if best[0] > f_limit or math.isinf(best[0]):
                # second disjunct: every child is exhausted — without it the
                # loop would re-expand dead subtrees forever when f_limit=inf
                return best[0]
            alternative = entries[1][0] if len(entries) > 1 else math.inf
            child_limit = min(f_limit, alternative)
            stats.iteration(
                f=best[0],
                limit=child_limit if math.isfinite(child_limit) else None,
                depth=g + 1,
            )
            op, child = best[2], best[3]
            path_ops.append(op)
            on_path.add(child)
            # On _Found the exception propagates and the path is preserved;
            # on a normal return the child is unwound from the path.
            best[0] = visit(child, op, g + 1, best[0], child_limit)
            path_ops.pop()
            on_path.remove(child)

    try:
        root_f = float(heuristic(root))
        visit(root, None, 0, root_f, math.inf)
    except _Found:
        return list(path_ops)
    finally:
        # Break visit's self-reference (see ida_star) so the finished
        # run is freed by reference counting.
        del visit
    raise MappingNotFound("RBFS exhausted the search space")
