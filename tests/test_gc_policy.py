"""The garbage-collector policy of ``discover_mapping``.

``discover_mapping`` pauses automatic cyclic garbage collection for the
length of the call (``repro.search.engine._cyclic_gc_paused``).  That is
safe only because a finished search is freed by reference counting alone:
the first suite below checks that no algorithm x heuristic x outcome, and
no store-backed call, leaves cyclic garbage behind or keeps its
``MappingProblem`` alive.  The second checks that the caller's collector
state survives the call on every exit path.
"""

from __future__ import annotations

import gc
import time

import pytest

from repro import CancelToken, SearchConfig, discover_mapping
from repro.errors import UnknownAlgorithmError
from repro.heuristics import HEURISTIC_NAMES
from repro.search.engine import ALGORITHM_NAMES
from repro.search.problem import MappingProblem
from repro.search.result import (
    STATUS_BUDGET_EXCEEDED,
    STATUS_CANCELLED,
    STATUS_DEADLINE_EXCEEDED,
    STATUS_FOUND,
    STATUS_NOT_FOUND,
)
from repro.semantics.functions import SemanticFunction
from repro.store import WarmStartStore
from repro.workloads.flights import (
    flights_b,
    flights_c,
    flights_registry,
    total_cost_correspondence,
)
from repro.workloads.synthetic import matching_pair

SOLVABLE = matching_pair(3)
# Without the λ correspondence FlightsC is unreachable from FlightsB, so
# every algorithm is still searching when a budget, deadline or cancel
# token cuts it.
UNREACHABLE = (flights_b(), flights_c())
OUTCOMES = ("finished", "budget", "deadline", "cancel")


@pytest.fixture(autouse=True)
def _collector_restored():
    """A failing assertion mid-test must not leave the collector off."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


def _on_first_progress(action):
    """A progress callback running *action* once, mid-search."""
    fired = []

    def callback(_update):
        if not fired:
            fired.append(True)
            action()

    return callback


def _run(algorithm, heuristic, outcome):
    if outcome == "finished":
        return discover_mapping(
            SOLVABLE.source, SOLVABLE.target, algorithm=algorithm, heuristic=heuristic
        )
    source, target = UNREACHABLE
    if outcome == "budget":
        return discover_mapping(
            source,
            target,
            algorithm=algorithm,
            heuristic=heuristic,
            config=SearchConfig(max_states=24),
        )
    if outcome == "deadline":
        deadline = 0.005
        return discover_mapping(
            source,
            target,
            algorithm=algorithm,
            heuristic=heuristic,
            config=SearchConfig(deadline_seconds=deadline),
            progress=_on_first_progress(lambda: time.sleep(deadline * 1.2)),
        )
    token = CancelToken()
    return discover_mapping(
        source,
        target,
        algorithm=algorithm,
        heuristic=heuristic,
        cancel=token,
        progress=_on_first_progress(token.cancel),
    )


EXPECTED_STATUS = {
    "finished": (STATUS_FOUND, STATUS_NOT_FOUND),
    "budget": (STATUS_BUDGET_EXCEEDED,),
    "deadline": (STATUS_DEADLINE_EXCEEDED,),
    "cancel": (STATUS_CANCELLED,),
}


def _frees_itself(call):
    """Run *call* with the collector off; return (result, garbage, problems).

    *garbage* is what a full collection after the call finds unreachable
    and *problems* counts the ``MappingProblem`` instances still alive.
    The heap that existed before the call is frozen, so both look only at
    what the call allocated (all of it in generation 0 while the collector
    is off) instead of scanning the test process's whole heap.
    """
    gc.disable()
    gc.freeze()
    try:
        result = call()
        problems = sum(isinstance(o, MappingProblem) for o in gc.get_objects(0))
        garbage = gc.collect()
    finally:
        gc.unfreeze()
        gc.enable()
    return result, garbage, problems


# ---------------------------------------------------------------------------
# A search leaves no cyclic garbage
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("outcome", OUTCOMES)
@pytest.mark.parametrize("heuristic", HEURISTIC_NAMES)
@pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
def test_search_leaves_no_cyclic_garbage(algorithm, heuristic, outcome):
    result, garbage, problems = _frees_itself(
        lambda: _run(algorithm, heuristic, outcome)
    )
    assert result.status in EXPECTED_STATUS[outcome]
    assert garbage == 0
    assert problems == 0


def test_store_backed_calls_leave_no_cyclic_garbage(tmp_path):
    store = WarmStartStore(tmp_path / "store")
    pair = matching_pair(4)

    def request():
        return discover_mapping(
            pair.source, pair.target, algorithm="ida", heuristic="h0", store=store
        )

    cold, garbage, problems = _frees_itself(request)
    assert cold.status == STATUS_FOUND and not cold.served_from_store
    assert (garbage, problems) == (0, 0)
    warm, garbage, problems = _frees_itself(request)
    assert warm.served_from_store
    assert (garbage, problems) == (0, 0)


# ---------------------------------------------------------------------------
# The caller's collector state is restored
# ---------------------------------------------------------------------------


def _observing(seen):
    """A progress callback recording whether the collector is enabled."""
    return lambda _update: seen.append(gc.isenabled())


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("outcome", OUTCOMES)
def test_collector_state_restored_on_every_status(enabled, outcome):
    (gc.enable if enabled else gc.disable)()
    result = _run("rbfs", "h1", outcome)
    assert result.status in EXPECTED_STATUS[outcome]
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_paused_during_the_call(enabled):
    (gc.enable if enabled else gc.disable)()
    seen: list[bool] = []
    pair = matching_pair(5)
    result = discover_mapping(
        pair.source, pair.target, algorithm="ida", heuristic="h0",
        progress=_observing(seen),
    )
    assert result.found
    assert seen and not any(seen)
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_state_restored_when_a_semantic_function_raises(enabled):
    class Boom(RuntimeError):
        pass

    def boom(*_args):
        raise Boom("semantic function failed")

    registry = flights_registry()
    registry.register(SemanticFunction("add", 2, boom), replace=True)
    source, target = UNREACHABLE
    (gc.enable if enabled else gc.disable)()
    with pytest.raises(Boom):
        discover_mapping(
            source,
            target,
            algorithm="rbfs",
            heuristic="h1",
            correspondences=[total_cost_correspondence()],
            registry=registry,
        )
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_state_restored_on_rejected_arguments(enabled):
    (gc.enable if enabled else gc.disable)()
    with pytest.raises(UnknownAlgorithmError):
        discover_mapping(SOLVABLE.source, SOLVABLE.target, algorithm="nope")
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_nested_calls_keep_the_outer_callers_state(enabled):
    inner_seen: list[bool] = []
    after_inner: list[bool] = []

    def nested():
        inner_pair = matching_pair(5)
        inner = discover_mapping(
            inner_pair.source, inner_pair.target, algorithm="ida", heuristic="h0",
            progress=_observing(inner_seen),
        )
        assert inner.found
        after_inner.append(gc.isenabled())

    (gc.enable if enabled else gc.disable)()
    pair = matching_pair(5)
    outer = discover_mapping(
        pair.source, pair.target, algorithm="ida", heuristic="h0",
        progress=_on_first_progress(nested),
    )
    assert outer.found
    # the inner call ran with the outer call's pause and did not lift it
    assert inner_seen and not any(inner_seen)
    assert after_inner == [False]
    assert gc.isenabled() is enabled
