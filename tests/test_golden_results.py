"""Golden results: the search examines the same states as ever.

Pins ``(status, states_examined, str(expression))`` for every search
algorithm x paper heuristic on two workloads: the Fig. 5 synthetic
matching pair at n=3 and the Fig. 1 Flights B -> A restructuring.  The
values were recorded on a kernel whose legacy value-path arm, memoised
arm, columnar arm and delta-incremental arm all agreed on every cell, so
any change to successor order, goal testing or a heuristic's estimate
shows up here as a changed state count or expression.
"""

from __future__ import annotations

import pytest

from repro.heuristics import HEURISTIC_NAMES
from repro.search import ALGORITHM_NAMES, SearchConfig, discover_mapping
from repro.workloads import flights_a, flights_b, matching_pair

#: generous budget: every pinned cell finishes far below it
BUDGET = 20_000

WORKLOADS = {
    "fig5_n3": lambda: (matching_pair(3).source, matching_pair(3).target),
    "flights_b_to_a": lambda: (flights_b(), flights_a()),
}

RENAMES_N3 = "\n".join((
    "rename_att[R](A01 -> B01)",
    "rename_att[R](A02 -> B02)",
    "rename_att[R](A03 -> B03)",
))
FLIGHTS_1 = "\n".join((
    "rename_att[Prices](AgentFee -> Fee)",
    "rename_rel(Prices -> Flights)",
    "promote[Flights](Route; Cost)",
    "drop[Flights](Cost)",
    "drop[Flights](Route)",
    "merge[Flights](Carrier)",
))
FLIGHTS_2 = "\n".join((
    "rename_rel(Prices -> Flights)",
    "rename_att[Flights](AgentFee -> Fee)",
    "promote[Flights](Route; Cost)",
    "drop[Flights](Cost)",
    "drop[Flights](Route)",
    "merge[Flights](Carrier)",
))
FLIGHTS_3 = "\n".join((
    "rename_rel(Prices -> Flights)",
    "promote[Flights](Route; Cost)",
    "drop[Flights](Cost)",
    "drop[Flights](Route)",
    "rename_att[Flights](AgentFee -> Fee)",
    "merge[Flights](Carrier)",
))
FLIGHTS_4 = "\n".join((
    "rename_rel(Prices -> Flights)",
    "promote[Flights](Route; Cost)",
    "drop[Flights](Cost)",
    "drop[Flights](Route)",
    "merge[Flights](Carrier)",
    "rename_att[Flights](AgentFee -> Fee)",
))
FLIGHTS_5 = "\n".join((
    "promote[Prices](Route; Cost)",
    "drop[Prices](Cost)",
    "drop[Prices](Route)",
    "merge[Prices](Carrier)",
    "rename_att[Prices](AgentFee -> Fee)",
    "rename_rel(Prices -> Flights)",
))
FLIGHTS_6 = "\n".join((
    "promote[Prices](Route; Cost)",
    "rename_att[Prices](AgentFee -> Fee)",
    "rename_rel(Prices -> Flights)",
    "drop[Flights](Cost)",
    "drop[Flights](Route)",
    "merge[Flights](Carrier)",
))
FLIGHTS_7 = "\n".join((
    "promote[Prices](Route; Cost)",
    "drop[Prices](Route)",
    "rename_att[Prices](AgentFee -> Fee)",
    "rename_rel(Prices -> Flights)",
    "drop[Flights](Cost)",
    "merge[Flights](Carrier)",
))
FLIGHTS_8 = "\n".join((
    "promote[Prices](Route; Cost)",
    "rename_att[Prices](AgentFee -> Fee)",
    "drop[Prices](Route)",
    "rename_rel(Prices -> Flights)",
    "drop[Flights](Cost)",
    "merge[Flights](Carrier)",
))
FLIGHTS_9 = "\n".join((
    "promote[Prices](Route; Cost)",
    "drop[Prices](Route)",
    "rename_att[Prices](AgentFee -> Fee)",
    "drop[Prices](Cost)",
    "merge[Prices](Carrier)",
    "rename_rel(Prices -> Flights)",
))
FLIGHTS_10 = "\n".join((
    "rename_rel(Prices -> Flights)",
    "promote[Flights](Route; Cost)",
    "rename_att[Flights](AgentFee -> Fee)",
    "drop[Flights](Cost)",
    "drop[Flights](Route)",
    "merge[Flights](Carrier)",
))

#: (workload, algorithm, heuristic) -> (status, states examined, expression)
GOLDEN: dict[tuple[str, str, str], tuple[str, int, str | None]] = {
    ("fig5_n3", "ida", "h0"): ("found", 76, RENAMES_N3),
    ("fig5_n3", "ida", "h1"): ("found", 4, RENAMES_N3),
    ("fig5_n3", "ida", "h2"): ("found", 76, RENAMES_N3),
    ("fig5_n3", "ida", "h3"): ("found", 4, RENAMES_N3),
    ("fig5_n3", "ida", "euclid"): ("found", 14, RENAMES_N3),
    ("fig5_n3", "ida", "euclid_norm"): ("found", 4, RENAMES_N3),
    ("fig5_n3", "ida", "cosine"): ("found", 4, RENAMES_N3),
    ("fig5_n3", "ida", "levenshtein"): ("found", 73, RENAMES_N3),
    ("fig5_n3", "rbfs", "h0"): ("found", 37, RENAMES_N3),
    ("fig5_n3", "rbfs", "h1"): ("found", 4, RENAMES_N3),
    ("fig5_n3", "rbfs", "h2"): ("found", 37, RENAMES_N3),
    ("fig5_n3", "rbfs", "h3"): ("found", 4, RENAMES_N3),
    ("fig5_n3", "rbfs", "euclid"): ("found", 4, RENAMES_N3),
    ("fig5_n3", "rbfs", "euclid_norm"): ("found", 4, RENAMES_N3),
    ("fig5_n3", "rbfs", "cosine"): ("found", 4, RENAMES_N3),
    ("fig5_n3", "rbfs", "levenshtein"): ("found", 25, RENAMES_N3),
    ("fig5_n3", "astar", "h0"): ("found", 29, RENAMES_N3),
    ("fig5_n3", "astar", "h1"): ("found", 29, RENAMES_N3),
    ("fig5_n3", "astar", "h2"): ("found", 29, RENAMES_N3),
    ("fig5_n3", "astar", "h3"): ("found", 29, RENAMES_N3),
    ("fig5_n3", "astar", "euclid"): ("found", 14, RENAMES_N3),
    ("fig5_n3", "astar", "euclid_norm"): ("found", 4, RENAMES_N3),
    ("fig5_n3", "astar", "cosine"): ("found", 6, RENAMES_N3),
    ("fig5_n3", "astar", "levenshtein"): ("found", 33, RENAMES_N3),
    ("fig5_n3", "greedy", "h0"): ("found", 29, RENAMES_N3),
    ("fig5_n3", "greedy", "h1"): ("found", 4, RENAMES_N3),
    ("fig5_n3", "greedy", "h2"): ("found", 29, RENAMES_N3),
    ("fig5_n3", "greedy", "h3"): ("found", 4, RENAMES_N3),
    ("fig5_n3", "greedy", "euclid"): ("found", 4, RENAMES_N3),
    ("fig5_n3", "greedy", "euclid_norm"): ("found", 4, RENAMES_N3),
    ("fig5_n3", "greedy", "cosine"): ("found", 4, RENAMES_N3),
    ("fig5_n3", "greedy", "levenshtein"): ("found", 33, RENAMES_N3),
    ("fig5_n3", "beam", "h0"): ("found", 32, RENAMES_N3),
    ("fig5_n3", "beam", "h1"): ("found", 32, RENAMES_N3),
    ("fig5_n3", "beam", "h2"): ("found", 32, RENAMES_N3),
    ("fig5_n3", "beam", "h3"): ("found", 32, RENAMES_N3),
    ("fig5_n3", "beam", "euclid"): ("found", 27, RENAMES_N3),
    ("fig5_n3", "beam", "euclid_norm"): ("found", 27, RENAMES_N3),
    ("fig5_n3", "beam", "cosine"): ("found", 27, RENAMES_N3),
    ("fig5_n3", "beam", "levenshtein"): ("not_found", 31, None),
    ("flights_b_to_a", "ida", "h0"): ("found", 7613, FLIGHTS_1),
    ("flights_b_to_a", "ida", "h1"): ("found", 3300, FLIGHTS_1),
    ("flights_b_to_a", "ida", "h2"): ("found", 2825, FLIGHTS_1),
    ("flights_b_to_a", "ida", "h3"): ("found", 2032, FLIGHTS_1),
    ("flights_b_to_a", "ida", "euclid"): ("found", 69, FLIGHTS_1),
    ("flights_b_to_a", "ida", "euclid_norm"): ("found", 38, FLIGHTS_2),
    ("flights_b_to_a", "ida", "cosine"): ("found", 127, FLIGHTS_1),
    ("flights_b_to_a", "ida", "levenshtein"): ("found", 258, FLIGHTS_3),
    ("flights_b_to_a", "rbfs", "h0"): ("found", 4516, FLIGHTS_4),
    ("flights_b_to_a", "rbfs", "h1"): ("found", 1845, FLIGHTS_5),
    ("flights_b_to_a", "rbfs", "h2"): ("found", 1317, FLIGHTS_4),
    ("flights_b_to_a", "rbfs", "h3"): ("found", 1056, FLIGHTS_5),
    ("flights_b_to_a", "rbfs", "euclid"): ("found", 7, FLIGHTS_2),
    ("flights_b_to_a", "rbfs", "euclid_norm"): ("found", 142, FLIGHTS_4),
    ("flights_b_to_a", "rbfs", "cosine"): ("found", 162, FLIGHTS_4),
    ("flights_b_to_a", "rbfs", "levenshtein"): ("found", 67, FLIGHTS_4),
    ("flights_b_to_a", "astar", "h0"): ("found", 486, FLIGHTS_1),
    ("flights_b_to_a", "astar", "h1"): ("found", 298, FLIGHTS_6),
    ("flights_b_to_a", "astar", "h2"): ("found", 452, FLIGHTS_7),
    ("flights_b_to_a", "astar", "h3"): ("found", 296, FLIGHTS_8),
    ("flights_b_to_a", "astar", "euclid"): ("found", 39, FLIGHTS_2),
    ("flights_b_to_a", "astar", "euclid_norm"): ("found", 7, FLIGHTS_2),
    ("flights_b_to_a", "astar", "cosine"): ("found", 63, FLIGHTS_2),
    ("flights_b_to_a", "astar", "levenshtein"): ("found", 48, FLIGHTS_4),
    ("flights_b_to_a", "greedy", "h0"): ("found", 486, FLIGHTS_1),
    ("flights_b_to_a", "greedy", "h1"): ("found", 50, FLIGHTS_6),
    ("flights_b_to_a", "greedy", "h2"): ("found", 64, FLIGHTS_7),
    ("flights_b_to_a", "greedy", "h3"): ("found", 37, FLIGHTS_8),
    ("flights_b_to_a", "greedy", "euclid"): ("found", 11, FLIGHTS_2),
    ("flights_b_to_a", "greedy", "euclid_norm"): ("found", 7, FLIGHTS_2),
    ("flights_b_to_a", "greedy", "cosine"): ("found", 7, FLIGHTS_2),
    ("flights_b_to_a", "greedy", "levenshtein"): ("found", 50, FLIGHTS_4),
    ("flights_b_to_a", "beam", "h0"): ("not_found", 90, None),
    ("flights_b_to_a", "beam", "h1"): ("found", 69, FLIGHTS_6),
    ("flights_b_to_a", "beam", "h2"): ("found", 82, FLIGHTS_9),
    ("flights_b_to_a", "beam", "h3"): ("not_found", 87, None),
    ("flights_b_to_a", "beam", "euclid"): ("found", 79, FLIGHTS_4),
    ("flights_b_to_a", "beam", "euclid_norm"): ("found", 72, FLIGHTS_10),
    ("flights_b_to_a", "beam", "cosine"): ("found", 73, FLIGHTS_2),
    ("flights_b_to_a", "beam", "levenshtein"): ("found", 79, FLIGHTS_4),
}


def test_table_covers_every_algorithm_and_heuristic():
    expected = {
        (workload, algorithm, heuristic)
        for workload in WORKLOADS
        for algorithm in ALGORITHM_NAMES
        for heuristic in HEURISTIC_NAMES
    }
    assert set(GOLDEN) == expected


@pytest.mark.parametrize("workload,algorithm,heuristic", sorted(GOLDEN))
def test_search_matches_golden(workload, algorithm, heuristic):
    source, target = WORKLOADS[workload]()
    result = discover_mapping(
        source,
        target,
        algorithm=algorithm,
        heuristic=heuristic,
        config=SearchConfig(max_states=BUDGET),
    )
    expression = str(result.expression) if result.expression is not None else None
    assert (
        result.status,
        result.stats.states_examined,
        expression,
    ) == GOLDEN[workload, algorithm, heuristic]
