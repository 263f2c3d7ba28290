"""Search-kernel throughput: states examined per second on the Fig. 5 pairs.

Times one discovery per cell on the synthetic matching workload:

* IDA*/h0 at n = 4, 5, 6 — blind search, so the time is successor
  generation, operator application and goal tests (n = 6 is the headline);
* IDA*/cosine and RBFS/euclid at n = 7 — informed search, where heuristic
  evaluation joins the profile.

Each cell reports the minimum wall clock of several rounds, with the
garbage collector left as a user has it, and ``states_per_s`` = states
examined / seconds.  The states-examined count of every cell is published
as well: it is the paper's §5 metric, and a kernel change must not move it
(``tests/test_golden_results.py`` pins it on smaller pairs).

Results land in ``BENCH_kernel.json`` at the repo root.
``tools/bench_history.py`` tracks the headline and every cell's states/s
and flags a drop of more than 15 % below the best recorded run.  No
absolute floor is asserted, because states/s depends on the host (the
payload records it).

Run standalone (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_kernel.py --quick

or through the bench suite: ``pytest benchmarks/bench_kernel.py
--benchmark-only``.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
import time
from pathlib import Path
from typing import Sequence

from repro.search import SearchConfig, discover_mapping
from repro.workloads import matching_pair

if __package__ is None and not __name__.startswith("benchmarks"):
    # running as a script: make _bench_utils importable
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from _bench_utils import record_section, write_bench_json

#: (algorithm, heuristic, size) per cell, in the order they run
CELLS: tuple[tuple[str, str, int], ...] = (
    ("ida", "h0", 4),
    ("ida", "h0", 5),
    ("ida", "h0", 6),
    ("ida", "cosine", 7),
    ("rbfs", "euclid", 7),
)
#: smaller cells of the same shape for the CI smoke run
QUICK_CELLS: tuple[tuple[str, str, int], ...] = (
    ("ida", "h0", 3),
    ("ida", "h0", 4),
    ("ida", "cosine", 5),
    ("rbfs", "euclid", 5),
)
HEADLINE = ("ida", "h0", 6)
BUDGET = 400_000
ROUNDS = 5
JSON_NAME = "BENCH_kernel.json"


def cell_key(algorithm: str, heuristic: str, size: int) -> str:
    """``("ida", "h0", 6)`` -> ``"ida_h0_n6"`` (the payload key)."""
    return f"{algorithm}_{heuristic}_n{size}"


def measure_cell(algorithm: str, heuristic: str, size: int, rounds: int) -> dict:
    """Min-of-rounds wall clock and states/s for one cell."""
    pair = matching_pair(size)
    config = SearchConfig(max_states=BUDGET)
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = discover_mapping(
            pair.source, pair.target, algorithm=algorithm,
            heuristic=heuristic, config=config,
        )
        best = min(best, time.perf_counter() - start)
    if not result.found:
        raise AssertionError(
            f"{cell_key(algorithm, heuristic, size)}: search ended "
            f"{result.status}, expected found"
        )
    states = result.stats.states_examined
    return {
        "algorithm": algorithm,
        "heuristic": heuristic,
        "size": size,
        "states": states,
        "secs": best,
        "states_per_s": states / best if best else float("inf"),
    }


def measure(cells: Sequence[tuple[str, str, int]], rounds: int) -> dict:
    """Every cell plus the headline, as the ``BENCH_kernel.json`` payload."""
    measured = {
        cell_key(*cell): measure_cell(*cell, rounds=rounds) for cell in cells
    }
    payload = {
        "workload": {
            "pairs": "synthetic matching (Fig. 5)",
            "budget": BUDGET,
            "rounds": rounds,
            "gc": "default",
        },
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "cells": measured,
    }
    headline = measured.get(cell_key(*HEADLINE))
    if headline is not None:
        payload["headline"] = {
            "cell": cell_key(*HEADLINE),
            "states": headline["states"],
            "states_per_s": headline["states_per_s"],
        }
    return payload


def cells_table(payload: dict) -> str:
    """Render the measured cells as an ASCII table."""
    headers = ["algorithm", "heuristic", "n", "states", "secs", "states/s"]
    body = [
        [
            cell["algorithm"],
            cell["heuristic"],
            str(cell["size"]),
            str(cell["states"]),
            f"{cell['secs']:.3f}",
            f"{cell['states_per_s']:,.0f}",
        ]
        for cell in payload["cells"].values()
    ]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in body))
        for i in range(len(headers))
    ]

    def fmt(cells):
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))

    lines = [
        f"search kernel, synthetic matching (min of "
        f"{payload['workload']['rounds']} rounds)",
        fmt(headers),
        fmt(["-" * w for w in widths]),
    ]
    lines.extend(fmt(row) for row in body)
    return "\n".join(lines)


# -- pytest-benchmark entry point ---------------------------------------------


def test_kernel_throughput(benchmark):
    payload = benchmark.pedantic(
        lambda: measure(CELLS, rounds=2), rounds=1, iterations=1
    )
    benchmark.extra_info["states_per_s"] = payload["headline"]["states_per_s"]
    record_section("Search kernel — states/s per cell", cells_table(payload))
    write_bench_json(Path(__file__).resolve().parent.parent / JSON_NAME, payload)


# -- standalone CLI -----------------------------------------------------------


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure search-kernel states/s on the Fig. 5 pairs."
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small cells, one round, no JSON — CI smoke mode",
    )
    parser.add_argument(
        "--rounds", type=int, default=None,
        help=f"timing rounds per cell (default {ROUNDS}; quick: 1)",
    )
    parser.add_argument(
        "--no-json", action="store_true", help=f"skip writing {JSON_NAME}"
    )
    args = parser.parse_args(argv)
    if args.rounds is not None and args.rounds < 1:
        parser.error(f"--rounds must be >= 1, got {args.rounds}")
    rounds = args.rounds if args.rounds else (1 if args.quick else ROUNDS)

    payload = measure(QUICK_CELLS if args.quick else CELLS, rounds)
    print(cells_table(payload))
    if "headline" in payload:
        head = payload["headline"]
        print(
            f"\nheadline {head['cell']}: {head['states_per_s']:,.0f} states/s "
            f"({head['states']} states)"
        )
    if not args.quick and not args.no_json:
        path = write_bench_json(
            Path(__file__).resolve().parent.parent / JSON_NAME, payload
        )
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
