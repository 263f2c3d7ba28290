"""One benchmark worker: a fresh interpreter running one workload.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``.  It imports
``repro``, builds the workload's inputs, prints ``ready`` and then acts
as a single closed-loop client: one request at a time, the next sent
only when the previous one has returned and been checked.  The garbage
collector is left on.  With ``--probe`` it exits at ``ready``; that is a
cold-start sample.

The schedule is replayed in passes until ``--seconds`` have passed and at
least one pass is complete.  Each request is checked outside its timed
region:

* the mapping was found within the request deadline;
* ``expression.apply(source).contains(target)`` holds;
* on Flights, the executed result equals the in-memory algebra's replay;
* its ``states_examined`` equals that of the same request in pass one.

The last line of standard output is one JSON object with the raw samples,
one per request: ``[latency_s, verified, states_examined, source_rows,
served_from_store, pass]``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

import repro
from repro.obs.metrics import MetricsRegistry
from repro.relational import pool_size
from repro.store import WarmStartStore

import inputs
import tracing

#: SearchStats cache counters summed per layer in the traced run
CACHE_COUNTERS = (
    "successor_cache_hits", "successor_cache_misses",
    "goal_cache_hits", "goal_cache_misses",
)


def _request(workload, request, config, metrics, store):
    result = repro.discover_mapping(
        request.source,
        request.target,
        algorithm=request.algorithm,
        heuristic=request.heuristic,
        correspondences=request.correspondences,
        registry=workload.registry,
        config=config,
        metrics=metrics,
        store=store,
    )
    executed = None
    if result.found and request.execute_on is not None:
        executed = repro.execute_mapping(
            result.expression, request.execute_on, registry=workload.registry
        )
    return result, executed


class Checker:
    """The correctness gate; nothing here is timed."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.pass_one_states: list[int] = []
        self._replays: dict[tuple[str, str], object] = {}

    def __call__(self, index, pass_no, request, latency, result, executed) -> bool:
        registry = self.workload.registry
        states = result.stats.states_examined
        if pass_no == 0:
            self.pass_one_states.append(states)
        elif states != self.pass_one_states[index]:
            return False
        if not result.found or latency > self.workload.deadline_s:
            return False
        if not result.expression.apply(request.source, registry).contains(
            request.target
        ):
            return False
        if request.execute_on is None:
            return True
        # The replay of one mapping on one source never changes; the
        # expression text keys it, so a different mapping replays afresh.
        key = (request.key, str(result.expression))
        if key not in self._replays:
            self._replays[key] = result.expression.apply(
                request.execute_on, registry
            )
        return executed.database == self._replays[key]


def _tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def run(args) -> dict:
    workload = inputs.build(args.workload, args.seed)
    workdir = Path(args.workdir)
    print("ready", flush=True)
    if args.probe:
        return {}

    recorder = None
    if args.trace:
        recorder = tracing.Recorder()
        tracing.install(recorder)
    config = repro.SearchConfig(deadline_seconds=workload.deadline_s)
    metrics = MetricsRegistry() if workload.service else None
    check = Checker(workload)
    samples = []
    cache = Counter()
    heuristic_cache = Counter()
    auto_choice = Counter()
    statements = 0
    store_bytes = 0
    pool_before = pool_size()

    stop_at = perf_counter() + args.seconds
    pass_no = 0
    while True:
        store = None
        if workload.service:
            store_dir = workdir / f"store-{pass_no}"
            store = WarmStartStore(store_dir)
        for index, request in enumerate(workload.schedule):
            if pass_no and perf_counter() >= stop_at:
                break
            request_id = len(samples)
            start = perf_counter()
            try:
                if recorder is None:
                    result, executed = _request(
                        workload, request, config, metrics, store
                    )
                else:
                    result, executed = recorder.request(
                        request_id, _request, workload, request, config,
                        metrics, store,
                    )
            except Exception:  # a failed request is counted, never dropped
                latency = perf_counter() - start
                traceback.print_exc()
                if pass_no == 0:
                    check.pass_one_states.append(-1)
                samples.append(
                    [latency, False, 0, request.source_rows, False, pass_no]
                )
                continue
            latency = perf_counter() - start
            ok = check(index, pass_no, request, latency, result, executed)
            if not ok:
                print(f"request {request_id} ({request.key}) failed: "
                      f"{result.status}", file=sys.stderr)
            samples.append([
                latency, ok, result.stats.states_examined,
                request.source_rows, result.served_from_store, pass_no,
            ])
            for name in CACHE_COUNTERS:
                cache[name] += getattr(result.stats, name)
            for name in ("heuristic_cache_hits", "heuristic_cache_misses"):
                heuristic_cache[f"{request.heuristic}.{name}"] += getattr(
                    result.stats, name
                )
            if executed is not None:
                auto_choice[executed.backend] += 1
                statements += executed.script.statement_count
        if store is not None:
            if pass_no == 0:
                store_bytes = _tree_bytes(store_dir)
            shutil.rmtree(store_dir, ignore_errors=True)
        pass_no += 1
        if perf_counter() >= stop_at:
            break

    out = {
        "samples": samples,
        "passes": pass_no,
        "pass_length": len(workload.schedule),
        "deadline_s": workload.deadline_s,
        "pass_states": sum(check.pass_one_states),
        "repeat_share": workload.repeat_share(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if recorder is not None:
        recorder.write(args.trace_out)
        out.update({
            "calls": dict(recorder.calls),
            "self_s": dict(recorder.self_s),
            "gc_pause_s": recorder.gc_pause_s,
            "gc_collections": recorder.gc_collections,
            "cache": dict(cache),
            "heuristic_cache": dict(heuristic_cache),
            "auto_choice": dict(auto_choice),
            "statements": statements,
            "store_bytes": store_bytes,
            "pool_growth": pool_size() - pool_before,
        })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    out = run(args)
    if not args.probe:
        print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
