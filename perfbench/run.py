"""End-to-end and per-layer benchmark of the TUPELO reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see ``BENCHMARK.json`` for why each was chosen):

``fig5_search``      Experiment 1 pairs under blind IDA*/h0 (n=5-6) and the
                     informed RBFS/euclid and IDA/cosine (n=7).
``mapping_service``  A stream of BAMM interface and Fig. 9 semantic requests,
                     a third of them repeats, with the Fig. 1 Flights B->A
                     and B->C mappings discovered and then executed on
                     5,000-row FlightsB sources by the ``auto`` backend, all
                     through a warm-start store and a metrics registry.

Each run starts fresh interpreters (``worker.py``) with ``src`` on the path:
the measuring worker, a single closed-loop client, between six cold-start
probes under ``-X importtime``, three before it and three after.
``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload twice for half the time each, untraced then with spans recorded
around every layer, and prints the per-layer metrics; the spans are
written to ``.perfbench/trace-<workload>-seed<n>.jsonl``.

What each per-layer metric should move, and where:

* ``import.*`` -> ``setup_s``, equally on every workload.
* ``search.successors.*``, ``fira.apply.*``, ``search.goal.*``,
  ``search.algorithm.self_s`` -> ``states_per_s`` and ``request_p50_s``
  on ``fig5_search``.
* ``heuristics.*`` -> ``request_p50_s`` on ``fig5_search``; the h0 share
  stays near zero, because h0 answers without looking at the state.
* ``search.setup_s``, ``search.simplify_s``, ``store.*``,
  ``obs.metrics.publish_s`` -> ``request_p50_s`` and ``request_p90_s`` on
  ``mapping_service``; no change on ``fig5_search``.
* ``relational.intern.pool_growth``, ``runtime.gc.*`` -> ``peak_rss_mb`` on
  ``mapping_service`` and ``request_p50_s`` on ``fig5_search``.
* ``fira.sqlcompile.*``, ``backends.*`` -> ``rows_per_s`` and
  ``throughput_rps`` on ``mapping_service``; no change on ``fig5_search``.

Every ``*_s`` layer time is self time: the layer's spans minus the child
spans inside them.  A request that fails (not found, past its deadline,
wrong result, or a ``states_examined`` that differs from pass one) counts
against ``verified_frac`` and as infinitely slow in the latency figures.
The run exits non-zero without a result when it cannot start the program.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ("fig5_search", "mapping_service")

#: cold starts per run besides the measuring worker(s); setup_s is the median
SETUP_PROBES = 6
#: a worker is killed after its measuring time plus this much
WORKER_GRACE_S = 100.0

#: module whose cumulative ``-X importtime`` figure each metric reports
IMPORTS = {
    "import.repro_s": "repro",
    "import.repro.heuristics_s": "repro.heuristics",
    "import.repro.backends_s": "repro.backends",
    "import.repro.minisql_s": "repro.minisql",
    "import.repro.parallel_s": "repro.parallel",
    "import.repro.obs_s": "repro.obs",
}
FAMILIES = (
    "rename_att", "rename_rel", "drop", "select", "promote", "demote",
    "deref", "partition", "merge", "product", "apply",
)
HEURISTICS = ("h0", "euclid", "cosine")
ENGINES = ("duckdb", "minisql", "sqlite")


class BenchError(RuntimeError):
    """The program could not be run; no result is printed."""


def _worker(workdir: Path, label: str, args: list[str], limit_s: float):
    """Run one fresh worker; returns (seconds to ready, imports, result)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    command = [
        sys.executable, "-X", "importtime", str(HERE / "worker.py"),
        "--workdir", str(workdir), *args,
    ]
    err_path = workdir / f"{label}.err"
    with open(err_path, "w", encoding="utf-8") as err:
        launched = perf_counter()
        proc = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err,
            text=True,
        )
        watchdog = threading.Timer(limit_s, proc.kill)
        watchdog.start()
        try:
            first = proc.stdout.readline()
            ready_s = perf_counter() - launched
            rest = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
    log = err_path.read_text(encoding="utf-8", errors="replace")
    if proc.returncode != 0 or first.strip() != "ready":
        tail = "\n".join(
            line for line in log.splitlines() if "import time:" not in line
        )[-3000:]
        raise BenchError(f"worker {label} exited {proc.returncode}:\n{tail}")
    sys.stderr.write("".join(
        line + "\n" for line in log.splitlines() if "import time:" not in line
    ))
    result = json.loads(rest.strip().splitlines()[-1]) if rest.strip() else {}
    return ready_s, _import_times(log), result


def _import_times(log: str) -> dict[str, float]:
    """First cumulative ``-X importtime`` figure per module, in seconds."""
    seen: dict[str, float] = {}
    for line in log.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        seen.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
    return seen


def _quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile; ``inf`` entries sort last."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    if math.isinf(ordered[high]):
        return ordered[high] if pos > low else ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def end_to_end(result: dict, setup: list[float]) -> dict:
    samples = result["samples"]
    verified = [s for s in samples if s[1]]
    latencies = [s[0] if s[1] else math.inf for s in samples]

    def latency(q):
        # A failed request misses every latency figure; report at least
        # the request deadline when the quantile lands on one.
        value = _quantile(latencies, q)
        return result["deadline_s"] if math.isinf(value) else value

    # Rates are the median over complete passes, so one pass slowed by
    # something else on the machine does not move them.
    passes: dict[int, list] = {}
    for s in samples:
        passes.setdefault(s[5], []).append(s)
    complete = [p for p in passes.values() if len(p) == result["pass_length"]]

    def rate(amount):
        return statistics.median(
            sum(amount(s) for s in p) / sum(s[0] for s in p) for p in complete
        )

    return {
        "setup_s": statistics.median(setup),
        "request_p50_s": latency(0.5),
        "request_p90_s": latency(0.9),
        "throughput_rps": rate(lambda s: s[1]),
        "states_per_s": rate(lambda s: s[2]),
        "states_examined": result["pass_states"],
        "verified_frac": len(verified) / len(samples),
        "peak_rss_mb": result["peak_rss_mb"],
        "rows_per_s": rate(lambda s: s[3] * s[1]),
    }


def per_layer(untraced: dict, traced: dict, imports: list[dict]) -> dict:
    calls, own = traced["calls"], traced["self_s"]
    cache, heuristic_cache = traced["cache"], traced["heuristic_cache"]
    busy = sum(s[0] for s in traced["samples"])
    requests = len(traced["samples"])

    def ratio(hits, misses):
        return hits / (hits + misses) if hits + misses else 0.0

    out = {
        name: statistics.median(run.get(module, 0.0) for run in imports)
        for name, module in IMPORTS.items()
    }
    for layer, key in (("search.successors", "successor"), ("search.goal", "goal")):
        out[f"{layer}.calls"] = calls.get(layer, 0)
        out[f"{layer}.time_s"] = own.get(layer, 0.0)
        out[f"{layer}.cache_hit_ratio"] = ratio(
            cache[f"{key}_cache_hits"], cache[f"{key}_cache_misses"]
        )
    out["search.successors.share"] = own.get("search.successors", 0.0) / busy
    for family in FAMILIES:
        out[f"fira.apply.{family}_s"] = own.get(f"fira.apply.{family}", 0.0)
    out["search.algorithm.self_s"] = own.get("search.algorithm", 0.0)
    for name in HEURISTICS:
        span = f"heuristics.{name}"
        out[f"{span}.calls"] = calls.get(span, 0)
        out[f"{span}.time_s"] = own.get(span, 0.0)
        out[f"{span}.share"] = own.get(span, 0.0) / busy
        out[f"{span}.memo_hit_ratio"] = ratio(
            heuristic_cache.get(f"{name}.heuristic_cache_hits", 0),
            heuristic_cache.get(f"{name}.heuristic_cache_misses", 0),
        )
    out["search.setup_s"] = own.get("search.setup", 0.0)
    out["search.simplify_s"] = own.get("search.simplify", 0.0)
    for action in ("serve", "record", "preseed", "export"):
        out[f"store.{action}_s"] = own.get(f"store.{action}", 0.0)
    served = sum(1 for s in traced["samples"] if s[4])
    out["store.hit_ratio"] = served / requests if calls.get("store.serve") else 0.0
    out["store.bytes"] = traced["store_bytes"]
    out["obs.metrics.publish_s"] = own.get("obs.metrics.publish", 0.0)
    out["relational.intern.pool_growth"] = traced["pool_growth"]
    out["runtime.gc.pause_s"] = traced["gc_pause_s"]
    out["runtime.gc.collections"] = traced["gc_collections"]
    out["runtime.gc.share"] = traced["gc_pause_s"] / busy
    out["fira.sqlcompile.compile_s"] = own.get("fira.sqlcompile", 0.0)
    out["fira.sqlcompile.statements"] = traced["statements"]
    executions = sum(traced["auto_choice"].values())
    for engine in ENGINES:
        out[f"backends.{engine}.execute_s"] = own.get(f"backends.{engine}.execute", 0.0)
        out[f"backends.auto_choice.{engine}"] = (
            traced["auto_choice"].get(engine, 0) / executions if executions else 0.0
        )
    # Both runs replay the same schedule, so their first m requests match.
    m = min(len(untraced["samples"]), requests)
    out["trace.overhead_frac"] = (
        sum(s[0] for s in traced["samples"][:m])
        / sum(s[0] for s in untraced["samples"][:m])
        - 1.0
    )
    return out


def run(args) -> dict:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    base = ROOT / ".perfbench"
    workdir = base / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        common = ["--workload", args.workload, "--seed", str(args.seed)]
        setup, imports = [], []

        def probe(i):
            ready_s, imported, _ = _worker(
                workdir, f"probe{i}", [*common, "--probe"], WORKER_GRACE_S
            )
            setup.append(ready_s)
            imports.append(imported)

        def measure(label, seconds, trace):
            extra = ["--seconds", str(seconds), "--trace", str(trace)]
            if trace:
                extra += ["--trace-out", str(
                    base / f"trace-{args.workload}-seed{args.seed}.jsonl"
                )]
            ready_s, imported, result = _worker(
                workdir, label, [*common, *extra], seconds + WORKER_GRACE_S
            )
            setup.append(ready_s)
            imports.append(imported)
            return result

        # Half the cold starts come before the measuring and half after,
        # so setup_s samples the machine at both ends of the run.
        for i in range(SETUP_PROBES // 2):
            probe(i)
        if args.trace:
            results = [
                measure("untraced", args.seconds / 2, 0),
                measure("traced", args.seconds / 2, 1),
            ]
        else:
            results = [measure("measure", args.seconds, 0)]
        for i in range(SETUP_PROBES // 2, SETUP_PROBES):
            probe(i)
        if args.trace:
            metrics = per_layer(*results, imports)
        else:
            metrics = end_to_end(results[0], setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    samples = [s for result in results for s in result["samples"]]
    failed = sum(1 for s in samples if not s[1])
    first = results[0]
    print(
        f"{args.workload} seed {args.seed}: {len(samples)} requests, "
        f"{first['passes']} passes of {first['pass_length']}, "
        f"repeat share {first['repeat_share']:.3f}, {failed} failed",
        file=sys.stderr,
    )
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    for m in wanted:
        print(f"  {m['name']:<40} {metrics[m['name']]:>14.6g} {m['unit']}",
              file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        summary = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
