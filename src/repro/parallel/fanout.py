"""Experiment fan-out: shard measured grid points across worker processes.

The paper's evaluation (Figs. 5–9) is a grid of independent measurements;
:func:`run_experiment_points` executes a list of :class:`PointSpec`\\ s
across a ``ProcessPoolExecutor`` and returns
:class:`~repro.experiments.runner.ExperimentPoint`\\ s **re-sorted by grid
index**, so callers persist results in exactly the order a serial sweep
would have produced.

Design decisions, in the order they matter:

* **Specs, not objects.**  A spec ships either plain parameters (synthetic
  sizes rebuild in the worker) or pickle-safe critical instances plus a
  *registry provider name* (see :mod:`repro.parallel.providers`) — never a
  live ``FunctionRegistry`` or a warm ``MappingProblem``.
* **Chunked dispatch, one chunk per worker.**  Chunks are dealt round-robin
  (:func:`~repro.parallel.pool.strided_chunks`), each worker runs its chunk
  serially, and module-level workload caches stay warm across the chunk's
  points (the same synthetic pair / semantic domain is rebuilt once per
  process, not once per point).
* **Per-worker trace files.**  When a spec carries a trace path, the chunk
  id is spliced in as ``.w{chunk}`` before the extension
  (:func:`~repro.parallel.pool.worker_trace_path`) so no two workers ever
  write into the same JSONL stream; the rewritten path is what lands in
  ``ExperimentPoint.trace_path`` and hence in ``trace_index_table``.
* **Determinism contract.**  Every counter a point carries (states, status,
  expression size, cache hits/misses/evictions) is bit-identical to the
  serial run; only wall-clock fields (``elapsed_seconds``) and trace paths
  (the ``.w{n}`` marker) are volatile.  :func:`normalize_point` /
  :func:`normalize_series` zero the volatile fields so archives from serial
  and parallel runs can be compared byte-for-byte.
* **Graceful degradation.**  If process pools are unavailable (ImportError,
  fork failure, broken pool mid-run, unpicklable payloads) the same chunks
  run serially in this process — identical results, no parallelism, no
  crash.  Transient pool failures are retried first
  (:func:`~repro.resilience.runtime.retry_call`, bounded with
  deterministic jittered backoff); every degradation records a
  ``resilience.*`` counter in the process-global registry, never in the
  caller's *metrics* (which must stay bit-identical to a healthy run).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from pickle import PicklingError
from typing import Sequence

from ..experiments.runner import ExperimentPoint, ExperimentSeries, _point
from ..obs.metrics import MetricsRegistry
from ..obs.sinks import JsonlSink
from ..obs.tracer import Tracer
from ..relational.database import Database
from ..resilience.faults import enter_worker, inject
from ..resilience.runtime import (
    absorb_resilience,
    resilience_counters,
    resilience_delta,
    resilience_warning,
    retry_call,
)
from ..search.config import SearchConfig
from ..search.engine import discover_mapping
from ..semantics.correspondence import Correspondence
from .pool import strided_chunks, try_executor, worker_trace_path
from .providers import resolve_registry

#: spec kinds understood by the worker
KIND_MATCHING = "matching"
KIND_DATABASES = "databases"
KIND_SEMANTIC = "semantic"

#: fault-injection sites (see repro.resilience.faults)
SITE_FANOUT_POOL = "fanout.pool"  #: parent, before the pool spins up
SITE_FANOUT_SUBMIT = "fanout.submit"  #: parent, as chunks are submitted
SITE_FANOUT_WORKER = "fanout.worker"  #: worker, on chunk entry

#: pool attempts beyond the first before degrading to serial
POOL_RETRIES = 2


@dataclass(frozen=True)
class PointSpec:
    """One measured grid point, in pickle-safe form.

    Attributes:
        index: position in the grid (collection re-sorts on this).
        kind: ``"matching"`` (rebuild the synthetic pair from ``size``),
            ``"databases"`` (ship ``source``/``target`` directly), or
            ``"semantic"`` (databases plus correspondences and a registry
            provider name).
        x: the point's independent variable, recorded verbatim.
        algorithm / heuristic / k / budget: search parameters.
        size: synthetic pair size (``matching`` kind only).
        source / target: critical instances (``databases`` / ``semantic``).
        correspondences: declared complex correspondences (``semantic``).
        registry_provider: provider name resolving the function registry in
            the worker (``semantic``; None means built-ins).
        trace_path: JSONL trace destination ("" = untraced); fan-out
            rewrites it with the worker marker before dispatch.
        store_path: warm-start store directory ("" = no store); workers
            share the path, so every point is served from and recorded in
            the same :class:`~repro.store.WarmStartStore` memo.  A point
            reads the memo only before its search starts.
        collect_metrics: record this point into the chunk's local
            :class:`~repro.obs.metrics.MetricsRegistry` for merging.
        deadline_seconds: per-point wall-clock deadline (0.0 = unbounded);
            each worker enforces it cooperatively inside its own search,
            so one slow point cannot starve the rest of the chunk.
    """

    index: int
    kind: str
    x: float
    algorithm: str
    heuristic: str
    k: float | None = None
    budget: int = 1_000_000
    size: int = 0
    source: Database | None = None
    target: Database | None = None
    correspondences: tuple[Correspondence, ...] = ()
    registry_provider: str | None = None
    trace_path: str = ""
    store_path: str = ""
    collect_metrics: bool = False
    deadline_seconds: float = 0.0


@lru_cache(maxsize=64)
def _matching_pair_cached(size: int):
    """Per-process synthetic pair cache (warm across a chunk's points)."""
    from ..workloads.synthetic import matching_pair

    return matching_pair(size)


def _execute_spec(spec: PointSpec, metrics: MetricsRegistry | None) -> ExperimentPoint:
    """Run one grid point exactly as the serial runner would."""
    if spec.kind == KIND_MATCHING:
        pair = _matching_pair_cached(spec.size)
        source, target = pair.source, pair.target
        correspondences: tuple[Correspondence, ...] = ()
        registry = None
    elif spec.kind == KIND_DATABASES:
        source, target = spec.source, spec.target
        correspondences, registry = (), None
    elif spec.kind == KIND_SEMANTIC:
        source, target = spec.source, spec.target
        correspondences = spec.correspondences
        registry = resolve_registry(spec.registry_provider)
    else:
        raise ValueError(f"unknown point spec kind {spec.kind!r}")
    tracer = Tracer(JsonlSink(spec.trace_path)) if spec.trace_path else None
    try:
        result = discover_mapping(
            source,
            target,
            algorithm=spec.algorithm,
            heuristic=spec.heuristic,
            k=spec.k,
            correspondences=correspondences,
            registry=registry,
            config=SearchConfig(
                max_states=spec.budget,
                deadline_seconds=spec.deadline_seconds or None,
            ),
            simplify=False,
            tracer=tracer,
            metrics=metrics,
            store=spec.store_path or None,
        )
    finally:
        if tracer is not None:
            tracer.close()
    return _point(spec.x, result, spec.trace_path)


def _run_chunk(
    specs: Sequence[PointSpec],
) -> tuple[list[tuple[int, ExperimentPoint]], MetricsRegistry | None]:
    """Worker entry point: run one chunk serially, return indexed points.

    The chunk shares one local :class:`MetricsRegistry` (when any spec asks
    for metrics), mirroring how a serial sweep accumulates into a single
    registry; the parent merges chunk registries on collection.
    """
    metrics = MetricsRegistry() if any(s.collect_metrics for s in specs) else None
    out: list[tuple[int, ExperimentPoint]] = []
    for spec in specs:
        out.append((spec.index, _execute_spec(spec, metrics)))
    return out, metrics


def _run_chunk_pooled(
    specs: Sequence[PointSpec],
) -> tuple[
    list[tuple[int, ExperimentPoint]], MetricsRegistry | None, dict[str, int]
]:
    """Pool-dispatched chunk entry: arm worker-scope faults, then run.

    ``enter_worker()`` marks this process so ``scope="worker"`` fault specs
    fire here but *not* during a serial fallback re-run in the parent —
    otherwise an injected worker crash would take the parent down with it.

    The third element is the chunk's ``resilience.*`` counter delta — the
    warnings this worker raised (e.g. its tracer degrading to untraced) —
    which the parent absorbs into its own ledger on collection.
    """
    baseline = resilience_counters()
    enter_worker()
    inject(SITE_FANOUT_WORKER, key=f"chunk{specs[0].index}" if specs else None)
    points, metrics = _run_chunk(specs)
    return points, metrics, resilience_delta(baseline)


def _mark_worker_traces(chunks: list[list[PointSpec]]) -> list[list[PointSpec]]:
    """Rewrite each traced spec's path with its chunk's ``.w{n}`` marker."""
    marked: list[list[PointSpec]] = []
    for worker_id, chunk in enumerate(chunks):
        marked.append(
            [
                replace(s, trace_path=worker_trace_path(s.trace_path, worker_id))
                if s.trace_path
                else s
                for s in chunk
            ]
        )
    return marked


def run_experiment_points(
    specs: Sequence[PointSpec],
    workers: int,
    start_method: str | None = None,
    metrics: MetricsRegistry | None = None,
) -> list[ExperimentPoint]:
    """Execute *specs* on a pool of *workers* processes.

    Points come back sorted by grid index — byte-identical (modulo
    wall-clock and trace-path markers) to running the specs serially.
    Metrics observed by workers merge into *metrics* in chunk order
    (commutative adds, so ordering cannot change totals).

    Degrades to serial in-process execution when pools are unavailable,
    break mid-run (retried up to :data:`POOL_RETRIES` times first — the
    chunks are side-effect-idempotent, so a full redo is safe), or the
    payload fails to pickle; every degradation records a ``resilience.*``
    counter.  An explicitly invalid *start_method* still raises.
    """
    if not specs:
        return []
    chunks = _mark_worker_traces(strided_chunks(list(specs), max(1, workers)))
    outcomes: list[tuple] | None = None
    if workers >= 1:
        from concurrent.futures.process import BrokenProcessPool

        def _pooled():
            inject(SITE_FANOUT_POOL)
            executor = try_executor(len(chunks), start_method)
            if executor is None:
                return None  # pool machinery unavailable on this platform
            with executor:
                inject(SITE_FANOUT_SUBMIT)
                return list(executor.map(_run_chunk_pooled, chunks))

        try:
            outcomes = retry_call(
                _pooled,
                site=SITE_FANOUT_POOL,
                retries=POOL_RETRIES,
                retry_on=(BrokenProcessPool, OSError),
            )
        except (BrokenProcessPool, OSError, PicklingError) as exc:
            resilience_warning(
                "parallel_degraded", f"{type(exc).__name__}: {exc}"
            )
            outcomes = None
        if outcomes is None:
            resilience_warning("serial_fallbacks", f"{len(chunks)} chunk(s)")
    if outcomes is None:
        # serial fallback: warnings land directly in this process's
        # ledger, so the shipped delta is empty by construction
        outcomes = [(*_run_chunk(chunk), {}) for chunk in chunks]
    indexed: list[tuple[int, ExperimentPoint]] = []
    for chunk_points, chunk_metrics, chunk_resilience in outcomes:
        indexed.extend(chunk_points)
        if metrics is not None and chunk_metrics is not None:
            metrics.merge_from(chunk_metrics)
        absorb_resilience(chunk_resilience)
    indexed.sort(key=lambda item: item[0])
    return [point for _index, point in indexed]


# -- determinism contract helpers -------------------------------------------


def normalize_point(point: ExperimentPoint) -> ExperimentPoint:
    """Zero the volatile fields of a point (wall-clock, trace path).

    What remains is the deterministic payload the parallel layer guarantees
    bit-identical to a serial run: x, states, status, expression size, and
    every cache counter.
    """
    return replace(point, elapsed_seconds=0.0, trace_path="")


def normalize_series(series: ExperimentSeries) -> ExperimentSeries:
    """A copy of *series* with every point normalized (label untouched)."""
    return ExperimentSeries(
        label=series.label,
        points=tuple(normalize_point(p) for p in series.points),
    )
