"""The mapping-discovery search problem (§2.3).

Given source and target critical instances, :class:`MappingProblem` defines
the state space TUPELO explores: states are whole databases, the initial
state is the source instance, moves are instances of the L operators, and
the goal test is "the state contains the target instance" (structurally
identical superset).

Successor generation implements the paper's "simple enhancements to search":
*obviously inapplicable transformations are disregarded* —

* an operator is proposed only if it can supply a missing target token
  (e.g. attribute renames are skipped once every target attribute name is
  present, promotes are proposed only for columns whose values include a
  missing target attribute name, ...);
* runs of consecutive commuting operators (attribute renames, drops, λ
  applications, relation renames) are canonicalised to sorted order, so the
  search does not explore the factorially many equivalent orderings.

Both behaviours are controlled by :class:`~repro.search.config.SearchConfig`
so the ablation benches can measure their impact.

**Transposition table.**  IDA* and RBFS accept "redundant explorations" as
the price of linear memory (§2.3): the same state is re-expanded on every
deepening iteration / backtrack.  Because states are immutable and hashable,
re-deriving its successor list (and goal verdict) each time is pure waste —
:class:`MappingProblem` therefore memoises ``successors(state, last_op)``
results and ``is_goal(state)`` verdicts.  The successor key includes the
*canonical symmetry key* of ``last_op`` (the part of the producing operator
the symmetry-breaking rules actually consult), so cached results are exact.
``SearchConfig.cache_capacity`` bounds the table (LRU eviction); hit / miss /
eviction counts and per-phase timings land in
:class:`~repro.search.stats.SearchStats`.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import lru_cache
from time import perf_counter
from typing import Iterable, Sequence

from ..fira.base import Operator
from ..fira.combine import CartesianProduct, Merge
from ..fira.dynamic import (
    DEMOTE_ATT_ATTR,
    DEMOTE_REL_ATTR,
    Demote,
    Dereference,
    Partition,
    Promote,
)
from ..fira.renames import RenameAttribute, RenameRelation
from ..fira.semantic import ApplyFunction
from ..fira.structure import DropAttribute
from ..errors import (
    NameCollisionError,
    OperatorApplicationError,
    SchemaError,
    SearchCancelled,
)
from ..obs.events import CACHE_HIT, CACHE_MISS, GENERATE, GOAL_TEST
from ..relational.database import Database
from ..relational.intern import intern_value
from ..relational.relation import (
    FLYWEIGHT_CACHE_SIZE,
    Relation,
    _interned_name_set,
)
from ..semantics.correspondence import Correspondence
from ..semantics.functions import FunctionRegistry, builtin_registry
from .cancel import CancelToken
from .config import SearchConfig
from .stats import SearchStats

#: deterministic exploration order of operator families (cheap fixes first)
_FAMILY_ORDER: dict[str, int] = {
    "rename_att": 0,
    "rename_rel": 1,
    "apply": 2,
    "promote": 3,
    "partition": 4,
    "merge": 5,
    "drop": 6,
    "deref": 7,
    "demote": 8,
    "product": 9,
}

_RESERVED_ATTRS = (DEMOTE_REL_ATTR, DEMOTE_ATT_ATTR)

# Distinguishes "no cached verdict" from a cached False in the goal table
# (goal verdicts are overwhelmingly False, so a None-probe would pay a
# second lookup on virtually every hit).
_GOAL_MISS = object()


# Flyweight constructors for the operators proposed in per-attribute loops.
# Operators are frozen values over one problem's relation and attribute
# names, so proposal can reuse one instance per argument triple instead of
# re-running a dataclass __init__ once per expansion.  The key space grows
# with every distinct schema a process serves, so the caches are bounded
# (FLYWEIGHT_CACHE_SIZE, LRU) like the relation-level flyweights.
@lru_cache(maxsize=FLYWEIGHT_CACHE_SIZE)
def _rename_attribute_op(relation: str, old: str, new: str) -> RenameAttribute:
    return RenameAttribute(relation, old, new)


@lru_cache(maxsize=FLYWEIGHT_CACHE_SIZE)
def _sorted_names(names: frozenset[str]) -> tuple[str, ...]:
    """Deterministic ordering of a schema-vocabulary name set, memoised.

    The proposal rules enumerate "wanted" attribute/relation sets in sorted
    order; the same small sets recur across thousands of expansions.
    """
    return tuple(sorted(names))


@lru_cache(maxsize=FLYWEIGHT_CACHE_SIZE)
def _dereference_op(relation: str, pointer: str, new: str) -> Dereference:
    return Dereference(relation, pointer, new)


@lru_cache(maxsize=FLYWEIGHT_CACHE_SIZE)
def _promote_op(relation: str, name_attr: str, value_attr: str) -> Promote:
    return Promote(relation, name_attr, value_attr)


class MappingProblem:
    """The search problem for one source/target critical-instance pair.

    Args:
        source: source critical instance (initial state).
        target: target critical instance (goal pattern).
        correspondences: declared complex semantic correspondences (§4);
            each may be applied as a λ operator during search.
        registry: function registry resolving λ symbols; defaults to the
            built-ins.
        config: search knobs (budget, pruning, operator families).
        cancel: optional :class:`~repro.search.cancel.CancelToken`;
            :meth:`successors` polls it once per expansion and raises
            :class:`~repro.errors.SearchCancelled` when set, so even
            algorithms that examine states in coarse bursts (beam layers)
            react to cancellation within one expansion.
    """

    def __init__(
        self,
        source: Database,
        target: Database,
        correspondences: Sequence[Correspondence] = (),
        registry: FunctionRegistry | None = None,
        config: SearchConfig | None = None,
        cancel: CancelToken | None = None,
    ) -> None:
        self.source = source
        self.target = target
        self.correspondences = tuple(correspondences)
        self.registry = registry if registry is not None else builtin_registry()
        self.config = config if config is not None else SearchConfig()
        self.cancel_token = cancel
        for corr in self.correspondences:
            corr.check_signature(self.registry)

        # Target views consulted by the pruning rules.
        self._target_rels = frozenset(target.relation_names)
        self._target_atts = frozenset(target.attribute_names())
        self._target_attrs_by_rel = {
            rel.name: rel.attribute_set for rel in target
        }
        self._target_value_text_ids = target.value_text_ids()
        self._target_rel_ids = frozenset(
            intern_value(name) for name in self._target_rels
        )

        # Transposition table (successor lists), goal-verdict table, and the
        # state intern table (canonical object per state value, so re-derived
        # equal states share one set of memoised views).
        self._successor_cache: OrderedDict[
            tuple[Database, object], list[tuple[Operator, Database]]
        ] = OrderedDict()
        self._goal_cache: OrderedDict[Database, bool] = OrderedDict()
        self._interned: OrderedDict[Database, Database] = OrderedDict()
        # Per-relation proposal table: promote/dereference/merge moves and
        # partition/demote candidate token sets depend only on the relation
        # *value* (plus this problem's fixed target views), never on the
        # rest of the state — and operators pass untouched relations through
        # by reference, so consecutive states share almost all relations.
        # Memoising per relation value turns the per-expansion proposal cost
        # from O(state cells) into O(changed cells).
        self._relation_move_cache: OrderedDict[tuple, object] = OrderedDict()
        # Fixed per problem: which non-symmetry families the config allows
        # (the static bundle shape — see _static_moves).
        self._partition_allowed = self.config.allows("partition")
        self._demote_allowed = self.config.allows("demote")
        self._static_families = tuple(
            family
            for family in ("promote", "partition", "merge", "deref", "demote")
            if self.config.allows(family)
        )

    def __getstate__(self) -> dict:
        """Pickle the problem without its memo tables.

        The transposition, goal-verdict, and intern tables can hold every
        state the search touched — megabytes of memoised views that would
        all ship on a process boundary.  They are pure caches and rebuild
        lazily, so a pickled problem carries only its definition.  (The
        registry must itself be picklable; the parallel layer sidesteps
        that by shipping registry *provider names* instead — see
        :mod:`repro.parallel.providers`.)
        """
        state = dict(self.__dict__)
        state["_successor_cache"] = OrderedDict()
        state["_goal_cache"] = OrderedDict()
        state["_interned"] = OrderedDict()
        state["_relation_move_cache"] = OrderedDict()
        # Cancel tokens may wrap process-local synchronisation primitives;
        # cancellation never crosses a pickle boundary implicitly.
        state["cancel_token"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    # -- problem interface -----------------------------------------------------

    def initial_state(self) -> Database:
        """The initial search state (the source critical instance)."""
        return self.source

    def clear_caches(self) -> None:
        """Drop the transposition, goal-verdict, intern, and proposal tables."""
        self._successor_cache.clear()
        self._goal_cache.clear()
        self._interned.clear()
        self._relation_move_cache.clear()

    def _relation_view(self, key: tuple, rel: Relation, build) -> object:
        """Memoise a per-relation proposal view (LRU, capacity-bound).

        *key* is chosen by the caller: data-dependent views key on the
        relation *value*, schema-only views (rename groups, drops, merges,
        demote candidates) key on ``(name, attributes, ...)`` so they are
        shared across states whose relations differ only in data.
        """
        cache = self._relation_move_cache
        value = cache.get(key)
        capacity = self.config.cache_capacity
        if value is not None:
            if capacity is not None:  # LRU order only matters when bounded
                cache.move_to_end(key)
            return value
        value = cache[key] = build(rel)
        if capacity is not None and len(cache) > capacity:
            cache.popitem(last=False)
        return value

    def _intern(self, state: Database) -> Database:
        """The canonical object for *state* (first-seen equal value wins).

        Search re-derives equal databases along many paths; returning one
        canonical object per value means every memoised view (column texts,
        TNF triples, ...) is computed once per *value* instead of once per
        derivation.  Semantically free: databases are immutable and compare
        by value.
        """
        interned = self._interned.get(state)
        capacity = self.config.cache_capacity
        if interned is not None:
            if capacity is not None:  # LRU order only matters when bounded
                self._interned.move_to_end(state)
            return interned
        self._interned[state] = state
        if capacity is not None and len(self._interned) > capacity:
            self._interned.popitem(last=False)
        return state

    def is_goal(
        self, state: Database, stats: SearchStats | None = None
    ) -> bool:
        """Goal test: *state* contains the target critical instance.

        Verdicts are memoised; time spent and hit/miss counts are recorded
        on *stats* when given.
        """
        start = perf_counter()
        tracer = stats.tracer if stats is not None else None
        try:
            cache = self._goal_cache
            verdict = cache.get(state, _GOAL_MISS)
            if verdict is not _GOAL_MISS:
                if self.config.cache_capacity is not None:
                    cache.move_to_end(state)
                if stats is not None:
                    stats.goal_cache_hits += 1
                if tracer is not None and tracer.enabled:
                    tracer.emit(CACHE_HIT, cache="goal")
                    tracer.emit(GOAL_TEST, verdict=verdict, cached=True)
                return verdict
            verdict = state.contains(self.target)
            cache[state] = verdict
            if stats is not None:
                stats.goal_cache_misses += 1
            if tracer is not None and tracer.enabled:
                tracer.emit(CACHE_MISS, cache="goal")
                tracer.emit(GOAL_TEST, verdict=verdict, cached=False)
            capacity = self.config.cache_capacity
            if capacity is not None and len(cache) > capacity:
                cache.popitem(last=False)
                if stats is not None:
                    stats.goal_cache_evictions += 1
            return verdict
        finally:
            if stats is not None:
                stats.time_in_goal_tests += perf_counter() - start

    def successors(
        self,
        state: Database,
        last_op: Operator | None = None,
        stats: SearchStats | None = None,
    ) -> list[tuple[Operator, Database]]:
        """Applicable, pruned, deduplicated moves from *state*.

        *last_op* is the operator that produced *state* (None at the root);
        it drives the symmetry-breaking canonicalisation of commuting runs.
        Results are deterministic: sorted by family order then textual form.

        Results are served from the transposition table keyed by
        ``(state, symmetry key of last_op)``; a hit skips proposal and
        operator application entirely.  ``stats.states_generated`` counts
        successors *delivered*, hits included.

        Limit checks: each call polls the problem's cancel token and, via
        *stats*, the wall-clock deadline — one check per expansion keeps
        every algorithm (including beam's layer-wide bursts) responsive.
        """
        if self.cancel_token is not None and self.cancel_token.cancelled:
            raise SearchCancelled(
                stats.states_examined if stats is not None else 0
            )
        if stats is not None:
            stats.check_limits()
        start = perf_counter()
        tracer = stats.tracer if stats is not None else None
        try:
            key = (state, self._symmetry_key(last_op))
            cache = self._successor_cache
            hit = cache.get(key)
            if hit is not None:
                if self.config.cache_capacity is not None:
                    cache.move_to_end(key)
                if stats is not None:
                    stats.successor_cache_hits += 1
                    stats.generated(len(hit))
                if tracer is not None and tracer.enabled:
                    tracer.emit(CACHE_HIT, cache="successor")
                    self._emit_generate(tracer, hit, cached=True)
                return list(hit)
            out = self._compute_successors(state, last_op)
            cache[key] = out
            if stats is not None:
                stats.successor_cache_misses += 1
                stats.generated(len(out))
            if tracer is not None and tracer.enabled:
                tracer.emit(CACHE_MISS, cache="successor")
                self._emit_generate(tracer, out, cached=False)
            capacity = self.config.cache_capacity
            if capacity is not None and len(cache) > capacity:
                cache.popitem(last=False)
                if stats is not None:
                    stats.successor_cache_evictions += 1
            return list(out)
        finally:
            if stats is not None:
                stats.time_in_successors += perf_counter() - start

    @staticmethod
    def _emit_generate(
        tracer, successors: Sequence[tuple[Operator, Database]], cached: bool
    ) -> None:
        """Emit one ``generate`` event with per-operator-family counts."""
        ops: dict[str, int] = {}
        for op, _child in successors:
            ops[op.keyword] = ops.get(op.keyword, 0) + 1
        tracer.emit(GENERATE, count=len(successors), cached=cached, ops=ops)

    def _symmetry_key(self, last_op: Operator | None) -> object:
        """The part of *last_op* the proposal rules actually consult.

        Successor sets depend on the producing operator only through the
        symmetry-breaking comparisons in ``_propose_attribute_renames``,
        ``_propose_relation_renames``, and ``_propose_drops`` — all other
        operator classes (and ``break_symmetry=False``) make the successor
        set independent of ``last_op``, so they share one canonical key.
        """
        if not self.config.break_symmetry or last_op is None:
            return None
        if isinstance(last_op, RenameAttribute):
            return ("rename_att", last_op.relation, last_op.old)
        if isinstance(last_op, RenameRelation):
            return ("rename_rel", last_op.old)
        if isinstance(last_op, DropAttribute):
            return ("drop", last_op.relation, last_op.attribute)
        return None

    def _compute_successors(
        self, state: Database, last_op: Operator | None
    ) -> list[tuple[Operator, Database]]:
        """Uncached successor generation (propose, apply, deduplicate)."""
        moves = self._propose(state, last_op)
        moves.sort(key=lambda op: (_FAMILY_ORDER.get(op.keyword, 99), str(op)))
        out: list[tuple[Operator, Database]] = []
        seen: set[Database] = {state}
        for op in moves:
            try:
                child = op.apply(state, self.registry)
            except (OperatorApplicationError, SchemaError, NameCollisionError):
                continue
            if child in seen:
                continue  # no-op or duplicate of an earlier move
            seen.add(child)
            out.append((op, self._intern(child)))
        return out

    # -- proposal rules -----------------------------------------------------------

    def _propose(self, state: Database, last_op: Operator | None) -> list[Operator]:
        """All applicable moves from *state* (order-free; callers sort).

        Symmetry-broken families (attribute renames, drops) and relation
        renames consult *last_op*; everything else is served from one
        per-relation "static bundle" probe — see :meth:`_static_moves`.
        """
        config = self.config
        prune = config.prune_targets
        moves: list[Operator] = []
        missing_rels = self._target_rels.difference(state.relation_name_view())

        if config.allows("rename_att"):
            moves.extend(self._propose_attribute_renames(state, last_op))
        if config.allows("rename_rel") and (missing_rels or not prune):
            moves.extend(self._propose_relation_renames(state, missing_rels, last_op))
        if config.allows("apply"):
            moves.extend(self._propose_lambdas(state, last_op))
        if config.allows("drop"):
            moves.extend(self._propose_drops(state, last_op))

        if self._static_families:
            demote_missing: frozenset = frozenset()
            if self._demote_allowed and prune:
                demote_missing = (
                    self._target_value_text_ids - state.value_text_ids()
                )
            view = self._relation_view
            data_build = self._data_moves
            schema_build = self._schema_moves
            for rel in state:
                promote, deref = view(("moves", rel), rel, data_build)
                merge, demote = view(
                    ("schema", rel.name, rel.attributes, rel.has_nulls),
                    rel,
                    schema_build,
                )
                moves.extend(promote)
                moves.extend(merge)
                moves.extend(deref)
                if demote is None or not demote_missing.isdisjoint(demote):
                    moves.append(Demote(rel.name))

        if self._partition_allowed and (missing_rels or not prune):
            moves.extend(self._propose_partitions(state, missing_rels))
        if config.allows("product"):
            moves.extend(self._propose_products(state))
        return moves

    def _data_moves(self, rel: Relation) -> tuple[tuple, tuple]:
        """Promote and dereference moves: the data-dependent bundle.

        Both families test column *contents* against target token sets, so
        their probe keys on the relation value.  (Partitions stay separate:
        they are gated on missing target relations, and folding them in
        would charge their candidate computation to states the original
        rule never touched.)  Families the config disallows contribute
        empty entries, so the bundle shape is fixed per problem.
        """
        config = self.config
        promote = self._promote_moves(rel) if config.allows("promote") else ()
        deref = self._deref_moves(rel) if config.allows("deref") else ()
        return (promote, deref)

    def _schema_moves(self, rel: Relation) -> tuple[tuple, frozenset | None]:
        """Merge moves and demote candidates: the schema-only bundle.

        Neither family inspects column contents — merges depend on the
        attribute names plus the has-nulls bit, demote candidates on the
        schema names — so the probe keys on ``(name, attributes,
        has_nulls)`` and is shared across states whose relations differ
        only in data.  Demote candidates: ``None`` = always fires
        (non-prune), empty = never (disallowed).
        """
        config = self.config
        merge = self._merge_moves(rel) if config.allows("merge") else ()
        demote: frozenset | None
        if self._demote_allowed:
            demote = self._demote_candidates(rel) if config.prune_targets else None
        else:
            demote = frozenset()
        return (merge, demote)

    def _propose_partitions(
        self, state: Database, missing_rels: frozenset[str]
    ) -> list[Operator]:
        moves: list[Operator] = []
        if not self.config.prune_targets:
            for rel in state:
                for attr in rel.attributes:
                    moves.append(Partition(rel.name, attr))
            return moves
        # Candidate tokens per column are relation-local; only the
        # "is the candidate still missing" test depends on the state.
        missing = _interned_name_set(missing_rels)
        view = self._relation_view
        build = self._partition_candidates
        for rel in state:
            for attr, cand in view(("partition", rel), rel, build):
                if not missing.isdisjoint(cand):
                    moves.append(Partition(rel.name, attr))
        return moves

    def _missing_atts_for(self, rel: Relation) -> frozenset[str]:
        """Target attributes the relation still lacks.

        If the target has a relation of the same name, aim for its
        attributes; otherwise aim for the union of target attributes.
        """
        wanted = self._target_attrs_by_rel.get(rel.name, self._target_atts)
        return frozenset(wanted) - rel.attribute_set

    def _propose_attribute_renames(
        self, state: Database, last_op: Operator | None
    ) -> list[Operator]:
        # The symmetry break ("canonical order within a run of renames")
        # depends on the last operator only through a floor attribute, so
        # the cache holds moves grouped by renamed-from attribute and the
        # floor filter runs over the (short) group list per state.
        follows_rename = self.config.break_symmetry and isinstance(
            last_op, RenameAttribute
        )
        view = self._relation_view
        build = self._attribute_rename_groups
        moves: list[Operator] = []
        for rel in state:
            floor = (
                last_op.old
                if follows_rename and last_op.relation == rel.name
                else None
            )
            # schema key: rename groups never look at column contents
            groups = view(("rename_att", rel.name, rel.attributes), rel, build)
            if not groups:
                continue
            if floor is None:
                for _old, group in groups:
                    moves.extend(group)
            else:
                for old, group in groups:
                    if old > floor:  # canonical order within a run of renames
                        moves.extend(group)
        return moves

    def _attribute_rename_groups(
        self, rel: Relation
    ) -> tuple[tuple[str, tuple[Operator, ...]], ...]:
        prune = self.config.prune_targets
        if prune:
            wanted = self._missing_atts_for(rel)
        else:
            wanted = self._target_atts - rel.attribute_set
        if not wanted:
            return ()
        ordered = _sorted_names(wanted)
        target_atts = self._target_atts
        name = rel.name
        make = _rename_attribute_op
        groups: list[tuple[str, tuple[Operator, ...]]] = []
        for old in rel.attributes:
            if prune and old in target_atts:
                continue  # never rename away a name the target uses
            groups.append((old, tuple([make(name, old, new) for new in ordered])))
        return tuple(groups)

    def _propose_relation_renames(
        self,
        state: Database,
        missing_rels: frozenset[str],
        last_op: Operator | None,
    ) -> list[Operator]:
        ordered = _sorted_names(missing_rels)
        prune = self.config.prune_targets
        follows_rename = self.config.break_symmetry and isinstance(
            last_op, RenameRelation
        )
        moves: list[Operator] = []
        for rel in state:
            if prune and rel.name in self._target_rels:
                continue
            if follows_rename and rel.name <= last_op.old:
                continue
            for new in ordered:
                moves.append(RenameRelation(rel.name, new))
        return moves

    def _propose_lambdas(
        self, state: Database, last_op: Operator | None
    ) -> Iterable[Operator]:
        for corr in self.correspondences:
            for rel in state:
                if corr.relation is not None and corr.relation != rel.name:
                    continue
                if rel.has_attribute(corr.output):
                    continue
                if not all(rel.has_attribute(a) for a in corr.inputs):
                    continue
                # λ applications are deliberately NOT symmetry-broken: the
                # paper treats them "just like any of the other operators"
                # (§4) and its Fig. 9 blind-search curves show the orderings
                # being explored.
                yield ApplyFunction.from_correspondence(rel.name, corr)

    def _promote_moves(self, rel: Relation) -> tuple[Operator, ...]:
        # The per-column "can this supply a missing token" tests are the
        # hottest comparisons in proposal; they run over interned text ids
        # (integer set intersections) instead of rendered text sets.
        name = rel.name
        attrs = rel.attributes
        if not self.config.prune_targets:
            return tuple(
                Promote(name, name_attr, value_attr)
                for name_attr in attrs
                for value_attr in attrs
            )
        wanted = self._missing_atts_for(rel)
        if not wanted:
            return ()
        wanted_ids = _interned_name_set(wanted)
        target_value_ids = self._target_value_text_ids
        make = _promote_op
        cols = rel.column_text_id_sets()
        # the value-side test is independent of the name attribute, so
        # hoist it out of the nested loop (same pairs, same order)
        value_attrs = [
            attr
            for attr, col in zip(attrs, cols)
            if not target_value_ids.isdisjoint(col)
        ]
        moves: list[Operator] = []
        for name_attr, col in zip(attrs, cols):
            if wanted_ids.isdisjoint(col):
                continue
            for value_attr in value_attrs:
                moves.append(make(name, name_attr, value_attr))
        return tuple(moves)

    def _partition_candidates(
        self, rel: Relation
    ) -> tuple[tuple[str, frozenset], ...]:
        """``(attr, candidate tokens)`` pairs: column values that name some
        target relation.  A Partition fires for a state exactly when one of
        the candidates is still missing from that state — the original
        ``column & missing`` test factors as ``(column & target) & missing``
        because missing relations are always a subset of target relations.
        """
        target = self._target_rel_ids
        return tuple(
            (attr, cand)
            for attr, col in zip(rel.attributes, rel.column_text_id_sets())
            if (cand := col & target)
        )

    def _merge_moves(self, rel: Relation) -> tuple[Operator, ...]:
        prune = self.config.prune_targets
        if prune and not rel.has_nulls:
            return ()
        target_atts = self._target_atts
        return tuple(
            Merge(rel.name, attr)
            for attr in rel.attributes
            if not prune or attr in target_atts
        )

    def _propose_drops(
        self, state: Database, last_op: Operator | None
    ) -> list[Operator]:
        follows_drop = self.config.break_symmetry and isinstance(
            last_op, DropAttribute
        )
        view = self._relation_view
        build = self._drop_entries
        moves: list[Operator] = []
        for rel in state:
            floor = (
                last_op.attribute
                if follows_drop and last_op.relation == rel.name
                else None
            )
            # schema key: droppability depends on names plus the nulls bit
            entries = view(("drop", rel.name, rel.attributes, rel.has_nulls), rel, build)
            if not entries:
                continue
            if floor is None:
                moves.extend(op for _attr, op in entries)
            else:
                moves.extend(op for attr, op in entries if attr > floor)
        return moves

    def _drop_entries(
        self, rel: Relation
    ) -> tuple[tuple[str, Operator], ...]:
        if rel.arity <= 1:
            return ()
        droppable = rel.has_nulls or any(
            rel.has_attribute(reserved) for reserved in _RESERVED_ATTRS
        )
        if self.config.prune_targets and not droppable:
            return ()
        target_atts = self._target_atts
        name = rel.name
        return tuple(
            (attr, DropAttribute(name, attr))
            for attr in rel.attributes
            if attr not in target_atts  # never drop a name the target needs
        )

    def _deref_moves(self, rel: Relation) -> tuple[Operator, ...]:
        prune = self.config.prune_targets
        wanted = self._missing_atts_for(rel) if prune else (
            self._target_atts - rel.attribute_set
        )
        if not wanted:
            return ()
        ordered = _sorted_names(wanted)
        attr_ids = rel.attribute_ids()
        make = _dereference_op
        name = rel.name
        moves: list[Operator] = []
        for pointer, col in zip(rel.attributes, rel.column_text_id_sets()):
            if prune and attr_ids.isdisjoint(col):
                continue  # pointer values never name an attribute
            for new in ordered:
                moves.append(make(name, pointer, new))
        return tuple(moves)

    def _demote_candidates(self, rel: Relation) -> frozenset:
        # Schema names that appear among the target's values are
        # relation-local; whether one is still *missing* is the only
        # state-dependent part of the demote test (missing values are a
        # subset of target values, so intersecting these candidates with
        # the missing set matches the original schema-names & missing
        # test).
        return rel.schema_name_ids() & self._target_value_text_ids

    def _propose_products(self, state: Database) -> Iterable[Operator]:
        relations = list(state)
        for i, left in enumerate(relations):
            for right in relations[i + 1 :]:
                if self.config.prune_targets and not self._product_helps(left, right):
                    continue
                yield CartesianProduct(left.name, right.name)

    def _product_helps(self, left: Relation, right: Relation) -> bool:
        """A product is proposed only if some target relation genuinely
        spans both operands: each side must contribute a target attribute
        the other side lacks."""
        for attrs in self._target_attrs_by_rel.values():
            left_only = (attrs & left.attribute_set) - right.attribute_set
            right_only = (attrs & right.attribute_set) - left.attribute_set
            if left_only and right_only:
                return True
        return False
