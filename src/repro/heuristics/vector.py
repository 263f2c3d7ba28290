"""Term-vector heuristics: Euclidean, normalized Euclidean, cosine (§3).

A database is viewed as a vector over the space of (REL, ATT, VALUE) token
triples: component ``d_i`` counts the occurrences of the i-th triple among
the database's TNF rows.  The paper indexes the full ``n³`` triple space
over the token universe of the critical instances; since almost every
component is zero we represent vectors sparsely — all three distances only
involve the union of the two supports.

The heuristics go one step further and never materialise a state's vector:
every distance is a function of ``‖s‖²``, ``‖t‖²`` and ``s·t``, and since a
``(REL, ATT)`` pair names exactly one column, those sums split into
per-column sums over the column's text counts (see ``docs/heuristics.md``).
"""

from __future__ import annotations

import math
from collections import Counter

from ..relational.database import Database
from ..relational.tnf import tnf_triples
from .base import Heuristic, ScaledHeuristic, round_half_up

TermVector = Counter

#: the target-column map of a relation the target lacks (never mutated)
_NO_COLUMNS: dict = {}


def term_vector(db: Database) -> TermVector:
    """The sparse (REL, ATT, VALUE)-triple count vector of *db*.

    The reference definition of the §3 vector.  The heuristics below never
    build it: they score from per-column text counts, and the tests compare
    their estimates against the formulas here.  Memoised on *db*; the
    returned Counter is shared — treat it as read-only.
    """
    return db.cached_view("term_vector", lambda: Counter(tnf_triples(db)))


def euclidean_distance(left: TermVector, right: TermVector) -> float:
    """Euclidean distance between two sparse vectors."""
    keys = left.keys() | right.keys()
    return math.sqrt(sum((left[k] - right[k]) ** 2 for k in keys))


def vector_norm(vector: TermVector) -> float:
    """The L2 norm of a sparse vector."""
    return math.sqrt(sum(count * count for count in vector.values()))


def cosine_similarity(left: TermVector, right: TermVector) -> float:
    """Cosine of the angle between two sparse vectors (0 for a zero vector)."""
    denominator = vector_norm(left) * vector_norm(right)
    if denominator == 0:
        return 0.0
    dot = sum(left[k] * right[k] for k in left.keys() & right.keys())
    return dot / denominator


class _TargetVectorMixin:
    """Shared target-side compilation and per-state aggregates.

    The three estimates need only two exact integers per state:
    ``sum_sq = Σ count²`` and ``dot = Σ count·target_count``.  No two
    columns of a database share a ``(REL, ATT)`` key, so both sums split
    over columns, and each column contributes from its own text-count
    multiset (:meth:`~repro.relational.relation.Relation.column_text_counts`,
    which renames carry from the parent state).  The target is compiled
    once into ``{rel: {att: {text id: count}}}`` (nested, so a lookup
    builds no key tuple).
    """

    def _compile_target(self, target: Database) -> None:
        columns: dict[str, dict[str, dict[int, int]]] = {}
        sum_sq = 0
        for rel in target:
            by_attr = columns[rel.name] = {}
            for attr, pairs in zip(rel.attributes, rel.column_text_counts()):
                if pairs:
                    by_attr[attr] = dict(pairs)
                    sum_sq += sum(count * count for _, count in pairs)
        self._target_columns = columns
        self._target_sum_sq = sum_sq
        self._target_norm = math.sqrt(sum_sq)

    def _aggregates(self, state: Database) -> tuple[int, int]:
        """``(Σ count², Σ count·target_count)`` of *state*'s term vector."""
        target_columns = self._target_columns
        sum_sq = dot = 0
        for rel in state:
            by_attr = target_columns.get(rel.name, _NO_COLUMNS)
            for attr, pairs in zip(rel.attributes, rel.column_text_counts()):
                target = by_attr.get(attr)
                if target is None:
                    for _, count in pairs:
                        sum_sq += count * count
                else:
                    get = target.get
                    for text_id, count in pairs:
                        sum_sq += count * count
                        dot += count * get(text_id, 0)
        return sum_sq, dot


class EuclideanHeuristic(_TargetVectorMixin, Heuristic):
    """hE — unnormalized Euclidean distance in triple space.

    ``‖s − t‖² = ‖s‖² + ‖t‖² − 2·s·t``, evaluated in exact integers.
    """

    name = "euclid"

    def __init__(self, target: Database) -> None:
        super().__init__(target)
        self._compile_target(target)

    def estimate(self, state: Database) -> int:
        sum_sq, dot = self._aggregates(state)
        return round_half_up(math.sqrt(sum_sq + self._target_sum_sq - 2 * dot))


class NormalizedEuclideanHeuristic(_TargetVectorMixin, ScaledHeuristic):
    """h|E| — Euclidean distance between unit-normalized vectors, scaled by k.

    For unit vectors ``‖s/‖s‖ − t/‖t‖‖² = 2 − 2·cos(s, t)``, computed from
    the exact integer aggregates: the state's and target's sums of squared
    counts and their inner product.
    """

    name = "euclid_norm"
    default_k = 7.0  # the paper's tuned IDA value; RBFS uses 20

    def __init__(self, target: Database, k: float | None = None) -> None:
        super().__init__(target, k)
        self._compile_target(target)

    def estimate(self, state: Database) -> int:
        sum_sq, dot = self._aggregates(state)
        target_sum_sq = self._target_sum_sq
        if sum_sq == 0 and target_sum_sq == 0:
            return 0  # both databases are empty of cells
        if sum_sq == 0 or target_sum_sq == 0:
            return round_half_up(self.k)
        cosine = dot / (math.sqrt(sum_sq) * self._target_norm)
        squared = max(0.0, 2.0 - 2.0 * cosine)
        return round_half_up(self.k * math.sqrt(squared))


class CosineHeuristic(_TargetVectorMixin, ScaledHeuristic):
    """hcos — ``k * (1 - cosine_similarity)``; low for near-parallel vectors."""

    name = "cosine"
    default_k = 5.0  # the paper's tuned IDA value; RBFS uses 24

    def __init__(self, target: Database, k: float | None = None) -> None:
        super().__init__(target, k)
        self._compile_target(target)

    def estimate(self, state: Database) -> int:
        sum_sq, dot = self._aggregates(state)
        if sum_sq == 0 and self._target_sum_sq == 0:
            return 0  # both databases are empty of cells
        denominator = math.sqrt(sum_sq) * self._target_norm
        similarity = 0.0 if denominator == 0 else dot / denominator
        return round_half_up(self.k * (1.0 - similarity))
