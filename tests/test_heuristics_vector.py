"""Unit tests for the term-vector heuristics (§3)."""

from __future__ import annotations

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.fira import DropAttribute, Merge, Promote, RenameAttribute, RenameRelation
from repro.heuristics import (
    CosineHeuristic,
    EuclideanHeuristic,
    NormalizedEuclideanHeuristic,
    cosine_similarity,
    euclidean_distance,
    term_vector,
    vector_norm,
)
from repro.heuristics.base import round_half_up
from repro.heuristics.registry import make_heuristic
from repro.relational import NULL, Database, Relation


def db(name, attrs, rows):
    return Database.single(Relation(name, attrs, rows))


class TestTermVector:
    def test_counts_triples(self, db_c):
        vector = term_vector(db_c)
        assert vector[("AirEast", "Route", "ATL29")] == 1
        assert sum(vector.values()) == 12

    def test_repeated_triples_counted(self):
        d = db("R", ("A", "B"), [("x", 1), ("x", 2)])
        vector = term_vector(d)
        assert vector[("R", "A", "x")] == 2

    def test_values_textified(self):
        d = db("R", ("A",), [(100,)])
        assert ("R", "A", "100") in term_vector(d)


class TestVectorMath:
    def test_distance_to_self_zero(self, db_b):
        v = term_vector(db_b)
        assert euclidean_distance(v, v) == 0

    def test_distance_simple(self):
        left = term_vector(db("R", ("A",), [("x",)]))
        right = term_vector(db("R", ("A",), [("y",)]))
        assert euclidean_distance(left, right) == pytest.approx(math.sqrt(2))

    def test_norm(self):
        v = term_vector(db("R", ("A",), [("x",), ("y",)]))
        assert vector_norm(v) == pytest.approx(math.sqrt(2))

    def test_cosine_identity(self, db_a):
        v = term_vector(db_a)
        assert cosine_similarity(v, v) == pytest.approx(1.0)

    def test_cosine_orthogonal(self):
        left = term_vector(db("R", ("A",), [("x",)]))
        right = term_vector(db("R", ("A",), [("y",)]))
        assert cosine_similarity(left, right) == 0.0

    def test_cosine_range(self, db_a, db_b):
        sim = cosine_similarity(term_vector(db_a), term_vector(db_b))
        assert 0.0 <= sim <= 1.0


class TestEuclideanHeuristic:
    def test_zero_on_target(self, db_b):
        assert EuclideanHeuristic(db_b)(db_b) == 0

    def test_counts_differing_cells(self):
        target = db("R", ("A",), [("x",)])
        state = db("R", ("A",), [("y",)])
        assert EuclideanHeuristic(target)(state) == 1  # round(sqrt(2))

    def test_no_scaling_constant(self, db_a):
        h = EuclideanHeuristic(db_a)
        assert not hasattr(h, "k")


class TestNormalizedEuclidean:
    def test_zero_on_target(self, db_b):
        assert NormalizedEuclideanHeuristic(db_b)(db_b) == 0

    def test_bounded_by_k_times_sqrt2(self, db_a, db_b):
        h = NormalizedEuclideanHeuristic(db_a, k=7)
        # unit vectors differ by at most sqrt(2)
        assert 0 <= h(db_b) <= round(7 * math.sqrt(2)) + 1

    def test_paper_default_k(self, db_a):
        assert NormalizedEuclideanHeuristic(db_a).k == 7

    def test_scale_invariance_of_direction(self):
        """A state with the same cell *proportions* scores 0."""
        target = db("R", ("A",), [("x",)])
        doubled = db("R", ("A",), [("x",)])  # same single triple
        assert NormalizedEuclideanHeuristic(target, k=10)(doubled) == 0


class TestCosineHeuristic:
    def test_zero_on_target(self, db_c):
        assert CosineHeuristic(db_c)(db_c) == 0

    def test_max_for_disjoint(self):
        target = db("R", ("A",), [("x",)])
        state = db("R", ("A",), [("y",)])
        assert CosineHeuristic(target, k=5)(state) == 5

    def test_paper_default_k(self, db_a):
        assert CosineHeuristic(db_a).k == 5

    def test_decreases_toward_target(self, db_a, db_b):
        """Promoting routes moves B's vector closer to A's."""
        from repro.fira import Promote

        h = CosineHeuristic(db_a, k=24)
        promoted = Promote("Prices", "Route", "Cost").apply(db_b)
        assert h(promoted) <= h(db_b)


# -- exactness of the per-column scoring ----------------------------------------
#
# The heuristics score from per-column text counts; the reference is the §3
# definition over the whole triple vector.  Estimates must be bit-identical,
# on states reached the way search reaches them: the parent's views are warm
# when the child is derived, so renames hand their carried views down.


def reference_estimate(name: str, k: float | None, state, target) -> int:
    """The §3 formula for heuristic *name*, evaluated over ``term_vector``."""
    left, right = term_vector(state), term_vector(target)
    if name == "euclid":
        return round_half_up(euclidean_distance(left, right))
    if not left and not right:
        return 0
    if name == "cosine":
        return round_half_up(k * (1.0 - cosine_similarity(left, right)))
    assert name == "euclid_norm"
    if not left or not right:
        return round_half_up(k)
    squared = max(0.0, 2.0 - 2.0 * cosine_similarity(left, right))
    return round_half_up(k * math.sqrt(squared))


def vector_heuristics(target):
    """Each vector heuristic with the paper's IDA and RBFS constants."""
    return [
        make_heuristic(name, target, algorithm=algorithm)
        for name in ("euclid", "euclid_norm", "cosine")
        for algorithm in ("ida", "rbfs")
    ]


def assert_exact(heuristics, state, target):
    for h in heuristics:
        expected = reference_estimate(h.name, getattr(h, "k", None), state, target)
        assert h.estimate(state) == expected, (h.name, getattr(h, "k", None))


#: small name and value universes so states and targets overlap; int ``1``
#: and text ``"1"`` render the same text and must count as one component
NAMES = st.sampled_from(["A", "B", "C", "D"])
CELLS = st.sampled_from([1, 2, "1", "2", "x", "y", NULL])


@st.composite
def small_relations(draw, name):
    attrs = draw(st.lists(NAMES, min_size=1, max_size=4, unique=True))
    rows = draw(
        st.lists(st.tuples(*([CELLS] * len(attrs))), min_size=0, max_size=6)
    )
    return Relation(name, attrs, rows)


@st.composite
def small_databases(draw):
    names = draw(
        st.lists(st.sampled_from(["R", "S", "T"]), min_size=1, max_size=3, unique=True)
    )
    return Database([draw(small_relations(name)) for name in names])


@st.composite
def derivation_steps(draw):
    """Operator recipes, resolved against whatever state they meet."""
    kind = draw(
        st.sampled_from(["rename_att", "rename_rel", "drop", "promote", "merge"])
    )
    return (
        kind,
        draw(st.integers(min_value=0, max_value=5)),
        draw(st.integers(min_value=0, max_value=5)),
        draw(st.integers(min_value=0, max_value=5)),
        draw(st.sampled_from(["0", "A", "B", "C", "D", "E", "Z", "a"])),
    )


def resolve_step(state, step):
    """The operator a recipe names on *state*, or ``None`` if none applies."""
    kind, i, j, m, new = step
    rel = state.relations[i % len(state.relations)]
    attrs = rel.attributes
    attr, other = attrs[j % len(attrs)], attrs[m % len(attrs)]
    if kind == "rename_att":
        op = RenameAttribute(rel.name, attr, new)
    elif kind == "rename_rel":
        op = RenameRelation(rel.name, new)
    elif kind == "drop":
        op = DropAttribute(rel.name, attr)
    elif kind == "promote":
        op = Promote(rel.name, attr, other)
    else:
        op = Merge(rel.name, attr)
    return op if op.is_applicable(state) else None


class TestPerColumnExactness:
    @settings(max_examples=150, deadline=None)
    @given(
        source=small_databases(),
        target=st.one_of(small_databases(), st.none()),
        steps=st.lists(derivation_steps(), max_size=6),
    )
    def test_estimates_match_reference_along_derivations(self, source, target, steps):
        target = source if target is None else target
        heuristics = vector_heuristics(target)
        state = source
        assert_exact(heuristics, state, target)  # warms the state's views
        for step in steps:
            op = resolve_step(state, step)
            if op is None:
                continue
            state = op.apply(state)
            assert_exact(heuristics, state, target)

    def test_projection_that_collapses_rows(self):
        """Dropping B merges two rows, so A's count of "x" falls from 2 to 1."""
        source = db("R", ("A", "B"), [("x", 1), ("x", 2)])
        target = db("R", ("A",), [("x",)])
        heuristics = vector_heuristics(target)
        assert_exact(heuristics, source, target)
        dropped = DropAttribute("R", "B").apply(source)
        assert_exact(heuristics, dropped, target)
        assert EuclideanHeuristic(target).estimate(dropped) == 0

    def test_int_and_text_share_a_component(self):
        target = db("R", ("A",), [("1",)])
        state = db("R", ("A",), [(1,)])
        for h in vector_heuristics(target):
            assert h.estimate(state) == 0
        assert_exact(vector_heuristics(target), state, target)

    def test_null_cells_are_not_counted(self):
        target = db("R", ("A", "B"), [("x", NULL)])
        state = db("R", ("A", "B"), [("x", NULL), (NULL, NULL)])
        assert_exact(vector_heuristics(target), state, target)
        assert EuclideanHeuristic(target).estimate(state) == 0

    def test_relations_missing_from_either_side(self):
        target = Database(
            [Relation("R", ("A",), [("x",)]), Relation("S", ("A",), [("y",)])]
        )
        state = Database(
            [Relation("R", ("A",), [("x",)]), Relation("T", ("A",), [("z",)])]
        )
        assert_exact(vector_heuristics(target), state, target)

    def test_empty_databases(self):
        empty = db("R", ("A",), [])
        full = db("R", ("A",), [("x",)])
        for state, target in ((empty, empty), (empty, full), (full, empty)):
            assert_exact(vector_heuristics(target), state, target)


class TestColumnTextCounts:
    @staticmethod
    def fresh(rel):
        """The view computed from scratch on an equal relation."""
        return Relation(rel.name, rel.attributes, rel.rows).column_text_counts()

    @settings(max_examples=100, deadline=None)
    @given(
        rel=small_relations("R"),
        j=st.integers(min_value=0, max_value=3),
        new=st.sampled_from(["0", "E", "Z", "a"]),
    )
    def test_rename_attribute_carries_an_exact_view(self, rel, j, new):
        assume(new not in rel.attribute_set)
        rel.column_text_counts()
        old = rel.attributes[j % rel.arity]
        child = rel.rename_attribute(old, new)
        assert "column_text_counts" in child._views  # carried, not recomputed
        assert child.column_text_counts() == self.fresh(child)

    @settings(max_examples=50, deadline=None)
    @given(rel=small_relations("R"))
    def test_renamed_shares_the_view(self, rel):
        counts = rel.column_text_counts()
        child = rel.renamed("S")
        assert child.column_text_counts() is counts
        assert counts == self.fresh(child)

    def test_counts_merge_int_and_text_renderings(self):
        rel = Relation("R", ("A", "B"), [(1, "p"), ("1", "q"), (2, NULL)])
        counts = dict(zip(rel.attributes, rel.column_text_counts()))
        assert sum(count for _, count in counts["A"]) == 3
        assert sorted(count for _, count in counts["A"]) == [1, 2]
        assert sum(count for _, count in counts["B"]) == 2  # NULL not counted

    def test_project_does_not_inherit(self):
        rel = Relation("R", ("A", "B"), [("x", 1), ("x", 2)])
        rel.column_text_counts()
        child = rel.project(("A",))
        assert "column_text_counts" not in child._views
        assert child.column_text_counts() == self.fresh(child)
        assert child.column_text_counts()[0][0][1] == 1
