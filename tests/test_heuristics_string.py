"""Unit tests for the Levenshtein string-view heuristic (§3)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.heuristics import LevenshteinHeuristic, levenshtein, round_half_up
from repro.heuristics import stringview
from repro.relational import Database, Relation


class TestLevenshteinDistance:
    def test_identity(self):
        assert levenshtein("abc", "abc") == 0

    def test_empty_cases(self):
        assert levenshtein("", "") == 0
        assert levenshtein("abc", "") == 3
        assert levenshtein("", "abcd") == 4

    def test_substitution(self):
        assert levenshtein("kitten", "sitten") == 1

    def test_classic_kitten_sitting(self):
        assert levenshtein("kitten", "sitting") == 3

    def test_symmetric(self):
        assert levenshtein("flaw", "lawn") == levenshtein("lawn", "flaw") == 2

    def test_insert_delete(self):
        assert levenshtein("abc", "abxc") == 1
        assert levenshtein("abxc", "abc") == 1

    def test_triangle_inequality_sample(self):
        a, b, c = "route", "router", "outer"
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


    def test_long_strings_agree_with_pure_python(self):
        left = "route" * 20 + "ATL29"
        right = "router" * 15 + "ORD17"
        assert min(len(left), len(right)) >= stringview._NUMPY_THRESHOLD
        assert levenshtein(left, right) == stringview._levenshtein_python(
            left, right
        )


def test_import_repro_does_not_load_numpy():
    """numpy is loaded on the first long Levenshtein call, not at import."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro; print('numpy' in sys.modules)",
        ],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    assert out.stdout.strip() == "False"


class TestRounding:
    def test_half_up(self):
        assert round_half_up(0.5) == 1
        assert round_half_up(1.5) == 2
        assert round_half_up(1.4) == 1

    def test_negative_half_away(self):
        assert round_half_up(-0.5) == -1
        assert round_half_up(-1.4) == -1


class TestLevenshteinHeuristic:
    def test_zero_on_target(self, db_a):
        assert LevenshteinHeuristic(db_a)(db_a) == 0

    def test_bounded_by_k(self, db_a, db_b):
        h = LevenshteinHeuristic(db_a, k=11)
        assert 0 <= h(db_b) <= 11

    def test_scaling_constant(self, db_a, db_b):
        small = LevenshteinHeuristic(db_a, k=5)(db_b)
        large = LevenshteinHeuristic(db_a, k=20)(db_b)
        assert large >= small

    def test_k_below_one_rejected(self, db_a):
        with pytest.raises(ValueError):
            LevenshteinHeuristic(db_a, k=0.5)

    def test_default_k_is_paper_ida_value(self, db_a):
        assert LevenshteinHeuristic(db_a).k == 11

    def test_monotone_under_growing_difference(self):
        target = Database.single(Relation("R", ("A",), [("aaaa",)]))
        near = Database.single(Relation("R", ("A",), [("aaab",)]))
        far = Database.single(Relation("R", ("A",), [("zzzz",)]))
        h = LevenshteinHeuristic(target, k=10)
        assert h(near) <= h(far)

    def test_database_order_irrelevant(self):
        """The string view sorts TNF rows, so tuple order cannot matter."""
        target = Database.single(Relation("R", ("A",), [("x",), ("y",)]))
        state1 = Database.single(Relation("R", ("A",), [("y",), ("x",)]))
        assert LevenshteinHeuristic(target)(state1) == 0
