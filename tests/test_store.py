"""Warm-start store suite: fingerprints, the mapping memo, failure modes.

The store's contract is *warmth is optional, correctness is not*: every
test that damages a store file (corruption, truncation, version skew,
forged entries) asserts the search degrades to a cold run with a
``resilience.store_*`` counter — never an exception, never an unverified
answer.  The memo (``memo.jsonl``) is the store's only artifact.
"""

from __future__ import annotations

import json
import threading

from repro import Database, Relation, SearchConfig, discover_mapping
from repro.fira import parse_expression
from repro.relational.fingerprint import (
    instance_digest,
    pair_fingerprint,
    pair_shape_fingerprint,
    relation_digest,
    relation_shape_digest,
    shape_digest,
)
from repro.resilience.runtime import resilience_counters, resilience_delta
from repro.search.result import STATUS_BUDGET_EXCEEDED
from repro.semantics import builtin_registry
from repro.store import MappingMemo, WarmStartStore
from repro.workloads.synthetic import matching_pair


def _pair(n: int = 3):
    pair = matching_pair(n)
    return pair.source, pair.target


def _discover(source, target, store=None, **kwargs):
    kwargs.setdefault("algorithm", "ida")
    kwargs.setdefault("heuristic", "h0")
    return discover_mapping(source, target, store=store, **kwargs)


# -- fingerprints ------------------------------------------------------------


def test_digest_insensitive_to_construction_order():
    rows = [("a", 1), ("b", 2), ("c", 3)]
    fwd = Database.single(Relation("R", ("X", "Y"), rows))
    rev = Database.single(Relation("R", ("X", "Y"), list(reversed(rows))))
    assert instance_digest(fwd) == instance_digest(rev)
    r1 = Relation("R", ("X",), [("x",)])
    s1 = Relation("S", ("Y",), [("y",)])
    assert instance_digest(Database([r1, s1])) == instance_digest(
        Database([s1, r1])
    )


def test_digest_is_type_faithful():
    ints = Database.single(Relation("R", ("X",), [(1,)]))
    strs = Database.single(Relation("R", ("X",), [("1",)]))
    assert instance_digest(ints) != instance_digest(strs)


def test_rename_changes_exact_but_not_shape_digest():
    base = Relation("R", ("X", "Y"), [("a", 1), ("b", 2)])
    renamed = Relation("Q", ("P", "Q"), [("a", 1), ("b", 2)])
    assert relation_digest(base) != relation_digest(renamed)
    assert relation_shape_digest(base) == relation_shape_digest(renamed)
    assert shape_digest(Database.single(base)) == shape_digest(
        Database.single(renamed)
    )


def test_pair_fingerprint_is_direction_sensitive():
    source, target = _pair(2)
    assert pair_fingerprint(source, target) != pair_fingerprint(target, source)
    assert pair_shape_fingerprint(source, target) == pair_shape_fingerprint(
        source, target
    )


def test_fingerprint_stable_across_processes():
    # The digest must not depend on the process-local intern pool: a child
    # process interning in a different order reports the same fingerprint.
    import subprocess
    import sys

    source, target = _pair(2)
    code = (
        "import sys; sys.path.insert(0, 'src');"
        "from repro.workloads.synthetic import matching_pair;"
        "from repro.relational.fingerprint import pair_fingerprint;"
        "p = matching_pair(2);"
        "print(pair_fingerprint(p.source, p.target))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == pair_fingerprint(source, target)


# -- mapping memo ------------------------------------------------------------


def test_memo_round_trip_is_bit_identical(tmp_path):
    source, target = _pair(3)
    cold = _discover(source, target)
    memo = MappingMemo(tmp_path / "memo.jsonl")
    memo.record(
        source,
        target,
        expression=cold.expression,
        algorithm="ida",
        heuristic="h0",
    )
    served = memo.serve(source, target, algorithm="ida", heuristic="h0")
    assert served is not None
    expression, entry = served
    assert str(expression) == str(cold.expression)
    assert entry["fingerprint"] == pair_fingerprint(source, target)


def test_memo_prefers_exact_request_variant(tmp_path):
    source, target = _pair(2)
    cold = _discover(source, target)
    memo = MappingMemo(tmp_path / "memo.jsonl")
    memo.record(
        source, target, expression=cold.expression,
        algorithm="astar", heuristic="h1",
    )
    memo.record(
        source, target, expression=cold.expression,
        algorithm="ida", heuristic="h0",
    )
    served = memo.serve(source, target, algorithm="astar", heuristic="h1")
    assert served is not None
    assert served[1]["algorithm"] == "astar"


def test_memo_survives_corrupt_and_torn_lines(tmp_path):
    source, target = _pair(2)
    cold = _discover(source, target)
    path = tmp_path / "memo.jsonl"
    memo = MappingMemo(path)
    memo.record(
        source, target, expression=cold.expression,
        algorithm="ida", heuristic="h0",
    )
    with path.open("a", encoding="utf-8") as fh:
        fh.write("this is not json\n")
        fh.write('{"kind": "mapping", "fingerprint": 7}\n')
        fh.write('{"kind": "mapping", "fingerprint": "abc", "expr')  # torn
    baseline = resilience_counters()
    fresh = MappingMemo(path)
    served = fresh.serve(source, target, algorithm="ida", heuristic="h0")
    assert served is not None
    assert str(served[0]) == str(cold.expression)
    assert fresh.corrupt_lines == 3
    assert resilience_delta(baseline).get("resilience.store_corrupt_entry") == 3


def test_memo_version_mismatch_degrades_cold(tmp_path):
    path = tmp_path / "memo.jsonl"
    path.write_text(
        '{"kind": "header", "store": "tupelo-memo", "version": 99}\n'
    )
    baseline = resilience_counters()
    memo = MappingMemo(path)
    source, target = _pair(2)
    assert memo.serve(source, target) is None
    assert memo.version_mismatch
    delta = resilience_delta(baseline)
    assert delta.get("resilience.store_version_mismatch") == 1


def test_forged_fingerprint_collision_is_rejected(tmp_path):
    # An entry whose fingerprint matches but whose expression maps the
    # pair wrongly (hash collision / hand-edited file) must be refused by
    # verification, not served.
    source, target = _pair(2)
    path = tmp_path / "memo.jsonl"
    memo = MappingMemo(path)
    forged = {
        "kind": "mapping",
        "version": 1,
        "fingerprint": pair_fingerprint(source, target),
        "algorithm": "ida",
        "heuristic": "h0",
        "k": None,
        "expression": "rename_rel(A -> NoSuchPlace)",
        "ops": 1,
    }
    path.write_text(
        memo._header_line() + "\n" + json.dumps(forged) + "\n"
    )
    baseline = resilience_counters()
    assert memo.serve(source, target, algorithm="ida", heuristic="h0") is None
    delta = resilience_delta(baseline)
    assert delta.get("resilience.store_stale_entry", 0) >= 1


def test_stale_entry_falls_back_to_older_verified_entry(tmp_path):
    source, target = _pair(2)
    cold = _discover(source, target)
    path = tmp_path / "memo.jsonl"
    memo = MappingMemo(path)
    memo.record(
        source, target, expression=cold.expression,
        algorithm="ida", heuristic="h0",
    )
    # a newer-but-wrong entry for the same fingerprint shadows the good one
    forged = {
        "kind": "mapping",
        "version": 1,
        "fingerprint": pair_fingerprint(source, target),
        "algorithm": "ida",
        "heuristic": "h0",
        "k": None,
        "expression": "rename_rel(A -> Elsewhere)",
        "ops": 1,
    }
    with path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(forged) + "\n")
    fresh = MappingMemo(path)
    served = fresh.serve(source, target, algorithm="ida", heuristic="h0")
    assert served is not None
    assert str(served[0]) == str(cold.expression)


def test_memo_gc_bounds_entries(tmp_path):
    memo = MappingMemo(tmp_path / "memo.jsonl", max_entries=3)
    expression = parse_expression("rename_rel(R -> S)")
    for i in range(6):
        db = Database.single(Relation("R", ("X",), [(f"v{i}",)]))
        out = Database.single(Relation("S", ("X",), [(f"v{i}",)]))
        memo.record(
            db, out, expression=expression, algorithm="ida", heuristic="h0"
        )
    assert len(memo.fingerprints()) <= 3
    summary = memo.gc()
    assert summary["kept"] <= 3
    # the newest pair is among the survivors
    newest = Database.single(Relation("R", ("X",), [("v5",)]))
    newest_out = Database.single(Relation("S", ("X",), [("v5",)]))
    assert memo.serve(newest, newest_out) is not None


def test_concurrent_reader_and_writer_on_one_path(tmp_path):
    path = tmp_path / "memo.jsonl"
    expression = parse_expression("rename_rel(R -> S)")
    pairs = []
    for i in range(20):
        db = Database.single(Relation("R", ("X",), [(f"w{i}",)]))
        out = Database.single(Relation("S", ("X",), [(f"w{i}",)]))
        pairs.append((db, out))
    errors: list[BaseException] = []

    def writer():
        memo = MappingMemo(path, max_entries=8)
        try:
            for db, out in pairs:
                memo.record(
                    db, out, expression=expression,
                    algorithm="ida", heuristic="h0",
                )
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    def reader():
        memo = MappingMemo(path, max_entries=8)
        try:
            for _ in range(60):
                for db, out in pairs[:4]:
                    memo.serve(db, out)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=writer), threading.Thread(target=reader)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    # after the dust settles, the file is readable and serves verified hits
    memo = MappingMemo(path)
    db, out = pairs[-1]
    served = memo.serve(db, out)
    assert served is not None and str(served[0]) == str(expression)


# -- store facade and engine wiring ------------------------------------------


def test_store_serves_verified_hit_bit_identically(tmp_path):
    source, target = _pair(3)
    cold = _discover(source, target, store=tmp_path / "store")
    warm = _discover(source, target, store=tmp_path / "store")
    assert not cold.served_from_store
    assert warm.served_from_store
    assert warm.states_examined == 0
    assert str(warm.expression) == str(cold.expression)
    # a served expression verifies against the live pair by construction
    assert (
        warm.expression.apply(source, builtin_registry()).contains(target)
    )


def test_store_info_and_gc(tmp_path):
    source, target = _pair(2)
    store = WarmStartStore(tmp_path / "store")
    _discover(source, target, store=store)
    info = store.info()
    assert set(info) == {"path", "memo"}
    assert info["memo"]["entries"] == 1
    summary = store.gc()
    assert summary["memo"]["kept"] == 1
    assert summary["memo"]["dropped"] == 0
    assert store.info()["memo"]["entries"] == 1


def test_cli_store_info_and_gc(tmp_path, capsys):
    from repro.cli import main

    store_dir = str(tmp_path / "store")
    source, target = _pair(2)
    _discover(source, target, store=store_dir)
    assert main(["store", "info", "--path", store_dir]) == 0
    out = capsys.readouterr().out
    assert "memo: 1 entr(ies)" in out
    assert main(["store", "gc", "--path", store_dir]) == 0
    assert "kept" in capsys.readouterr().out


# -- one artifact ------------------------------------------------------------


def test_store_directory_holds_only_the_memo(tmp_path):
    store_dir = tmp_path / "store"
    source, target = _pair(2)
    cold = _discover(source, target, store=store_dir)
    assert cold.found and not cold.served_from_store
    big_source, big_target = _pair(4)
    cut = _discover(
        big_source,
        big_target,
        store=store_dir,
        config=SearchConfig(max_states=5),
    )
    assert cut.status == STATUS_BUDGET_EXCEEDED
    repeat = _discover(source, target, store=store_dir)
    assert repeat.served_from_store
    assert [p.name for p in store_dir.rglob("*")] == ["memo.jsonl"]


#: a store directory exactly as the version with per-problem search-table
#: files left it after one ida/h0 discovery of ``matching_pair(2)``
_OLD_MEMO = (
    '{"kind":"header","store":"tupelo-memo","version":1}\n'
    '{"algorithm":"ida","expression":"rename_att[R](A01 -> B01)\\n'
    'rename_att[R](A02 -> B02)","fingerprint":"5e4522d6b5f7f51ff37233aea5120'
    '3ca025ed93f675600a4b3559fe4add3b14b","heuristic":"h0","k":null,'
    '"kind":"mapping","ops":2,"shape":"2e3223db0badf2741bad9cb66c3e5a3ad5588'
    '637f67021a452830c7aa2d3666b","signature":"f493b2e719e535182cd8d8604b061'
    '96829cbebe8d135ede014b81260636aedba","states_examined":15,"version":1}\n'
)
_OLD_WARM_NAME = (
    "0c1e2236416c726af2e7cba67ba89d55dbf5d8d9fb9810bf6b50695a3033872e.json"
)
_OLD_WARM = {
    "kind": "tupelo-warm-spill",
    "version": 1,
    "problem": _OLD_WARM_NAME[:-5],
    "tables": {
        "goals": [[0, False], [1, True]],
        "heuristics": [{"entries": [[0, 0], [1, 0]], "k": None, "name": "h0"}],
        "relations": [
            ["R", ["A01", "A02"], [["a01", "a02"]]],
            ["R", ["B01", "B02"], [["a01", "a02"]]],
        ],
        "states": [[0], [1]],
        "successors": [],
    },
}


def test_old_store_directory_serves_its_memo_and_ignores_leftovers(tmp_path):
    store_dir = tmp_path / "store"
    (store_dir / "warm").mkdir(parents=True)
    (store_dir / "memo.jsonl").write_text(_OLD_MEMO, encoding="utf-8")
    leftover = store_dir / "warm" / _OLD_WARM_NAME
    leftover.write_text(json.dumps(_OLD_WARM), encoding="utf-8")
    before = leftover.read_bytes()
    source, target = _pair(2)
    cold = _discover(source, target)
    baseline = resilience_counters()
    served = _discover(source, target, store=store_dir)
    assert served.served_from_store
    assert str(served.expression) == str(cold.expression)
    assert resilience_delta(baseline) == {}
    assert leftover.read_bytes() == before
    assert (store_dir / "memo.jsonl").read_text(encoding="utf-8") == _OLD_MEMO
