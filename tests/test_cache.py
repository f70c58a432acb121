"""Tests for the append-only JSONL count cache."""

from __future__ import annotations

import json
import os

from graphmotive.cache import CACHE_VERSION, CountCache, cache_dir


def test_round_trip_in_fresh_directory(tmp_path):
    cache = CountCache.open(str(tmp_path))
    assert cache.get("YG", "3:0-1,1-2,0-2", {}, 2) is None
    assert cache.misses == 1

    cache.put([("YG", "3:0-1,1-2,0-2", {}, 2, 4)])
    assert len(open(cache.path, encoding="utf-8").readlines()) == 1
    assert cache.get("YG", "3:0-1,1-2,0-2", {}, 2) == 4
    assert cache.hits == 1

    # A second handle replays the file and sees the same record.
    reopened = CountCache.open(str(tmp_path))
    assert reopened.get("YG", "3:0-1,1-2,0-2", {}, 2) == 4
    assert reopened.hits == 1 and reopened.misses == 0


def test_key_includes_kind_params_and_q(tmp_path):
    cache = CountCache.open(str(tmp_path))
    cache.put([("A", "2:0-1", {"s": 2, "r": 1, "k": 1}, 2, 10)])
    # Same input under a different kind, different params, or different q
    # is a distinct record.
    assert cache.get("J", "2:0-1", {"s": 2, "r": 1, "k": 1}, 2) is None
    assert cache.get("A", "2:0-1", {"s": 2, "r": 1, "k": 0}, 2) is None
    assert cache.get("A", "2:0-1", {"s": 2, "r": 1, "k": 1}, 3) is None
    assert cache.get("A", "2:0-1", {"s": 2, "r": 1, "k": 1}, 2) == 10
    # Parameter insertion order must not matter.
    assert cache.get("A", "2:0-1", {"k": 1, "r": 1, "s": 2}, 2) == 10


def test_stale_version_line_is_ignored(tmp_path):
    path = tmp_path / "counts.jsonl"
    good = {
        "version": CACHE_VERSION,
        "kind": "YG",
        "input": "2:0-1",
        "params": {},
        "q": 3,
        "value": 7,
    }
    stale = dict(good, version=CACHE_VERSION + 1, value=999)
    path.write_text(json.dumps(stale) + "\n" + json.dumps(good) + "\n")

    cache = CountCache.open(str(tmp_path))
    assert cache.get("YG", "2:0-1", {}, 3) == 7


def test_damaged_lines_are_skipped(tmp_path):
    path = tmp_path / "counts.jsonl"
    good = {
        "version": CACHE_VERSION,
        "kind": "XG",
        "input": "2:0-1",
        "params": {},
        "q": 2,
        "value": 1,
    }
    lines = [
        "this is not json",
        '{"version": 1, "kind": "XG"}',  # missing fields
        '{"version": 1, "kind": "XG", "input": "2:0-1", "params": [], "q": "x", "value": 5}',
        # non-integer counts and orders would be coerced to wrong answers
        '{"version": 1, "kind": "XG", "input": "2:0-1", "params": {}, "q": 3, "value": 53.9}',
        '{"version": 1, "kind": "XG", "input": "2:0-1", "params": {}, "q": 4, "value": true}',
        '{"version": 1, "kind": "XG", "input": "2:0-1", "params": {}, "q": 5, "value": "54"}',
        '{"version": 1, "kind": "XG", "input": "2:0-1", "params": {}, "q": 7.0, "value": 6}',
        '{"version": 1, "kind": "XG", "input": "2:0-1", "params": {}, "q": true, "value": 6}',
        # valid JSON that is not a record
        "[1, 2]",
        '"x"',
        "3",
        "null",
        "",
        json.dumps(good),
    ]
    # lines that are not UTF-8, one of them inside an otherwise valid record
    not_utf8 = [
        b"\xff\xfe not utf-8",
        b'{"version": 1, "kind": "XG", "input": "2:0-1\xff", "params": {}, "q": 2, "value": 9}',
    ]
    path.write_bytes(b"\n".join(not_utf8) + b"\n" + ("\n".join(lines) + "\n").encode())

    cache = CountCache.open(str(tmp_path))
    assert cache.entries == {("XG", "2:0-1", (), 2): 1}
    assert cache.get("XG", "2:0-1", {}, 2) == 1


def test_non_integer_count_is_recomputed(tmp_path, monkeypatch, capsys):
    from graphmotive import graphs
    from graphmotive.cli import main

    monkeypatch.setenv("GRAPHMOTIVE_CACHE", str(tmp_path))
    rec = {
        "version": CACHE_VERSION,
        "kind": "YG",
        "input": graphs.format_edge_list(graphs.cycle(4)),
        "params": {},
        "q": 3,
        "value": 53.9,
    }
    (tmp_path / "counts.jsonl").write_text(json.dumps(rec) + "\n")
    assert main(["count", "--kind", "YG", "--name", "C4", "--q", "3"]) == 0
    assert "q=3 count=54" in capsys.readouterr().out


def test_duplicate_put_appends_nothing(tmp_path):
    cache = CountCache.open(str(tmp_path))
    cache.put([("YG", "2:0-1", {}, 5, 4)])
    size_after_first = os.path.getsize(cache.path)
    cache.put([("YG", "2:0-1", {}, 5, 4)])
    assert os.path.getsize(cache.path) == size_after_first


def test_last_line_wins_on_conflicting_records(tmp_path):
    path = tmp_path / "counts.jsonl"
    rec = {
        "version": CACHE_VERSION,
        "kind": "YG",
        "input": "2:0-1",
        "params": {},
        "q": 2,
        "value": 1,
    }
    path.write_text(json.dumps(rec) + "\n" + json.dumps(dict(rec, value=2)) + "\n")
    cache = CountCache.open(str(tmp_path))
    assert cache.get("YG", "2:0-1", {}, 2) == 2


def test_environment_variable_overrides_directory(tmp_path, monkeypatch):
    monkeypatch.setenv("GRAPHMOTIVE_CACHE", str(tmp_path))
    assert cache_dir() == str(tmp_path)
    cache = CountCache.open()
    cache.put([("YG", "2:0-1", {}, 2, 1)])
    assert os.path.exists(tmp_path / "counts.jsonl")

    monkeypatch.delenv("GRAPHMOTIVE_CACHE")
    assert cache_dir() == ".gm-cache"
