"""Tests for the benchmark's own code: span arithmetic, the answer checker,
the seeded generator, and the expected answers against the package oracles.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import copy
import json
import os
import re
import subprocess
import sys

import pytest

import spans
import workloads

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(os.path.dirname(BENCH), "src")
EXPECTED = workloads.load_expected()
with open(os.path.join(BENCH, "meta.json"), "r", encoding="utf-8") as _fh:
    META = json.load(_fh)


# ---------------------------------------------------------------------------
# spans


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


class FakeCounter:
    evaluations = 0


def test_self_time_of_a_synthetic_nested_call():
    # outer [0, 10] -> middle [1, 8] -> inner [2, 3] and inner [5, 7]
    tr = spans.Tracer(clock=FakeClock([0, 1, 2, 3, 5, 7, 8, 10]), counter=FakeCounter())
    inner = tr.wrap("inner", lambda: None)
    middle = tr.wrap("middle", lambda: (inner(), inner()))
    outer = tr.wrap("outer", lambda: middle())
    outer()
    assert [(s[0], s[1], s[2], s[3]) for s in tr.spans] == [
        ("outer", 0, 10, -1),
        ("middle", 1, 8, 0),
        ("inner", 2, 3, 1),
        ("inner", 5, 7, 1),
    ]
    assert spans.self_times(tr.spans) == [3, 4, 1, 2]


def test_self_time_counts_overlapping_children_once_and_clips_them():
    sp = [
        ("p", 0.0, 10.0, -1, 0, 0, 0),
        ("a", 1.0, 4.0, 0, 0, 0, 0),
        ("b", 3.0, 6.0, 0, 0, 0, 0),  # overlaps a by one second
        ("c", 9.0, 12.0, 0, 0, 0, 0),  # runs past the parent's end
    ]
    assert spans.self_times(sp) == [10 - 5 - 1, 3, 3, 3]


def test_rank_det_gather_nesting_gives_layer_self_times():
    # rank [0, 10] over 8 matrices -> det [1, 7] over 8 -> mul [2, 3], sub [4, 6] -> add [4.5, 5.5]
    sp = [
        ("vecops.VecField.rank", 0.0, 10.0, -1, 8, 0, 0),
        ("vecops.VecField.det", 1.0, 7.0, 0, 8, 0, 0),
        ("vecops.VecField.mul", 2.0, 3.0, 1, 0, 0, 0),
        ("vecops.VecField.sub", 4.0, 6.0, 1, 0, 0, 0),
        ("vecops.VecField.add", 4.5, 5.5, 3, 0, 0, 0),
    ]
    m = spans.layer_metrics(sp)
    assert m["vecops.rank.self_s"] == 4.0
    assert m["vecops.det.self_s"] == 3.0
    assert m["vecops.rank.mats_per_s"] == 0.8
    assert m["vecops.det.mats_per_s"] == 8 / 6
    # the add inside sub is not counted twice in the gather time
    assert m["vecops.gather.s"] == 3.0
    assert m["vecops.gather.calls"] == 3


def test_tracer_patches_every_module_that_binds_a_function(tmp_path):
    code = f"""
import json, sys
sys.path[:0] = [{BENCH!r}, {SRC!r}]
import graphmotive, spans
from graphmotive import cli, matroids, incidence, motive
tr = spans.Tracer(); tr.install()
assert cli.fit_polynomial is motive.fit_polynomial and incidence.count_X is matroids.count_X
cli.main(["verify", "--identity", "grassmann-factor", "--matroid", "U1,2", "--s", "2", "--q", "2"])
cli.main(["count", "--kind", "A", "--name", "P3", "--s", "2", "--r", "1", "--k", "1", "--q", "2"])
names = [s[0] for s in tr.spans]
by_index = {{i: s for i, s in enumerate(tr.spans)}}
parents = {{(s[0], by_index[s[3]][0]) for s in tr.spans if s[3] >= 0}}
print(json.dumps({{"names": sorted(set(names)), "parents": sorted(map(list, parents))}}))
"""
    env = dict(os.environ, GRAPHMOTIVE_CACHE=str(tmp_path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout.strip().splitlines()[-1])
    names, parents = set(doc["names"]), {tuple(p) for p in doc["parents"]}
    assert {"cli.main", "matroids.count_X", "incidence.verify_identity", "incidence.count_A"} <= names
    assert ("matroids.count_X", "incidence.verify_identity") in parents
    assert ("vecops.VecField.det", "vecops.VecField.rank") in parents
    assert ("cache.CountCache.open", "cli.cmd_count") in parents


# ---------------------------------------------------------------------------
# checker


def _count_stdout(counts):
    return json.dumps({"table": {"label": "Z:", "counts": counts}}) + "\n"


def test_checker_accepts_the_recorded_answer_and_rejects_a_perturbed_one():
    rid = "tables:Z:P4"
    argv = ("count", "--kind", "Z")
    good = workloads.parse_answer(argv, 0, _count_stdout(EXPECTED[rid]["counts"]))
    assert workloads.check(EXPECTED, rid, good)
    bad = copy.deepcopy(good)
    bad["counts"]["13"] += 1
    assert not workloads.check(EXPECTED, rid, bad)
    perturbed = copy.deepcopy(EXPECTED)
    perturbed[rid]["counts"]["2"] += 1
    assert not workloads.check(perturbed, rid, good)
    assert not workloads.check(EXPECTED, rid, dict(good, code=1))


def test_checker_rejects_a_dropped_q_row():
    rid = "tables:Z:P4"
    counts = dict(EXPECTED[rid]["counts"])
    del counts["13"]  # a budget overrun drops the row and reports on stderr
    answer = workloads.parse_answer(("count",), 0, _count_stdout(counts))
    assert not workloads.check(EXPECTED, rid, answer)


def test_checker_reads_verify_rows_and_cut_short_output():
    rid = "identities:firstred:P3:s1r1k1"
    rows = [{"q": int(q), "lhs": v[0], "rhs": v[1], "ok": v[2]} for q, v in EXPECTED[rid]["rows"].items()]
    text = "identity=firstred q=2 ...\n" + json.dumps({"identity": "firstred", "rows": rows})
    assert workloads.check(EXPECTED, rid, workloads.parse_answer(("verify",), 0, text))
    cut = workloads.parse_answer(("verify",), 1, "identity=firstred q=2 lhs=1 rhs=1 PASS\n")
    assert not workloads.check(EXPECTED, rid, cut)


# ---------------------------------------------------------------------------
# generator


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    a = workloads.build_requests(workload, 5, 2)
    assert a == workloads.build_requests(workload, 5, 2)
    b = workloads.build_requests(workload, 6, 2)
    assert [r.id for r in a] == [r.id for r in b]
    assert all(r.id in EXPECTED for r in a)
    assert len({r.id for r in a}) == len(a)


def test_two_seeds_give_different_labeled_inputs():
    for workload in ("tables", "identities"):
        a = workloads.build_requests(workload, 1)
        b = workloads.build_requests(workload, 2)
        assert [r.argv for r in a] != [r.argv for r in b]
    fano_a = workloads.build_requests("representations", 1)[6]
    fano_b = workloads.build_requests("representations", 2)[6]
    assert fano_a.id == "representations:XM:fano" and fano_a.files != fano_b.files


def test_relabeled_inputs_decode_to_isomorphic_copies_with_masks_moved_along():
    from graphmotive.graphs import parse_graph6
    from graphmotive.matroids import fano, matroid_from_text

    rl = workloads._Relabeler(__import__("random").Random(3))
    g6, (mask,) = rl.graph("P4", [0b0011])
    g = parse_graph6(g6)
    degrees = sorted(sum(v in e for e in g.edges) for v in range(g.n))
    assert g.n == 4 and g.m == 3 and degrees == [1, 1, 2, 2]
    # the relabeled mask still selects a leaf and its neighbour
    picked = [v for v in range(4) if mask >> v & 1]
    assert (min(picked), max(picked)) in {(min(u, v), max(u, v)) for u, v in g.edges}
    name = rl.matroid("fano")
    m = matroid_from_text(rl.pending[name])
    assert sorted(m.ranks) == sorted(fano().ranks)


# ---------------------------------------------------------------------------
# expected answers against the package's oracles


def _graph(name):
    from graphmotive.graphs import Graph

    n, edges = workloads.GRAPHS[name]
    return Graph(n, tuple(edges))


def _oracle(entry: str) -> int:
    """The value an oracle gives for one 'request-id@q' entry of meta.json."""
    from graphmotive.counting import symmetric_rank_census
    from graphmotive.incidence import count_A_slow
    from graphmotive.matroids import count_X_oracle, fano

    rid, q = entry.rsplit("@", 1)
    q = int(q)
    parts = rid.split(":")
    if rid == "representations:XM:fano":
        return count_X_oracle(fano(), 3, q)
    kind = re.match(r"(Z|Zo|Zrank)(\d?)$", parts[1])
    if kind:
        g = _graph(parts[2])
        edges = {(min(u, v), max(u, v)) for u, v in g.edges}
        every = {(i, j) for i in range(g.n) for j in range(i + 1, g.n)}
        zeros = every - edges if kind.group(1) == "Zo" else edges
        target = int(kind.group(2)) if kind.group(2) else g.n
        return symmetric_rank_census(g.n, q, zero_pairs=sorted(zeros)).get(target, 0)
    if parts[1] == "yuck":
        r = int(parts[3][1:])
        g = _graph(parts[2]).add_disjoint_vertex()
        return count_A_slow(g, g.n, r, g.n, q)
    s, r, k = (int(x) for x in re.match(r"s(\d)r(\d)(?:k(\d))?$", parts[3]).groups(default="-1"))
    g = _graph(parts[2])
    if parts[1] == "Dreduction":
        g = g.add_disjoint_vertex()
    if parts[1] == "cor-secondred":
        k = s
    return count_A_slow(g, s, r, k, q)


def _recorded(entry: str) -> int:
    rid, q = entry.rsplit("@", 1)
    ans = EXPECTED[rid]
    return ans["rows"][q][0] if "rows" in ans else ans["counts"][q]


def test_oracle_checked_entries_match_the_package_oracles():
    entries = META["oracle_checked"]
    assert "representations:XM:fano@2" in entries and _recorded("representations:XM:fano@2") == 168
    for entry in entries:
        assert _recorded(entry) == _oracle(entry), entry


def test_benchmark_json_names_exactly_the_metrics_run_prints():
    import run

    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    layers = list(spans.layer_metrics([])) + ["trace.overhead_ratio"]
    assert [m["name"] for m in bench["per_layer"]] == layers
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in bench["per_layer"])
    assert set(META["layer_to_end_to_end"]) == set(layers)
