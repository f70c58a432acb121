"""End-to-end tests of the command-line frontend, run in-process via main().

Every invocation points GRAPHMOTIVE_CACHE at a per-test temporary directory
so runs cannot see each other's cached counts.  Inputs that once ran for a
long time before failing run in a subprocess with a timeout (run_gm), so a
regression fails its test instead of stalling the suite.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from graphmotive import cli, counting, graphs, incidence, matroids
from graphmotive.cache import CountCache
from graphmotive.cli import main
from graphmotive.matroids import PartialRank


SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("GRAPHMOTIVE_CACHE", str(tmp_path / "cache"))


def _cap_memory():
    limit = 4 << 30  # address space, so a huge allocation fails at once
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.fixture
def any_digits():
    """Lifts the interpreter's int <-> str digit cap for the test, so it
    can spell out the exact answers it expects."""
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(cap)


def run_gm(*argv: str) -> subprocess.CompletedProcess:
    """gm argv in a fresh interpreter with 4 GiB of address space, killed
    after 60 s; each input run this way finishes in well under a second,
    and none ends in a traceback."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-m", "graphmotive.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
        preexec_fn=_cap_memory,
    )
    assert "Traceback (most recent call last)" not in out.stderr, (argv, out.stderr)
    return out


def test_poly_text_output(capsys):
    code = main(["poly", "--name", "C3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "P = " in out and "Q = " in out
    assert "matrix-tree: PASS" in out


def test_poly_json_output(capsys):
    code = main(["poly", "--g6", "C~", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"P", "Q", "matrix_tree"}
    assert doc["matrix_tree"] == "PASS"
    assert "x_" in doc["Q"]


def test_poly_determinant_check_covers_multigraphs(tmp_path, capsys):
    # Parallel edges merge into one Laplacian entry, so the determinant
    # identity still holds and the check reports PASS instead of skipping.
    graph_file = tmp_path / "doubled.txt"
    graph_file.write_text("2 2\n0 1\n0 1\n")
    code = main(["poly", "--graph", str(graph_file)])
    out = capsys.readouterr().out
    assert code == 0
    assert "matrix-tree: PASS" in out
    assert "Q = x_0 + x_1" in out


def test_poly_refuses_at_the_determinant_cap_before_listing_trees(
    monkeypatch, capsys
):
    # K10's reduced Laplacian is 9 x 9, over the cap; listing its trees
    # first walks C(45, 9) ~ 8.9 * 10^8 edge subsets.  D2000's would be
    # 1999 x 1999 polynomials, refused before it is built.  K8 is within
    # the cap, but its 28 edges have C(28, 7) = 1184040 7-subsets for the
    # listing to try, refused by the budget
    calls = []

    def spanning_trees(self):
        calls.append(self)
        return []

    monkeypatch.setattr(graphs.Graph, "spanning_trees", spanning_trees)
    capped = "error: symbolic determinant capped at dimension 8\n"
    for argv, err in (
        (["--name", "K10"], capped),
        (["--name", "D2000"], capped),
        (["--name", "K8", "--budget", "1000"],
         "error: spanning tree enumeration needs 1184040 evaluations, "
         "budget is 1000\n"),
    ):
        start = time.monotonic()
        code = main(["poly", *argv])
        assert time.monotonic() - start < 1, argv
        assert code == 1, argv
        assert capsys.readouterr() == ("", err), argv
    assert calls == []


def test_poly_lists_the_spanning_trees_once(monkeypatch, capsys):
    # the determinant check, P and Q share one list of trees
    calls, trees = [], graphs.Graph.spanning_trees

    def spanning_trees(self):
        calls.append(self)
        return trees(self)

    monkeypatch.setattr(graphs.Graph, "spanning_trees", spanning_trees)
    assert main(["poly", "--name", "K4"]) == 0
    assert "matrix-tree: PASS" in capsys.readouterr().out
    assert len(calls) == 1


def test_count_rejects_multigraph_for_incidence_kinds(tmp_path, capsys):
    graph_file = tmp_path / "doubled.txt"
    graph_file.write_text("2 2\n0 1\n0 1\n")
    code = main(
        ["count", "--kind", "J", "--graph", str(graph_file), "--q", "2", "--s", "1"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err
    # so is A at r = 0, a closed form with no scan
    code = main(["count", "--kind", "A", "--graph", str(graph_file), "--q", "2",
                 "--s", "1", "--r", "0", "--k", "1"])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    # the scan's charge is read first: over the budget, the same graph is
    # refused for its size (P^n = 4 maps), which is no usage error
    code = main(
        ["count", "--kind", "J", "--graph", str(graph_file), "--q", "2", "--s", "1",
         "--budget", "3"]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "incidence scan" in captured.err


def test_count_text_matches_library(capsys):
    tri = graphs.cycle(3)
    code = main(["count", "--kind", "YG", "--name", "C3", "--q", "2,3"])
    out = capsys.readouterr().out
    assert code == 0
    for q in (2, 3):
        want = counting.count_tree_complement(tri, q)
        assert f"q={q} count={want}" in out
    # The cycle's complement count is the discrete-valuation closed form.
    assert "q=2 count=4" in out and "q=3 count=18" in out


def test_count_kinds_against_library(capsys):
    tri = graphs.cycle(3)
    edge = graphs.complete(2)
    cases = [
        (["--kind", "XG", "--name", "C3"], counting.count_tree_support(tri, 3)),
        (["--kind", "Z", "--name", "C3"], counting.count_blocked_nondegenerate(tri, 3)),
        (
            ["--kind", "Zo", "--name", "C3"],
            counting.count_supported_nondegenerate(tri, 3),
        ),
        (
            ["--kind", "Zrank", "--name", "C3", "--r", "1"],
            counting.count_blocked_rank(tri, 1, 3),
        ),
        (
            ["--kind", "A", "--name", "K2", "--s", "2", "--r", "1", "--k", "1"],
            incidence.count_A(edge, 2, 1, 1, 3),
        ),
        (["--kind", "J", "--name", "K2", "--s", "2"], incidence.count_J(edge, 2, 3)),
        (["--kind", "K", "--name", "K2", "--s", "2"], incidence.count_K(edge, 2, 3)),
        (["--kind", "H", "--name", "K2", "--s", "2"], incidence.count_H(edge, 2, 3)),
        (
            ["--kind", "XM", "--matroid", "U1,2", "--s", "2"],
            matroids.count_X(matroids.uniform(1, 2), s=2, q=3),
        ),
        (
            ["--kind", "L", "--pi", "2:0b11=1", "--s", "1"],
            incidence.count_L(1, PartialRank(2, ((3, 1),)), 3),
        ),
    ]
    for extra, want in cases:
        code = main(["count", *extra, "--q", "3"])
        out = capsys.readouterr().out
        assert code == 0, extra
        assert f"q=3 count={want}" in out, extra


def test_count_json_and_csv_formats(capsys):
    code = main(
        ["count", "--kind", "YG", "--name", "C3", "--q", "2,3", "--format", "json"]
    )
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["table"]["counts"] == {"2": 4, "3": 18}
    assert doc["table"]["label"].startswith("YG:")

    code = main(
        ["count", "--kind", "YG", "--name", "C3", "--q", "2,3", "--format", "csv"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines() == ["q,count", "2,4", "3,18"]


def test_count_exits_nonzero_when_every_order_over_budget(capsys):
    code = main(["count", "--kind", "YG", "--name", "C3", "--q", "2", "--budget", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert "q=2" in captured.err
    # the run's budget does not outlive it
    assert counting.stats.budget == counting.DEFAULT_BUDGET


def test_count_partial_budget_failure_still_reports_the_rest(capsys):
    # q=2 fits in a budget of 2 (the scan decodes 2^1 rows, two of the three
    # edge variables held back), q=3 does not.
    code = main(
        ["count", "--kind", "YG", "--name", "C3", "--q", "2,3", "--budget", "2"]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "q=2 count=4" in captured.out
    assert "q=3" in captured.err and "count=" not in captured.err


def test_count_too_large_order_still_reports_the_rest():
    # no order above 256 has a field, prime power (257, 65537, 2^61 - 1) or
    # not (1000); each costs only its own row, like a budget overrun, and
    # none is factored, so 2^61 - 1 fails at once
    bigs = ["257", "65537", "1000", str(2**61 - 1)]
    out = run_gm("count", "--kind", "YG", "--name", "C3", "--q", ",".join(["2"] + bigs))
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[1:] == ["q=2 count=4"]
    assert out.stderr.splitlines() == [f"q={big}: field order {big} exceeds 256" for big in bigs]


def test_tree_counts_check_the_budget_before_listing_trees():
    # K10 has ~10^8 spanning trees and K9 ~5 * 10^6: listing them took
    # longer than the refusal of the scan, which needs only q and the edges
    # (q^(m - 2) rows: two of the m edge variables are held back)
    for kind, name, points in (("YG", "K10", 2**43), ("XG", "K9", 2**34)):
        out = run_gm("count", "--kind", kind, "--name", name, "--q", "2")
        assert out.returncode == 1
        assert out.stderr == (
            f"q=2: polynomial zero scan needs {points} evaluations, "
            "budget is 100000000\n"
        )


def test_tree_count_budget_sees_only_the_core(tmp_path, capsys):
    # K4 with a pendant path of 40 edges: all 46 variables scanned would be
    # 2^44 rows at q = 2, over the budget, but the 40 bridges are one-edge
    # blocks, factors q - 1, so only the block K4's q^(6 - 2) rows are
    # scanned: 16 + 81
    edges = list(graphs.complete(4).edges) + [(3 + i, 4 + i) for i in range(40)]
    graph_file = tmp_path / "lollipop.txt"
    graph_file.write_text(graphs.format_edge_list(graphs.Graph(44, tuple(edges))))
    code = main(["count", "--kind", "XG", "--graph", str(graph_file),
                 "--q", "2,3", "--stats"])
    out = capsys.readouterr()
    assert code == 0
    assert out.out.splitlines()[1:] == ["q=2 count=28", f"q=3 count={468 * 2**40}"]
    assert out.err == "evaluations=97\n"


def test_equal_blocks_scan_once(tmp_path):
    # two K5s sharing a vertex are two blocks that relabel to one key, so XG
    # scans K5's 2^(10 - 2) = 256 rows once at q = 2, where the whole
    # polynomial would take 2^(20 - 2) = 262144
    k5 = list(graphs.complete(5).edges)
    graph_file = tmp_path / "two_k5.txt"
    graph_file.write_text(graphs.format_edge_list(
        graphs.Graph(9, tuple(k5 + [(u + 4, v + 4) for u, v in k5]))
    ))
    out = run_gm("count", "--kind", "XG", "--graph", str(graph_file), "--q", "2",
                 "--stats")
    assert out.returncode == 0
    want = counting.count_tree_support(graphs.complete(5), 2) ** 2
    assert out.stdout.splitlines()[1:] == [f"q=2 count={want}"]
    assert out.stderr == "evaluations=256\n"


def test_import_and_poly_load_no_numpy():
    # `import graphmotive` and `gm poly` build no field table, so neither
    # loads numpy
    script = (
        "import sys, graphmotive\n"
        "from graphmotive import cli\n"
        "assert cli.main(['poly', '--name', 'K4']) == 0\n"
        "assert 'numpy' not in sys.modules, 'numpy is loaded'\n"
    )
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert out.returncode == 0, out.stderr


def test_signed_sums_charge_the_minor_enumeration(capsys):
    # before each edge, 3 units per recursion state; the largest level is
    # the last, the states of K5 less its last edge 34.  A state is a
    # partition into blocks that its edges connect, with how many edges are
    # kept inside each block (0..b1) and between each two blocks (0..all),
    # so a partition has prod (b1 + 1) over blocks times prod (edges + 1)
    # over block pairs states.  With 3 and 4 in one block B: B everything,
    # 6; B of four (3 ways), 3·5; B of three (3 ways), the other two one
    # block, 7, or apart, 4·4·2: 6 + 45 + 3·39 = 168.  With 3 in A and 4 in
    # B (|A|·|B| edges between): no other block, 2·(4·4) + 6·(2·6) = 104;
    # one vertex u alone (3 ways), 2·(2·3·4·2) + 2·(2·2·3·3) = 168; two
    # alone (the third in A or B, 3 ways each), 2·(5·3 + 3·2·3·2·2) = 174;
    # all three alone, 2·4·4 + 3·(3·3·2·2·3) + 2^6·2^3 = 868: 104 + 3·168 +
    # 6·174 + 868 = 2520.  3·(168 + 2520) = 8064
    code = main(["verify", "--identity", "signed-sums", "--name", "K5",
                 "--q", "2", "--budget", "8063"])
    assert code == 1
    assert capsys.readouterr().err == (
        "q=2: signed minor recursion needs 8064 evaluations, budget is 8063\n"
    )


def test_incidence_scan_is_budgeted():
    # P3 into F_3^7: 1094^3 maps of projective points (1094 = 1 + 2186/2)
    # times 2 classes of invertible forms, the scan is refused before any
    # map is decoded
    start = time.monotonic()
    out = run_gm("count", "--kind", "J", "--name", "P3", "--s", "7", "--q", "3")
    assert out.returncode == 1
    assert out.stderr.startswith("q=3: incidence scan needs ")
    assert time.monotonic() - start < 2


def test_huge_scans_are_refused_in_one_line_before_any_build(tmp_path):
    # a requirement past the interpreter's 4300-digit int-to-str limit is
    # stated as a power of two; XM above the rank is refused before its
    # search plan is built, and pi-strat before its extended graph of
    # 10^6 + 3 vertices.  At 10^12 vertices no vertex mask and no power
    # P^n is built: the refusal states a lower bound (P = 2 at s = 1)
    n = 10**12
    huge = tmp_path / "huge.txt"
    huge.write_text(f"{n} 0\n")
    for argv, needs in (
        (("count", "--kind", "L", "--pi", "3:", "--s", "5000"),
         "incidence scan needs at least 2^15000"),
        (("verify", "--identity", "pi-strat", "--name", "P3", "--s", "1",
          "--subset", "7", "--t", "1000000"),
         "incidence scan needs at least 2^1000003"),
        (("count", "--kind", "XM", "--matroid", "U3,5", "--s", "120"),
         "representation scan needs 100000001"),
        (("count", "--kind", "L", "--pi", f"{n}:1=1", "--s", "1"),
         f"incidence scan needs at least 2^{n}"),
        (("count", "--kind", "L", "--pi", f"{n}:", "--s", "1"),
         f"incidence scan needs at least 2^{n}"),
        (("count", "--kind", "J", "--graph", str(huge), "--s", "1"),
         f"incidence scan needs at least 2^{n}"),
        (("count", "--kind", "A", "--graph", str(huge), "--s", "1", "--r", "1",
          "--k", "1"),
         f"incidence scan needs at least 2^{n}"),
        (("verify", "--identity", "pi-strat", "--graph", str(huge), "--s", "1",
          "--subset", "1"),
         f"incidence scan needs at least 2^{n + 1}"),
    ):
        start = time.monotonic()
        out = run_gm(*argv, "--q", "2")
        assert time.monotonic() - start < 2, argv
        assert out.returncode == 1, argv
        assert out.stderr == f"q=2: {needs} evaluations, budget is 100000000\n", argv


def test_huge_vertex_counts_end_in_one_line(tmp_path):
    # H scans in ambient dimension n: q^n is not built, and P > 2^(n - 1)
    # bounds the scan below by 2^(n (n - 1)).  At s = 0 the one form is
    # Q = 0 and the one map is zero: count 1 in closed form, no scan
    n = 10**12
    huge = tmp_path / "huge.txt"
    huge.write_text(f"{n} 0\n")
    graph = ("--graph", str(huge))
    for argv, stdout, stderr in (
        (("--kind", "H", *graph, "--s", "1"), "",
         f"q=2: incidence scan needs at least 2^{n * (n - 1)} evaluations, "
         "budget is 100000000\n"),
        (("--kind", "H", *graph, "--s", "0"), "",
         f"q=2: incidence scan needs at least 2^{n * (n - 1)} evaluations, "
         "budget is 100000000\n"),
        (("--kind", "A", *graph, "--s", "0", "--r", "0", "--k", "0"), "q=2 count=1", ""),
        (("--kind", "J", *graph, "--s", "0"), "q=2 count=1", ""),
        (("--kind", "L", "--pi", f"{n}:", "--s", "0"), "q=2 count=1", ""),
    ):
        start = time.monotonic()
        out = run_gm("count", *argv, "--q", "2")
        assert time.monotonic() - start < 2, argv
        assert out.returncode == (1 if stderr else 0), argv
        assert out.stdout.splitlines()[1:] == ([stdout] if stdout else []), argv
        assert out.stderr == stderr, argv


def test_free_borders_count_in_closed_form(any_digits):
    # 250 untouched vertices, or a 300-dimensional ambient space, border a
    # small block: the extension count is one sum over the border's rank,
    # with no recursion level per border row
    invertible = counting.count_symmetric_rank(250, 250, 2)
    for argv, line in (
        (("count", "--kind", "Zrank", "--name", "D250", "--r", "1"),
         f"q=2 count={counting.count_symmetric_rank(250, 1, 2)}"),
        (("count", "--kind", "Z", "--name", "D250"), f"q=2 count={invertible}"),
        (("count", "--kind", "Zo", "--name", "K250"), f"q=2 count={invertible}"),
        (("verify", "--identity", "free-vertex", "--name", "D250"),
         "identity=free-vertex q=2 PASS"),
        (("verify", "--identity", "firstred", "--name", "D0", "--s", "300",
          "--r", "0", "--k", "0"),
         "identity=firstred q=2 lhs=1 rhs=1 PASS"),
    ):
        start = time.monotonic()
        out = run_gm(*argv, "--q", "2")
        assert time.monotonic() - start < 2, argv
        assert out.returncode == 0 and out.stderr == "", argv
        assert out.stdout.splitlines()[-1] == line, argv


def test_wide_scans_are_refused_before_their_forms_are_listed():
    # the budget check counts the classes of forms without building them;
    # with no vertex the scan is one map, so forms past 2^(2^20) are too
    # large to count
    budget = "evaluations, budget is 100000000"
    for name, s, err in (
        ("D0", 200000, "the 200000 x 200000 symmetric forms over F_2 number over 2^1048576"),
        ("K1", 200000, f"incidence scan needs at least 2^200001 {budget}"),
        ("P3", 20000, f"incidence scan needs at least 2^60001 {budget}"),
    ):
        start = time.monotonic()
        out = run_gm("count", "--kind", "J", "--name", name, "--s", str(s), "--q", "2")
        assert time.monotonic() - start < 2, name
        assert out.returncode == 1, name
        assert out.stderr == f"q=2: {err}\n", name


def test_answers_of_any_length_print_and_cache(tmp_path, monkeypatch, capsys, any_digits):
    # answers past 4300 digits print whole, and a second run reads them
    # back from the cache: its counts are never called.  The inputs are
    # still read under the interpreter's digit cap
    runs = (
        (["count", "--kind", "XG", "--name", "P20000", "--q", "3"], 0,
         f"q=3 count={2**19999}"),
        (["count", "--kind", "J", "--name", "D0", "--s", "200", "--q", "2"], 0,
         f"q=2 count={counting.count_symmetric_rank(200, 200, 2)}"),
        (["count", "--kind", "YG", "--name", "S20000", "--q", "2"], 0, None),
        (["fit", "--kind", "XG", "--name", "P20000", "--q", "2,3,4", "--max-deg", "1"],
         1, f"q=4 count={3**19999}"),
    )
    printed = []
    for argv, code, line in runs:
        out = run_gm(*argv)
        assert out.returncode == code and out.stderr == "", argv
        if line is not None:
            assert line in out.stdout.splitlines(), argv
        assert max(map(len, out.stdout.splitlines())) > 4300, argv
        printed.append(out.stdout)

    def refuse(obj, args, q):
        raise AssertionError(f"{args.kind} at q={q} counted again")

    for kind in ("XG", "J", "YG"):
        monkeypatch.setitem(cli.COUNTS, kind, cli.COUNTS[kind]._replace(compute=refuse))
    for (argv, code, _), stdout in zip(runs, printed):
        assert main(argv) == code, argv
        assert capsys.readouterr().out == stdout, argv
    big = tmp_path / "big.txt"
    big.write_text("9" * 5000 + " 0\n")
    out = run_gm("count", "--kind", "J", "--graph", str(big), "--s", "1", "--q", "2")
    assert out.returncode == 2 and out.stderr.startswith("error: bad header")


def test_pi_strat_over_the_budget_answers_an_unsatisfiable_base(capsys):
    # P3 with 30 new vertices at s = 1 is a 2^33-map scan, but a base
    # requirement of span 2 on one vertex leaves nothing to scan: 0 = 0
    argv = ["verify", "--identity", "pi-strat", "--name", "P3", "--s", "1",
            "--subset", "7", "--t", "30", "--q", "2"]
    assert main(argv) == 1
    assert main([*argv, "--pi", "3:1=2"]) == 0
    assert capsys.readouterr().out == "identity=pi-strat q=2 lhs=0 rhs=0 PASS\n"


def test_incidence_counts_never_list_the_forms():
    # the empty graph has one map, scanned once per class of invertible
    # 6 x 6 forms: no census of the 5^21 symmetric forms is built
    start = time.monotonic()
    out = run_gm("count", "--kind", "J", "--name", "D0", "--s", "6", "--q", "5",
                 "--stats")
    assert out.returncode == 0
    assert out.stdout.splitlines()[1:] == [
        f"q=5 count={counting.count_symmetric_rank(6, 6, 5)}"
    ]
    assert out.stderr == "evaluations=2\n"
    assert time.monotonic() - start < 2


def test_incidence_counts_scan_only_the_rank_they_ask_for():
    # yuck at r = 1 scans rank 1 alone (rank 0 is a closed form): 16^4 maps
    # of P3 plus a vertex into F_2^4 and 8^3 maps of P3 into F_2^3, one
    # rank-1 class each at q = 2, 65536 + 512, fit a budget that two ranks
    # of the first scan would overrun
    out = run_gm("verify", "--identity", "yuck", "--name", "P3", "--r", "1",
                 "--q", "2", "--budget", "70000", "--stats")
    assert out.returncode == 0
    assert "PASS" in out.stdout
    assert out.stderr.strip().rsplit("\n", 1)[-1] == "evaluations=66048"
    # H at ambient dimension 3: 2^9 maps at q = 2 and 14^3 maps of points
    # of F_3^3 times 2 rank-1 classes at q = 3
    out = run_gm("count", "--kind", "H", "--name", "P3", "--s", "1", "--q", "2,3",
                 "--stats")
    assert out.returncode == 0
    assert out.stderr.strip().rsplit("\n", 1)[-1] == "evaluations=6000"


def test_five_vertex_full_rank_folds_every_diagonal_cell():
    # C5's non-edges touch every vertex, so Zo is a full-rank count on all
    # five: its 5 diagonal cells are folded and its 5 free off-diagonal
    # cells decoded, 4 of them a spanning path of {0, 1} digits, so
    # 2^4 q matrices times q^3 folded values: 5 2^4 5^3 + 7 2^4 7^3 in all
    out = run_gm("count", "--kind", "Zo", "--name", "C5", "--q", "5,7", "--stats")
    assert out.returncode == 0
    assert out.stdout.splitlines()[1:] == ["q=5 count=7534400", "q=7 count=238700952"]
    assert out.stderr.strip().rsplit("\n", 1)[-1] == "evaluations=48416"


def test_six_vertex_full_rank_fits_the_default_budget(tmp_path):
    # K3,3 plus the edge (0, 1): every vertex meets a non-edge, so Zo is a
    # full-rank count on all six.  Its 10 free off-diagonal cells hold a
    # spanning tree of 5 {0, 1} digits: 2^5 q^5 matrices times q^4 folded
    # values, 3^5 2^5 3^4 + 4^5 2^5 4^4 in all.  Without the torus classes
    # q=4 needs 4^10 4^4 = 268435456 units, over the default budget.
    edges = [(0, 1)] + [(u, v) for u in range(3) for v in range(3, 6)]
    graph_file = tmp_path / "k33_plus_edge.txt"
    graph_file.write_text(graphs.format_edge_list(graphs.Graph(6, tuple(edges))))
    out = run_gm("count", "--kind", "Zo", "--graph", str(graph_file), "--q", "3,4", "--stats")
    assert out.returncode == 0
    assert out.stdout.splitlines()[1:] == ["q=3 count=26605584", "q=4 count=3129974784"]
    assert out.stderr.strip().rsplit("\n", 1)[-1] == "evaluations=9018464"


def test_stats_count_decoded_rows(capsys):
    # XG scans 3^(6 - 2) rows of K4's six edge variables; Z on P4 decodes
    # its 3 free off-diagonal cells, a spanning path of {0, 1} digits, and
    # charges each decoded matrix for 3^(4 - 2) folded diagonal values:
    # 2^3 * 3^2
    for kind, name, rows in (("XG", "K4", 81), ("Z", "P4", 72)):
        code = main(["count", "--kind", kind, "--name", name, "--q", "3", "--stats"])
        assert code == 0
        assert capsys.readouterr().err == f"evaluations={rows}\n"


def test_reductions_beyond_the_ambient_dimension_are_exact_zeros(capsys):
    # r or k above s: both sides vanish, as exact integers in text and JSON
    for argv in (
        ["--identity", "secondred", "--s", "1", "--r", "2", "--k", "1"],
        ["--identity", "firstred", "--s", "2", "--r", "0", "--k", "3"],
        ["--identity", "cor-secondred", "--s", "1", "--r", "2"],
    ):
        code = main(["verify", "--name", "C3", "--q", "2", *argv, "--format", "json"])
        text, doc = capsys.readouterr().out.splitlines()
        assert code == 0
        assert text.endswith(" q=2 lhs=0 rhs=0 PASS")
        assert json.loads(doc)["rows"] == [{"q": 2, "lhs": 0, "rhs": 0, "ok": True}]


def test_graph_input_forms_agree(tmp_path, capsys):
    graph_file = tmp_path / "tri.txt"
    graph_file.write_text(graphs.format_edge_list(graphs.cycle(3)))
    outputs = []
    for src in (
        ["--name", "C3"],
        ["--g6", "Bw"],
        ["--graph", str(graph_file)],
    ):
        code = main(["count", "--kind", "YG", *src, "--q", "4"])
        out = capsys.readouterr().out
        assert code == 0
        outputs.append([ln for ln in out.splitlines() if ln.startswith("q=")])
    assert outputs[0] == outputs[1] == outputs[2] == ["q=4 count=48"]


def test_verify_graph_identity_prints_pass_per_order(capsys):
    code = main(
        [
            "verify",
            "--identity",
            "firstred",
            "--name",
            "C3",
            "--q",
            "2,3",
            "--s",
            "2",
            "--r",
            "1",
            "--k",
            "1",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    for q, line in zip((2, 3), lines):
        assert line.startswith(f"identity=firstred q={q} lhs=")
        assert "rhs=" in line and line.endswith("PASS")


def test_verify_boolean_identity_and_json(capsys):
    code = main(
        [
            "verify",
            "--identity",
            "signed-sums",
            "--name",
            "C3",
            "--q",
            "2",
            "--format",
            "json",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    text_line, json_line = out.splitlines()
    assert text_line == "identity=signed-sums q=2 PASS"
    doc = json.loads(json_line)
    assert doc == {"identity": "signed-sums", "rows": [{"q": 2, "ok": True}]}


def test_unknown_identity_lists_the_identity_table(capsys):
    assert main(["verify", "--identity", "nonsense", "--name", "C3", "--q", "2"]) == 2
    names = (
        "firstred, secondred, cor-secondred, Dreduction, yuck, Jyuck, pi-strat, "
        "stanley-iso, free-vertex, signed-sums, grassmann-factor"
    )
    assert names == ", ".join(incidence.IDENTITIES)
    assert capsys.readouterr() == (
        "", f"error: unknown identity 'nonsense'; choose from {names}\n"
    )


def test_verify_options_are_read_by_the_identity(capsys):
    # a missing option is named by verify_identity, --t defaults to 1 there,
    # and --pi is parsed whenever it is given: each error is one line, exit 2
    for argv, err in (
        (["--identity", "pi-strat", "--name", "P3", "--s", "1"],
         "error: identity 'pi-strat' needs parameters ['subset']\n"),
        (["--identity", "grassmann-factor", "--matroid", "U1,2"],
         "error: identity 'grassmann-factor' needs parameters ['s']\n"),
        (["--identity", "Jyuck", "--name", "P3", "--s", "1", "--pi", "bogus"],
         "error: span constraints need 'ground:...', got 'bogus'\n"),
    ):
        assert main(["verify", *argv, "--q", "2"]) == 2, argv
        assert capsys.readouterr() == ("", err), argv
    pi_strat = ["verify", "--identity", "pi-strat", "--name", "P3", "--s", "2",
                "--subset", "5", "--q", "2,3"]
    assert main(pi_strat) == 0
    default = capsys.readouterr().out
    assert main([*pi_strat, "--t", "1"]) == 0
    assert capsys.readouterr().out == default
    assert default.startswith("identity=pi-strat q=2 lhs=")


def test_verify_matroid_identity(capsys):
    code = main(
        [
            "verify",
            "--identity",
            "grassmann-factor",
            "--matroid",
            "U1,2",
            "--q",
            "2,3",
            "--s",
            "2",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 2 and "FAIL" not in out


def test_verify_reports_each_order(capsys):
    # an order over the budget or past the table limit is reported on its
    # own line and the other orders still run
    code = main(
        ["verify", "--identity", "firstred", "--name", "C3", "--s", "2", "--r", "1",
         "--k", "1", "--q", "2,257"]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "identity=firstred q=2 lhs=39 rhs=39 PASS\n"
    assert captured.err.startswith("q=257: ")

    # at q = 3 the extended graph's scan is 14^4 maps of points times 2 form
    # classes, 76832; each q = 2 order needs 2^12 + 2^9 = 4608
    code = main(
        ["verify", "--identity", "Jyuck", "--name", "P3", "--s", "3", "--q", "2,3,2",
         "--budget", "50000", "--format", "json"]
    )
    captured = capsys.readouterr()
    assert code == 1
    *lines, json_line = captured.out.splitlines()
    assert lines == ["identity=Jyuck q=2 lhs=39424 rhs=39424 PASS"] * 2
    assert [row["q"] for row in json.loads(json_line)["rows"]] == [2, 2]
    assert captured.err.startswith("q=3: ") and captured.err.count("\n") == 1

    # every order ran and passed: exit 0
    code = main(["verify", "--identity", "firstred", "--name", "C3", "--s", "2",
                 "--r", "1", "--k", "1", "--q", "2,3"])
    capsys.readouterr()
    assert code == 0


def test_stats_are_reported_on_error_exit(capsys):
    # q = 2 fits in the budget (9 nodes), q = 3 does not (12); the counter
    # still ends stderr
    code = main(["counterexample", "--budget", "10", "--stats"])
    captured = capsys.readouterr()
    assert code == 1
    error_line, stats_line = captured.err.splitlines()
    assert error_line.startswith("error: representation scan")
    assert stats_line.startswith("evaluations=")
    assert int(captured.err.strip().rsplit("=", 1)[1]) > 0

    code = main(["fit", "--kind", "YG", "--name", "C3", "--q", "2", "--max-deg", "3",
                 "--stats"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:")
    assert int(captured.err.strip().rsplit("=", 1)[1]) > 0

    # a search cut short by the budget still reports the nodes it visited
    code = main(["count", "--kind", "XM", "--matroid", "U2,4", "--s", "3", "--q", "3",
                 "--budget", "10", "--stats"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("q=3: representation scan")
    assert int(captured.err.strip().rsplit("=", 1)[1]) > 0


def test_stats_count_one_run(tmp_path, monkeypatch, capsys):
    # nothing memoized by one run answers the next: with an empty disk cache
    # each time, the same request reports the same work
    evals = []
    for run in range(2):
        monkeypatch.setenv("GRAPHMOTIVE_CACHE", str(tmp_path / f"cache{run}"))
        code = main(["count", "--kind", "J", "--name", "P3", "--s", "2", "--q", "3",
                     "--stats"])
        assert code == 0
        evals.append(int(capsys.readouterr().err.strip().rsplit("=", 1)[1]))
    assert evals[0] > 0 and evals[0] == evals[1]


def test_fit_recovers_cycle_polynomial(capsys):
    code = main(
        [
            "fit",
            "--kind",
            "YG",
            "--name",
            "C3",
            "--q",
            "2,3,4,5,7",
            "--max-deg",
            "3",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "fit: q^3 - q^2" in out
    assert "q=7 count=294 fitted=294" in out


def test_fit_json_coefficients(capsys):
    code = main(
        [
            "fit",
            "--kind",
            "YG",
            "--name",
            "C3",
            "--q",
            "2,3,4,5,7",
            "--max-deg",
            "3",
            "--format",
            "json",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["fit"] == {"coeffs": [0, 0, -1, 1]}


def test_fit_reports_no_fit(capsys):
    # A degree-0 model cannot match 4 and 18 at once; the held-out point
    # exposes the mismatch and the command signals failure.
    code = main(
        ["fit", "--kind", "YG", "--name", "C3", "--q", "2,3", "--max-deg", "0"]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "fit: NoFit" in out


def test_fit_with_too_few_points_fails_cleanly(capsys):
    code = main(["fit", "--kind", "YG", "--name", "C3", "--q", "2", "--max-deg", "3"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:")


def test_usage_errors_exit_two(tmp_path, capsys):
    not_utf8 = tmp_path / "latin1.txt"
    not_utf8.write_bytes(b"\xff\xfe 2 1\n0 1\n")
    # rank tables that are not matroids: over the cardinality bound, a
    # jump of two, a drop
    not_matroids = []
    for i, text in enumerate(["2\n0 1 1 5\n", "3\n0 1 1 1 1 1 1 3\n", "3\n0 1 1 2 1 2 2 1\n"]):
        path = tmp_path / f"not_matroid_{i}.txt"
        path.write_text(text)
        not_matroids.append(str(path))
    # files over a structural cap: 13 elements, 17 columns, no field of order
    # 257, a negative and a huge ground-set size
    over_cap = []
    for i, text in enumerate([
        "13\n" + " ".join(str(min(1, bin(x).count("1"))) for x in range(1 << 13)) + "\n",
        "vector 2 17 1\n" + "1\n" * 17,
        "vector 257 2 2\n0 1\n1 0\n",
        # ground-set sizes refused before the 2^m table length is computed
        "-1\n0\n",
        "100000000000\n0\n",
    ]):
        path = tmp_path / f"over_cap_{i}.txt"
        path.write_text(text)
        over_cap.append(str(path))
    bad_invocations = [
        ["count", "--kind", "YG", "--graph", str(tmp_path), "--q", "2"],
        ["count", "--kind", "YG", "--graph", str(not_utf8), "--q", "2"],
        ["count", "--kind", "XM", "--matroid", str(tmp_path), "--q", "2"],
        ["count", "--kind", "XM", "--matroid", str(not_utf8), "--q", "2"],
        ["count", "--kind", "YG", "--name", "C3", "--q", "2", "--budget", "-1"],
        ["poly", "--name", "Q7"],  # unknown graph name
        ["count", "--kind", "YG", "--name", "C3", "--q", "6"],  # not a prime power
        # not a prime power, and small enough to be factored
        ["count", "--kind", "YG", "--name", "C3", "--q", "2,200"],
        ["count", "--kind", "YG", "--name", "C3", "--q", "abc"],
        ["count", "--kind", "YG", "--name", "C3", "--q", ","],
        ["count", "--kind", "A", "--name", "K2", "--q", "2", "--s", "2"],  # no r, k
        ["count", "--kind", "YG", "--graph", str(tmp_path / "absent.txt"), "--q", "2"],
        ["verify", "--identity", "nonsense", "--name", "C3", "--q", "2"],
        ["verify", "--name", "C3", "--q", "2"],  # identity missing
        ["count", "--kind", "YG", "--name", "C3", "--g6", "Bw", "--q", "2"],
        ["count", "--kind", "YG", "--q", "2"],  # no graph at all
        ["count", "--kind", "XM", "--q", "2"],  # no matroid
        ["fit", "--kind", "YG", "--name", "C3", "--q", "2,3"],  # no max-deg
        ["count", "--kind", "L", "--name", "C3", "--q", "2", "--s", "1"],  # no --pi
        # negative ambient dimension
        ["count", "--kind", "J", "--name", "P3", "--s", "-1", "--q", "2"],
        ["verify", "--identity", "Jyuck", "--name", "P3", "--s", "-1", "--q", "2"],
        ["count", "--kind", "L", "--pi", "3:", "--s", "-1", "--q", "2"],
        ["count", "--kind", "L", "--pi", "3:7=0", "--s", "-1", "--q", "2"],
        # negative rank
        ["count", "--kind", "H", "--name", "P3", "--s", "-2", "--q", "2"],
        ["count", "--kind", "Zrank", "--name", "P3", "--r", "-1", "--q", "2"],
        *(["count", "--kind", "XM", "--matroid", path, "--q", "2"] for path in not_matroids),
        *(["count", "--kind", "XM", "--matroid", path, "--q", "2"] for path in over_cap),
        # uniform matroids over the rank-table cap, refused before 2^m ranks
        ["count", "--kind", "XM", "--matroid", "U2,13", "--q", "2"],
        ["count", "--kind", "XM", "--matroid", "U2,100000000000", "--q", "2"],
        ["verify", "--identity", "grassmann-factor", "--matroid", not_matroids[0], "--s", "6", "--q", "2"],
    ]
    for argv in bad_invocations:
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.err.startswith("error:"), argv
        assert captured.err.count("\n") == 1, argv
    # a kind without the options it requires names the first one missing
    firsts = [("Zrank", "r"), ("A", "s"), ("J", "s"), ("K", "s"), ("H", "s"), ("L", "pi")]
    for kind, first in firsts:
        assert main(["count", "--kind", kind, "--name", "P3", "--q", "2"]) == 2, kind
        assert capsys.readouterr().err == f"error: --{first} is required here\n", kind
    # the error names the rank the user gave, not count_A's parameters
    main(["count", "--kind", "H", "--name", "P3", "--s", "-2", "--q", "2"])
    assert "s=-2" in capsys.readouterr().err

    # Unknown choices, and options a subcommand does not read, are rejected
    # by the argument parser itself.
    for argv in (
        ["count", "--kind", "BOGUS", "--name", "C3", "--q", "2"],
        ["poly", "--name", "C3", "--q", "2"],
        ["counterexample", "--name", "C3"],
        ["verify", "--identity", "stanley-iso", "--name", "C3", "--q", "2", "--format", "csv"],
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        capsys.readouterr()
        assert info.value.code == 2, argv


HELP_CASES = [
    ["--help"],
    *([name, "--help"] for name in ("poly", "count", "verify", "fit", "counterexample")),
    [],  # no command
    ["frob"],  # unknown command
    ["count", "--kind", "XG", "--name", "K4"],  # --q missing
]


def test_help_and_usage_errors_match_the_pinned_text(monkeypatch, capsys):
    # every help text and usage error, byte for byte, with its exit code
    monkeypatch.setenv("COLUMNS", "80")
    got = []
    for argv in HELP_CASES:
        with pytest.raises(SystemExit) as info:
            main(argv)
        out, err = capsys.readouterr()
        got.append(f"=== {argv} exit={info.value.code}\n--- stdout\n{out}--- stderr\n{err}")
    assert "".join(got) == (Path(__file__).parent / "cli_help.txt").read_text()


def test_representation_search_plan_is_built_once_per_run(monkeypatch, capsys):
    calls, levels = [], matroids._level_constraints

    def level_constraints(*args):
        calls.append(args)
        return levels(*args)

    monkeypatch.setattr(matroids, "_level_constraints", level_constraints)
    assert main(["count", "--kind", "XM", "--matroid", "fano", "--q", "2,3,4,5,7"]) == 0
    capsys.readouterr()
    assert len(calls) == 1
    matroids.count_X(matroids.fano(), 3, 8)
    assert len(calls) == 1
    counting.stats.reset()
    matroids.count_X(matroids.fano(), 3, 8)
    assert len(calls) == 2


def test_table_appends_its_new_counts_in_one_write(monkeypatch, capsys):
    # U2,4 in F_q^3 visits 308 nodes at q = 2, 2054 at q = 3 and 8862 at
    # q = 4: the last order overruns, the first two are cached together
    puts, put = [], CountCache.put

    def recorded(self, records):
        puts.append(list(records))
        return put(self, puts[-1])

    monkeypatch.setattr(CountCache, "put", recorded)
    argv = ["count", "--kind", "XM", "--matroid", "U2,4", "--s", "3", "--q", "2,3,4",
            "--budget", "5000"]
    assert main(argv) == 0
    assert capsys.readouterr().err.startswith("q=4: representation scan")
    assert [[r[3] for r in records] for records in puts] == [[2, 3]]
    path = os.path.join(os.environ["GRAPHMOTIVE_CACHE"], "counts.jsonl")
    with open(path, encoding="utf-8") as fh:
        assert [json.loads(line)["q"] for line in fh] == [2, 3]


def test_unusable_cache_location_exits_two(tmp_path, monkeypatch, capsys):
    # GRAPHMOTIVE_CACHE naming a regular file cannot take a write, and a
    # counts.jsonl that is a directory cannot be read
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    (tmp_path / "with_dir" / "counts.jsonl").mkdir(parents=True)
    for location in (a_file, tmp_path / "with_dir"):
        monkeypatch.setenv("GRAPHMOTIVE_CACHE", str(location))
        assert main(["count", "--kind", "YG", "--name", "C3", "--q", "2"]) == 2, location
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot"), location
        assert captured.err.count("\n") == 1 and captured.out == "", location


def test_dispatch_sees_a_command_replaced_after_the_first_call(monkeypatch, capsys):
    # the parser is built once; the command function is looked up per call
    assert main(["count", "--kind", "YG", "--name", "C3", "--q", "2"]) == 0
    capsys.readouterr()
    seen = []
    monkeypatch.setattr(cli, "cmd_count", lambda args: seen.append(args.kind) or 0)
    assert main(["count", "--kind", "XG", "--name", "C3", "--q", "2"]) == 0
    assert seen == ["XG"]
    assert capsys.readouterr().out == ""


def test_cache_round_trip_skips_recomputation(capsys):
    argv = ["count", "--kind", "YG", "--name", "C3", "--q", "2,3", "--stats"]

    code = main(argv)
    first = capsys.readouterr()
    assert code == 0
    first_evals = int(first.err.strip().rsplit("=", 1)[1])
    assert first_evals > 0

    code = main(argv)
    second = capsys.readouterr()
    assert code == 0
    assert second.out == first.out
    assert "evaluations=0" in second.err
