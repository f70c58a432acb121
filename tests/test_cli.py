"""End-to-end tests of the command-line frontend, run in-process via main().

Every invocation points GRAPHMOTIVE_CACHE at a per-test temporary directory
so runs cannot see each other's cached counts.  Inputs that once ran for a
long time before failing run in a subprocess with a timeout (run_gm), so a
regression fails its test instead of stalling the suite.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from graphmotive import cli, counting, graphs, incidence, matroids
from graphmotive.cli import main
from graphmotive.matroids import PartialRank


SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("GRAPHMOTIVE_CACHE", str(tmp_path / "cache"))


def run_gm(*argv: str) -> subprocess.CompletedProcess:
    """gm argv in a fresh interpreter, killed after 60 s; each input run
    this way finishes in well under a second."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "graphmotive.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )


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


def test_count_rejects_multigraph_for_incidence_kinds(tmp_path, capsys):
    graph_file = tmp_path / "doubled.txt"
    graph_file.write_text("2 2\n0 1\n0 1\n")
    code = main(
        ["count", "--kind", "J", "--graph", str(graph_file), "--q", "2", "--s", "1"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err


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


def test_count_partial_budget_failure_still_reports_the_rest(capsys):
    # q=2 fits in a budget of 10 (the scan needs 2^3 states), q=3 does not.
    code = main(
        ["count", "--kind", "YG", "--name", "C3", "--q", "2,3", "--budget", "10"]
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
    for kind, name, points in (("YG", "K10", 2**45), ("XG", "K9", 2**36)):
        out = run_gm("count", "--kind", kind, "--name", name, "--q", "2")
        assert out.returncode == 1
        assert out.stderr == (
            f"q=2: polynomial zero scan needs {points} evaluations, "
            "budget is 100000000\n"
        )


def test_form_census_is_budgeted():
    # 468 pairs fit a budget of 500, but their census of all 3^6 symmetric
    # 3 x 3 forms does not
    out = run_gm("count", "--kind", "J", "--name", "D0", "--s", "3", "--q", "3",
                 "--budget", "500", "--stats")
    assert out.returncode == 1
    assert out.stdout.splitlines()[1:] == []
    assert out.stderr.splitlines()[0] == (
        "q=3: symmetric form census needs 729 evaluations, budget is 500"
    )


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

    code = main(
        ["verify", "--identity", "Jyuck", "--name", "P3", "--s", "3", "--q", "2,3,2",
         "--format", "json"]
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
    # q = 2 fits in the budget, q = 3 does not; the counter still ends stderr
    code = main(["counterexample", "--budget", "20", "--stats"])
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
        # negative rank
        ["count", "--kind", "H", "--name", "P3", "--s", "-2", "--q", "2"],
        ["count", "--kind", "Zrank", "--name", "P3", "--r", "-1", "--q", "2"],
        *(["count", "--kind", "XM", "--matroid", path, "--q", "2"] for path in not_matroids),
        ["verify", "--identity", "grassmann-factor", "--matroid", not_matroids[0], "--s", "6", "--q", "2"],
    ]
    for argv in bad_invocations:
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.err.startswith("error:"), argv
        assert captured.err.count("\n") == 1, argv
    # the error names the rank the user gave, not count_A's parameters
    main(["count", "--kind", "H", "--name", "P3", "--s", "-2", "--q", "2"])
    assert "s=-2" in capsys.readouterr().err

    # Unknown choices are rejected by the argument parser itself.
    with pytest.raises(SystemExit) as info:
        main(["count", "--kind", "BOGUS", "--name", "C3", "--q", "2"])
    capsys.readouterr()
    assert info.value.code == 2


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
