"""Acceptance suite: the package's top-level guarantees, one test each.

Every check is an exact integer equality (tolerance zero).  Each test ends
by printing a single summary line with its wall-clock time against the
criterion's time budget; the line is visible under `pytest -s` and in the
failure report otherwise.
"""

from __future__ import annotations

import itertools
import random
import time

import graphmotive as gm
from graphmotive import counting
from graphmotive.cli import main
from oracles import rank_census, symmetric_extension_census


def _criterion(num: int, label: str, limit: float, body) -> None:
    started = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"criterion {num}: FAIL - {label}")
        raise
    elapsed = time.perf_counter() - started
    in_time = elapsed < limit
    verdict = "PASS" if in_time else "FAIL (over time budget)"
    print(f"criterion {num}: {verdict} - {label} [{elapsed:.1f}s / {limit:.0f}s]")
    assert in_time, f"{label}: {elapsed:.1f}s exceeded the {limit:.0f}s budget"


# ---------------------------------------------------------------------------
# corpus builders


def _canon(n, edges):
    """Lexicographically least relabeling of an edge multiset."""
    best = None
    for perm in itertools.permutations(range(n)):
        t = tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges))
        if best is None or t < best:
            best = t
    return best


def _simple_iso_classes(n_max):
    """One representative per isomorphism class of simple graphs on
    1..n_max vertices (isolated vertices allowed, no edges required)."""
    seen = {}
    for n in range(1, n_max + 1):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for count in range(len(pairs) + 1):
            for combo in itertools.combinations(pairs, count):
                seen.setdefault((n, _canon(n, combo)), gm.Graph(n, combo))
    return list(seen.values())


def _connected_multigraph_classes(e):
    """Connected multigraph isomorphism classes with exactly e edges (loops
    and parallel edges allowed); connectivity forces at most e+1 vertices."""
    seen = {}
    for k in range(1, e + 2):
        pairs = [(i, j) for i in range(k) for j in range(i, k)]
        for combo in itertools.combinations_with_replacement(pairs, e):
            touched = {v for edge in combo for v in edge}
            if len(touched) != k:
                continue
            g = gm.Graph(k, combo)
            if not g.is_connected():
                continue
            seen.setdefault((k, _canon(k, combo)), g)
    return list(seen.values())


def _multigraph_classes(max_edges):
    """Every multigraph isomorphism class with 1..max_edges edges and no
    isolated vertices, assembled as disjoint unions of connected classes.
    (An isolated vertex multiplies both sides of every identity checked
    over this corpus by the same factor, so dropping them loses nothing.)"""
    by_edges = {e: _connected_multigraph_classes(e) for e in range(1, max_edges + 1)}
    components = [(e, g) for e, gs in sorted(by_edges.items()) for g in gs]
    out = []

    def assemble(idx, remaining, chosen):
        if chosen:
            n = sum(g.n for g in chosen)
            edges = []
            offset = 0
            for g in chosen:
                edges += [(u + offset, v + offset) for u, v in g.edges]
                offset += g.n
            out.append(gm.Graph(n, tuple(edges)))
        for j in range(idx, len(components)):
            e, g = components[j]
            if e <= remaining:
                # j, not j + 1: a component class may repeat
                assemble(j, remaining - e, chosen + [g])

    assemble(0, max_edges, [])
    return out


FORESTS = {
    "one vertex": gm.discrete(1),
    "two vertices": gm.discrete(2),
    "single edge": gm.complete(2),
    "three vertices": gm.discrete(3),
    "edge plus vertex": gm.Graph(3, ((0, 1),)),
    "path of three": gm.path(3),
    "four vertices": gm.discrete(4),
    "edge plus two vertices": gm.Graph(4, ((0, 1),)),
    "two disjoint edges": gm.Graph(4, ((0, 1), (2, 3))),
    "path plus vertex": gm.Graph(4, ((0, 1), (1, 2))),
    "path of four": gm.path(4),
    "three-leaf star": gm.star(3),
}


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_cycle_law():
    def body():
        counting.stats.reset()  # forget memoized counts: force a fresh scan
        for n in (3, 4, 5):
            ring = gm.cycle(n)
            for q in (2, 3, 4, 5, 7, 8, 9):
                assert gm.count_tree_complement(ring, q) == q**n - q ** (n - 1)

    _criterion(1, "cycle counts match the two-term closed form", 5, body)


def test_criterion_02_matrix_tree():
    def body():
        sizes = []
        for n in range(1, 6):
            batch = gm.connected_simple_graphs(n)
            sizes.append(len(batch))
            for g in batch:
                assert gm.matrix_tree_check(g), g
        # labeled connected simple graphs per vertex count
        assert sizes == [1, 1, 4, 38, 728]

    _criterion(
        2, "reduced-determinant equals the spanning-tree polynomial", 30, body
    )


def test_criterion_03_duality_and_signed_sums():
    def body():
        for n in range(1, 6):
            for g in gm.connected_simple_graphs(n):
                assert gm.duality_check(g), g

        corpus = _multigraph_classes(4)
        # census guards on the generator: total classes, the <= 3-edge
        # slice (independently confirmed against a direct enumeration of
        # all labeled multigraphs), and the simple sub-corpus, whose
        # four-edge classes one can list by hand: the three 5-vertex
        # trees, the four forests with a smaller component, the 4-cycle,
        # triangle-plus-pendant-edge, and triangle-plus-disjoint-edge.
        assert len(corpus) == 111
        assert sum(1 for g in corpus if g.m <= 3) == 32
        assert sum(1 for g in corpus if g.is_simple()) == 19
        for g in corpus:
            for q in (2, 3):
                assert gm.verify_contract_delete_sums(g, q), (g, q)

    _criterion(
        3, "complement duality and the contraction-deletion signed sums", 60, body
    )


def test_iso_key_against_brute_force_canon():
    # on the 111 multigraph classes of criterion 3: each key is a
    # relabeling of its graph (the same _canon, the least relabeling over
    # all n! orderings), random relabelings of a class share its key, and
    # distinct classes get distinct keys
    rng = random.Random(29)
    corpus = _multigraph_classes(4)
    keys = set()
    for g in corpus:
        key = g.iso_key()
        assert key[0] == g.n and _canon(g.n, key[1]) == _canon(g.n, g.edges), g
        for _ in range(5):
            perm = rng.sample(range(g.n), g.n)
            edges = [(perm[u], perm[v]) for u, v in g.edges]
            rng.shuffle(edges)
            assert gm.Graph(g.n, tuple(edges)).iso_key() == key, g
        keys.add(key)
    assert len(keys) == len(corpus) == 111


def test_criterion_04_closed_form_counts():
    def body():
        for q in (2, 3, 4):
            for rows in range(4):
                for cols in range(4):
                    census = rank_census(rows, cols, q)
                    for r in range(min(rows, cols) + 2):
                        assert gm.count_rank_maps(rows, cols, r, q) == census.get(
                            r, 0
                        )
                    if rows == cols:
                        assert gm.count_invertible(rows, q) == census.get(rows, 0)
            for d in range(4):
                sym_census = gm.symmetric_rank_census(d, q)
                for r in range(d + 2):
                    assert gm.count_symmetric_rank(d, r, q) == sym_census.get(r, 0)
        assert gm.count_symmetric_rank(2, 2, 2) == 4

    _criterion(4, "rank-count closed forms match exhaustive censuses", 60, body)


def test_criterion_05_symmetric_extension_counts():
    def body():
        for q in (2, 3):
            for d1 in range(4):
                for r1 in range(d1 + 1):
                    for d2 in range(d1, 5):
                        census = symmetric_extension_census(d2, d1, r1, q)
                        for r2 in range(d2 + 2):
                            want = census.get(r2, 0)
                            got = gm.count_symmetric_extensions(d2, r2, d1, r1, q)
                            assert got == want, (d2, r2, d1, r1, q)
                            assert (want > 0) == gm.extension_support(
                                d2, r2, d1, r1
                            ), (d2, r2, d1, r1, q)
                    # every base extends somehow: one border row/column is
                    # q^(d1+1) free choices in total
                    row_sum = sum(
                        gm.count_symmetric_extensions(d1 + 1, r2, d1, r1, q)
                        for r2 in range(d1 + 2)
                    )
                    assert row_sum == q ** (d1 + 1)

    _criterion(
        5, "bordered-extension counts match the exhaustive oracle", 60, body
    )


def test_criterion_06_incidence_identities():
    def body():
        corpus = _simple_iso_classes(3) + [gm.complete(2), gm.cycle(3), gm.star(2)]
        corpus = list({g.key(): g for g in corpus}.values())
        assert len(corpus) == 7

        raw_cap = 10**7

        def raw_states(q, s, n):
            return q ** (s * (s + 1) // 2 + s * n)

        checks = skips = 0
        fails = []

        def run(name, params, q, cost):
            nonlocal checks, skips
            if cost >= raw_cap:
                skips += 1
                return
            report = gm.verify_identity(name, params, q)
            checks += 1
            if not report.equal:
                fails.append((name, params, q, report.lhs, report.rhs))

        for g in corpus:
            n = g.n
            for q in (2, 3):
                for s in (0, 1, 2, 3):
                    for r in range(s + 1):
                        for k in range(min(s, n) + 1):
                            cost = raw_states(q, s, n)
                            run(
                                "firstred",
                                {"graph": g, "s": s, "r": r, "k": k},
                                q,
                                cost,
                            )
                            run(
                                "secondred",
                                {"graph": g, "s": s, "r": r, "k": k},
                                q,
                                cost,
                            )
                            run(
                                "Dreduction",
                                {"graph": g, "s": s, "r": r, "k": k},
                                q,
                                raw_states(q, s, n + 1),
                            )
                        run(
                            "cor-secondred",
                            {"graph": g, "s": s, "r": r},
                            q,
                            raw_states(q, s, n),
                        )
                    run("Jyuck", {"graph": g, "s": s}, q, raw_states(q, s, n + 1))
                for r in range(n + 2):
                    run(
                        "yuck",
                        {"graph": g, "r": r},
                        q,
                        raw_states(q, n + 1, n + 1),
                    )
                for s in (1, 2):
                    for t in (1, 2):
                        for bits in range(1, 1 << n):
                            run(
                                "pi-strat",
                                {"graph": g, "s": s, "t": t, "subset": bits},
                                q,
                                raw_states(q, s, n + t),
                            )

        for M, s_max in [
            (gm.uniform(1, 2), 3),
            (gm.uniform(2, 3), 3),
            (gm.uniform(1, 3), 3),
            (gm.uniform(2, 2), 3),
            (gm.uniform(3, 3), 4),
            (gm.fano(), 3),
        ]:
            for q in (2, 3):
                for s in range(M.rank, s_max + 1):
                    run("grassmann-factor", {"matroid": M, "s": s}, q, 0)

        assert fails == [], fails[:5]
        # grid size is deterministic: freeze it so a silent corpus or
        # cost-rule regression cannot hollow the sweep out
        assert checks == 1424 and skips == 286, (checks, skips)

    _criterion(
        6, "all eight reduction identities hold across the sweep", 180, body
    )


def test_criterion_07_apex_support_isomorphism():
    def body():
        corpus = _simple_iso_classes(3)
        assert len(corpus) == 7
        for g in corpus:
            n = g.n
            for q in (2, 3):
                assert gm.verify_apex_support_iso(g, q), (g, q)
                assert gm.count_A(g, n, n, n, q) == gm.count_blocked_nondegenerate(
                    g, q
                ) * gm.count_invertible(n, q), (g, q)

    _criterion(
        7,
        "apex-support point counts agree and the full-rank table factors",
        60,
        body,
    )


def test_criterion_08_forest_counts_are_polynomial():
    def body():
        for forest in FORESTS.values():
            for s in (0, 1, 2):
                for q in (2, 3):
                    assert gm.forest_J(forest, s, q) == gm.count_J(
                        forest, s, q
                    ), (forest, s, q)

        # the blocked-pattern count of a forest fits an integer polynomial
        # exactly: interpolation degree = number of free matrix cells,
        # sampled on just enough prime powers with one held out
        ladder = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19]
        for name, forest in FORESTS.items():
            degree = forest.n * (forest.n + 1) // 2 - forest.m
            qs = ladder[: degree + 2]
            table = gm.CountTable(
                label=f"blocked:{name}",
                counts={q: gm.count_blocked_nondegenerate(forest, q) for q in qs},
            )
            fitted = gm.fit_polynomial(table, degree)
            assert isinstance(fitted, gm.IntPoly), (name, fitted)
            for q in qs:
                assert fitted.evaluate(q) == table.counts[q]

    _criterion(
        8, "forest recursion matches brute force and counts interpolate", 120, body
    )


def test_criterion_09_fano_counterexample(capsys):
    def body():
        table = gm.fano_demo([2, 3, 4, 5, 7, 8, 9])
        for q in (3, 5, 7, 9):
            assert table.counts[q] == 0, q
        for q in (2, 4, 8):
            assert table.counts[q] > 0, q

        # independent exhaustive oracle at the smallest field
        oracle = gm.count_X_oracle(gm.fano(), 3, 2)
        assert oracle == 168
        assert table.counts[2] == oracle

        fitted = gm.fit_polynomial(table, 5)
        assert isinstance(fitted, gm.NoFit)

        exit_code = main(["counterexample"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "demonstration: PASS" in out

    _criterion(
        9, "seven-point plane counts oscillate and admit no polynomial", 180, body
    )


def _edge_condition_pair_count(g, s, q):
    """Exhaustive count of pairs (symmetric s x s matrix Q, one vector per
    vertex) with every edge's two endpoint vectors Q-orthogonal."""
    field = gm.make_field(q)
    add, mul = field.add_table, field.mul_table
    cells = [(i, j) for i in range(s) for j in range(i, s)]
    vectors = list(itertools.product(range(q), repeat=s))
    total = 0
    for values in itertools.product(range(q), repeat=len(cells)):
        rows = [[None] * s for _ in range(s)]
        for (i, j), v in zip(cells, values):
            rows[i][j] = v
            rows[j][i] = v
        for labeling in itertools.product(vectors, repeat=g.n):
            ok = True
            for u, v in g.edges:
                fu, fv = labeling[u], labeling[v]
                acc = 0
                for i in range(s):
                    for j in range(s):
                        acc = add[acc][mul[fu[i]][mul[rows[i][j]][fv[j]]]]
                if acc != 0:
                    ok = False
                    break
            if ok:
                total += 1
    return total


def test_criterion_10_property_suites(tmp_path, monkeypatch, capsys):
    def body():
        # field axioms, exhaustively over every order up to 16
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
            field = gm.make_field(q)
            add, mul = field.add_table, field.mul_table
            assert len(add) == len(mul) == q
            for a in range(q):
                assert add[a][0] == a
                assert mul[a][1] == a
                assert add[a][field.neg_table[a]] == 0
                if a:
                    assert mul[a][field.inv_table[a]] == 1
                for b in range(q):
                    assert add[a][b] == add[b][a]
                    assert mul[a][b] == mul[b][a]
                    for c in range(q):
                        assert add[add[a][b]][c] == add[a][add[b][c]]
                        assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
                        assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]

        # the rank/span strata partition the whole constrained pair space:
        # with no edges that space is all of affine space, giving the exact
        # power; with edges it is cut out by the orthogonality conditions,
        # so the stratum total must match the exhaustive constrained count
        for s in (0, 1, 2):
            for q in (2, 3):
                for n in (1, 2, 3):
                    g = gm.discrete(n)
                    total = sum(
                        gm.count_A(g, s, r, k, q)
                        for r in range(s + 1)
                        for k in range(min(s, n) + 1)
                    )
                    assert total == q ** (s * (s + 1) // 2 + s * n), (n, s, q)
                for g in (gm.complete(2), gm.path(3), gm.cycle(3)):
                    total = sum(
                        gm.count_A(g, s, r, k, q)
                        for r in range(s + 1)
                        for k in range(min(s, g.n) + 1)
                    )
                    assert total == _edge_condition_pair_count(g, s, q), (
                        g,
                        s,
                        q,
                    )

        # cache round trip: a second identical run answers entirely from
        # disk, with zero fresh enumeration
        monkeypatch.setenv("GRAPHMOTIVE_CACHE", str(tmp_path / "cache"))
        argv = ["count", "--kind", "YG", "--name", "C4", "--q", "2,3", "--stats"]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert main(argv) == 0
        second = capsys.readouterr()
        assert second.out == first.out
        assert "evaluations=0" in second.err
        first_evals = int(first.err.strip().rsplit("=", 1)[1])
        assert first_evals > 0

    _criterion(
        10,
        "field axioms, stratum partition, cache replay",
        60,
        body,
    )


def test_note_von_staudt_gadgets():
    # ruler-construction arithmetic agrees with the field tables at the
    # orders the representability argument leans on
    for q in (2, 3, 5):
        report = gm.von_staudt_check(gm.make_field(q))
        assert bool(report)
        assert report.failures == []
        assert report.pairs_checked > 0
    print("note: PASS - ruler-construction gadgets reproduce field arithmetic")
