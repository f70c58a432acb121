"""Point counts: polynomial zero scans, hypersurface complements,
symmetric-matrix strata, and the closed-form counting formulas.

Every engine answer here is compared against a brute-force oracle written
with nothing but scalar lookups in the field's operation tables.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import pkgutil
import random
import time

import numpy as np
import pytest

from graphmotive import (
    BadArgs,
    BudgetExceeded,
    Graph,
    MultilinearPoly,
    TooLarge,
    complete,
    count_A,
    count_blocked_nondegenerate,
    count_blocked_rank,
    count_invertible,
    count_rank_maps,
    count_subspaces,
    count_supported_nondegenerate,
    count_symmetric_extensions,
    count_symmetric_rank,
    count_tree_complement,
    count_tree_support,
    count_zeros,
    cycle,
    discrete,
    make_field,
    path,
    rank_from_index_rows,
    spanning_tree_poly,
    star,
    stats,
    strata_counts,
    symmetric_rank_census,
    tree_complement_poly,
    verify_apex_support_iso,
    verify_contract_delete_sums,
    verify_free_vertex_extension,
)
from graphmotive.counting import (
    _VECTOR_CHUNK,
    _census_pattern,
    _count_full_rank,
    _edge_pairs,
    _multilinear_zeros,
    extension_support,
)
from graphmotive.vecops import VecField
from oracles import (
    evaluate,
    rank_census,
    strata_oracle,
    symmetric_extension_census,
    zeros_oracle,
)


def test_count_zeros_against_evaluation_oracle():
    cases = [
        (MultilinearPoly.zero(2), (2, 3, 4, 5, 9)),
        (MultilinearPoly.const(2, 1), (2, 3, 4, 5, 9)),
        # the integer constant 3 vanishes exactly in characteristic 3
        (MultilinearPoly.const(2, 3), (2, 3, 4, 5, 9)),
        (MultilinearPoly.variable(2, 0), (2, 3, 4, 5, 9)),
        (spanning_tree_poly(cycle(3)), (2, 3, 4, 5, 9)),
        (tree_complement_poly(cycle(3)), (2, 3, 4, 5, 9)),
        (spanning_tree_poly(complete(4)), (2, 3)),
        (
            MultilinearPoly.variable(3, 0) * MultilinearPoly.variable(3, 1)
            - MultilinearPoly.variable(3, 2)
            - MultilinearPoly.variable(3, 2),
            (2, 3, 4, 5, 9),
        ),
    ]
    for poly, q_list in cases:
        for q in q_list:
            assert count_zeros(poly, q) == zeros_oracle(poly, q)


def multilinear_zeros_oracle(field, row, k):
    """Zeros in F_q^k of sum over S of row[S] * prod_{v in S} x_v, with the
    coefficients given as field indices, by evaluation at every point."""
    add, mul = field.add_table, field.mul_table
    zeros = 0
    for point in itertools.product(range(field.q), repeat=k):
        monomials = [1]
        for x in point:  # the monomials without x, then each of them times x
            monomials += [mul[m][x] for m in monomials]
        total = 0
        for c, m in zip(row, monomials):
            total = add[total][mul[int(c)][m]]
        zeros += total == 0
    return zeros


def test_multilinear_zeros_against_evaluation_oracle():
    rng = np.random.default_rng(12)
    for k in (2, 3, 4, 5):
        for q in (2, 3, 4, 5):
            field = make_field(q)
            vf = VecField(field)
            coef = rng.integers(0, q, size=(6, 1 << k), dtype=np.uint8)
            coef[0] = 0  # every point is a zero
            coef[1:3, 1:] = 0  # constants: no zeros, then every point
            coef[1:3, 0] = (1, 0)
            coef[3, : 1 << (k - 1)] = 0  # every monomial holds the last variable
            want = [multilinear_zeros_oracle(field, row, k) for row in coef]
            for row, zeros in zip(coef, want):
                assert _multilinear_zeros(vf, row[None], q) == zeros, (k, q, row)
            assert _multilinear_zeros(vf, coef, q).tolist() == want, (k, q)


def test_count_zeros_budget_and_stats():
    # three variables, two held back: the ledger charges the 3 decoded rows
    poly = spanning_tree_poly(cycle(3))
    stats.reset()
    count_zeros(poly, 3)
    assert stats.evaluations == 3
    stats.reset(budget=2)
    with pytest.raises(BudgetExceeded) as info:
        count_zeros(poly, 3)
    assert info.value.required == 3 and info.value.budget == 2


def test_memo_honours_the_run_budget():
    # a count memoized under one budget is not an answer under a smaller one
    stats.reset()
    assert count_A(path(3), 2, 1, 1, 3) == 448
    stats.reset(budget=10)
    with pytest.raises(BudgetExceeded):
        count_A(path(3), 2, 1, 1, 3)


def test_no_public_callable_takes_a_budget():
    # the run's budget lives on the ledger alone, never in a signature
    import graphmotive

    modules = [graphmotive] + [
        importlib.import_module(f"graphmotive.{info.name}")
        for info in pkgutil.iter_modules(graphmotive.__path__)
    ]
    offenders = []
    for mod in modules:
        for name, obj in vars(mod).items():
            if name.startswith("_") or not callable(obj):
                continue
            try:
                params = inspect.signature(obj).parameters
            except (TypeError, ValueError):
                continue
            if "budget" in params:
                offenders.append(f"{mod.__name__}.{name}")
    assert offenders == []


def test_count_zeros_matches_oracle_on_random_polynomials():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
        # five variables at q >= 7 is up to 59049 oracle evaluations
        nvars = draw(st.integers(0, 5 if q <= 5 else 4))
        # coefficients in -9..9 include multiples of every characteristic
        terms = draw(
            st.dictionaries(
                st.integers(0, (1 << nvars) - 1), st.integers(-9, 9), max_size=6
            )
        )
        return MultilinearPoly(nvars, terms), q

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(cases())
    def check(case):
        poly, q = case
        assert count_zeros(poly, q) == zeros_oracle(poly, q)

    check()
    # zero and constant polynomials, in every number of variables
    for nvars in range(6):
        for q in (2, 3, 4, 5, 7, 8, 9):
            if q**nvars > 5**5:
                continue
            for c in (0, 1, 2, 3, -7, 9):
                poly = MultilinearPoly.const(nvars, c)
                assert count_zeros(poly, q) == zeros_oracle(poly, q)


def test_count_zeros_crosses_chunk_boundaries():
    # the tree-complement polynomial of a cycle is the sum of its edge
    # variables; with two held back the scan covers 2^19 points, two chunks
    assert count_tree_complement(cycle(21), 2) == 2**21 - 2**20


def test_hypersurface_complements_on_cycles():
    # one independent cycle: the complement count collapses to q^m - q^(m-1)
    for n in (3, 4, 5):
        g = cycle(n)
        for q in (2, 3, 4, 5):
            assert count_tree_complement(g, q) == q**n - q ** (n - 1)
            expected = q**g.m - zeros_oracle(spanning_tree_poly(g), q)
            assert count_tree_support(g, q) == expected


def test_hypersurface_complements_against_oracle():
    corpus = [
        complete(2),
        path(3),
        star(3),
        complete(4),
        Graph(2, ((0, 1), (0, 1))),
        Graph(3, ((0, 1), (1, 2), (2, 2))),
        Graph(4, ((0, 1), (2, 3))),  # disconnected: empty tree sum
    ]
    for g in corpus:
        for q in (2, 3):
            assert count_tree_complement(g, q) == q**g.m - zeros_oracle(
                tree_complement_poly(g), q
            )
            assert count_tree_support(g, q) == q**g.m - zeros_oracle(
                spanning_tree_poly(g), q
            )


def multigraphs_up_to_relabeling(max_n, max_m):
    """One multigraph, loops and parallel edges allowed, per isomorphism
    class with at most max_n vertices and max_m edges."""
    seen = set()
    for n in range(max_n + 1):
        cells = [(u, v) for u in range(n) for v in range(u, n)]
        perms = list(itertools.permutations(range(n)))
        for m in range(max_m + 1):
            for edges in itertools.combinations_with_replacement(cells, m):
                canon = min(
                    tuple(sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in edges))
                    for p in perms
                )
                if (n, canon) not in seen:
                    seen.add((n, canon))
                    yield Graph(n, edges)


def test_peeled_tree_counts_against_oracle():
    # a count is a product over the blocks, loops and bridges in closed form,
    # and parallel edges peel off before a block is scanned; every count must
    # still be q^m minus the zeros of the whole polynomial.  A zero count
    # does not change when the variables are renamed, so the oracle runs once
    # per polynomial up to renaming (every coefficient of a tree polynomial
    # is 1).
    corpus = list(multigraphs_up_to_relabeling(4, 5))
    corpus += [discrete(0), discrete(1), discrete(2), cycle(1), cycle(2)]
    corpus.append(Graph(5, ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4))))
    oracle = {}

    def zeros(poly, q):
        m = poly.nvars
        canon = min(
            tuple(sorted(sum(1 << p[i] for i in range(m) if mask >> i & 1)
                         for mask in poly.terms))
            for p in itertools.permutations(range(m))
        )
        key = (m, canon, q)
        if key not in oracle:
            oracle[key] = zeros_oracle(poly, q)
        return oracle[key]

    for g in corpus:
        for q in (2, 3, 4, 5):
            stats.reset()
            assert count_tree_support(g, q) == q**g.m - zeros(
                spanning_tree_poly(g), q
            ), (g, q)
            assert count_tree_complement(g, q) == q**g.m - zeros(
                tree_complement_poly(g), q
            ), (g, q)
    # K4 with a pendant path and a loop, and two K4s at a vertex, the second
    # a memo hit on the first: too many variables to rename, so one oracle
    # run per polynomial, at the orders where it is quick
    k4 = list(complete(4).edges)
    for g, qs in (
        (Graph(6, tuple(k4 + [(3, 4), (4, 5), (5, 5)])), (2, 3)),
        (Graph(7, tuple(k4 + [(u + 3, v + 3) for u, v in k4])), (2,)),
    ):
        for q in qs:
            stats.reset()
            assert count_tree_support(g, q) == q**g.m - zeros_oracle(
                spanning_tree_poly(g), q
            ), (g, q)
            assert count_tree_complement(g, q) == q**g.m - zeros_oracle(
                tree_complement_poly(g), q
            ), (g, q)


def test_tree_count_rules_take_every_edge_they_fit_at_once(monkeypatch):
    # the block split takes every loop and bridge in one step and the twin
    # rule every twin, so the recursion is as deep as the rounds of rules,
    # not the edges: P400 is 399 one-edge blocks, each a closed form, so its
    # one memo entry is P400 itself.  A chain of 60 digons with a loop at the
    # first vertex of each link is 120 blocks: the loops are closed forms,
    # and every digon relabels to the one digon, whose twin rule leaves the
    # one-edge graph; three entries.  One frame per edge would raise
    # RecursionError on both.
    def memo_kinds():
        return sorted(key[0] for key in stats.memo)

    for count, kind, want in (
        (count_tree_support, "X", 2**399),
        (count_tree_complement, "Y", 3**399),
    ):
        stats.reset()
        assert count(path(400), 3) == want
        assert memo_kinds() == [kind] and stats.evaluations == 0
    # one connectivity check and one lowpoint search for all 1599 blocks
    # of P1600, where a Betti number per edge took 1.2 s
    bettis, betti = [], Graph.subset_betti
    monkeypatch.setattr(
        Graph, "subset_betti", lambda g, mask: bettis.append(mask) or betti(g, mask)
    )
    stats.reset()
    start = time.perf_counter()
    assert count_tree_support(path(1600), 3) == 2**1599
    assert time.perf_counter() - start < 1
    assert len(bettis) <= 2 and stats.evaluations == 0
    monkeypatch.undo()
    stats.reset()
    assert count_tree_complement(path(5000), 2) == 2**4999
    assert stats.evaluations == 0
    links = [(i, i + 1) for i in range(60)]
    chain = Graph(61, tuple(links + links + [(i, i) for i in range(60)]))
    stats.reset()
    assert count_tree_support(chain, 5) == 100**60  # (5^2 (5 - 1))^60
    assert memo_kinds() == ["X"] * 3 and stats.evaluations == 0


def test_strata_counts_consistency():
    g = cycle(3)
    for q in (2, 3):
        st = strata_counts(g, q)
        total_zeros = q**g.m - count_tree_support(g, q)
        assert st.zero_on[0] == total_zeros
        assert sum(st.zero_exactly_on.values()) == total_zeros
        # direct oracle for each closed stratum: zero out S and count zeros
        # of the restricted polynomial over the remaining coordinates
        field = make_field(q)
        poly = spanning_tree_poly(g)
        for s in range(1 << g.m):
            free = [e for e in range(g.m) if not s >> e & 1]
            hits = 0
            for vals in itertools.product(range(q), repeat=len(free)):
                point = [0] * g.m
                for pos, e in enumerate(free):
                    point[e] = vals[pos]
                if evaluate(poly, field, point) == 0:
                    hits += 1
            assert st.zero_on[s] == hits
    long_path = path(22)
    with pytest.raises(TooLarge):
        strata_counts(long_path, 2)


def test_strata_subset_sums_are_not_the_bottleneck():
    # K6 has 15 edges: the 2^15-point scan is cheap, so the bound holds only
    # while the closed strata and their inclusion-exclusion check take m
    # transform steps over 2^m subsets, not 3^m subset pairs
    g, q = complete(6), 2
    start = time.perf_counter()
    st = strata_counts(g, q)
    assert time.perf_counter() - start < 5.0
    total_zeros = q**g.m - count_tree_support(g, q)
    assert st.zero_on[0] == sum(st.zero_exactly_on.values()) == total_zeros


def test_strata_counts_match_oracle_on_random_graphs():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        n = draw(st.integers(1, 4))
        # loops and multiple edges included
        pairs = [(u, v) for u in range(n) for v in range(u, n)]
        edges = draw(st.lists(st.sampled_from(pairs), max_size=5))
        return Graph(n, tuple(edges)), draw(st.sampled_from([2, 3]))

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(cases())
    def check(case):
        g, q = case
        assert strata_counts(g, q).zero_exactly_on == strata_oracle(g, q)

    check()


def test_contract_delete_signed_sums():
    for g in [complete(2), path(3), cycle(3), star(3), Graph(2, ((0, 1), (0, 1)))]:
        for q in (2, 3):
            assert verify_contract_delete_sums(g, q)
    # K5's 150 classes of minors, from 2688 states before its last edge
    for q in (2, 3):
        assert verify_contract_delete_sums(complete(5), q)


def test_signed_sums_enumerate_the_minors_once_per_run(monkeypatch):
    # both sums and both orders read one recursion over K4's 6 edges,
    # charged once, 3 units per state before each edge.  A partition into
    # blocks that the edges so far connect has prod (b1 + 1) over blocks
    # times prod (edges between + 1) over block pairs states.  Before each
    # of the first four edges 1, 3, 9, 27: the first three, a star, merge
    # no two choices; with 12 (a triangle and the edge 03), 16 + (6 + 6 + 6 + 8) + 3 + (4 + 3 + 3) + 2 = 57 by blocks:
    # none joined, one edge, two edges, three vertices, all four; with 13
    # (K4 less 23), 32 + (9 + 4·12) + (4 + 4) + (6 + 6 + 4 + 4) + 3 = 120.
    # Each class of minors counts X and Y once, as a product over its
    # blocks, and each block class of two or more edges scans once: X on
    # C3, C4, the diamond and K4, Y on those and on the bonds of 2, 3 and 4
    # edges and the triangle with one or two edges doubled (two digons at a
    # vertex are two bonds of 2); by edges 2..6, 1, 3, 4, 3 and 2 scans of
    # q^(edges - 2) rows: 1 + 3·2 + 4·4 + 3·8 + 2·16 = 79 at q = 2 and
    # 1 + 3·3 + 4·9 + 3·27 + 2·81 = 289 at q = 3
    levels, charge = [], stats.charge

    def spy(units, what):
        if what == "signed minor recursion":
            levels.append(units)
        charge(units, what)

    monkeypatch.setattr(stats, "charge", spy)
    assert verify_contract_delete_sums(complete(4), 2)
    assert verify_contract_delete_sums(complete(4), 3)
    assert levels == [3 * n for n in (1, 3, 9, 27, 57, 120)]
    assert stats.evaluations == 3 * (1 + 3 + 9 + 27 + 57 + 120) + 79 + 289


# ---------------------------------------------------------------------------
# symmetric matrices under zero patterns


def pattern_census_oracle(d, q, zero_pairs):
    """Pure element-level enumeration of constrained symmetric matrices."""
    field = make_field(q)
    cells = [
        (i, j)
        for i in range(d)
        for j in range(i, d)
        if i == j or (i, j) not in zero_pairs
    ]
    counts = {}
    for vals in itertools.product(range(q), repeat=len(cells)):
        rows = [[0] * d for _ in range(d)]
        for pos, (i, j) in enumerate(cells):
            rows[i][j] = vals[pos]
            rows[j][i] = vals[pos]
        r = rank_from_index_rows(field, rows)
        counts[r] = counts.get(r, 0) + 1
    return counts


def test_symmetric_rank_census_against_closed_form_and_oracle():
    for d in (0, 1, 2, 3):
        for q in (2, 3, 4):
            census = symmetric_rank_census(d, q)
            assert census == {
                r: c
                for r in range(d + 1)
                if (c := count_symmetric_rank(d, r, q))
            }
            assert pattern_census_oracle(d, q, frozenset()) == census
    assert symmetric_rank_census(4, 2) == {
        r: c for r in range(5) if (c := count_symmetric_rank(4, r, 2))
    }


def all_patterns(d):
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    for r in range(len(pairs) + 1):
        for combo in itertools.combinations(pairs, r):
            yield frozenset(combo)


def test_pattern_census_against_element_oracle():
    for d in (1, 2, 3):
        for q in (2, 3):
            for pattern in all_patterns(d):
                assert _census_pattern(d, q, pattern) == pattern_census_oracle(
                    d, q, pattern
                )


def test_torus_census_against_element_oracle():
    # _census_pattern decodes one matrix per diagonal-torus class, its
    # spanning-forest cells in {0, 1}; the element-level oracle decodes every
    # matrix.  Every pattern at d <= 3 and q <= 5, then at d = 4, 5 a seeded
    # sample of patterns with at most 4096 matrices, beside forests of
    # several components, a free cycle and patterns with no free
    # off-diagonal cell (at most 20000 matrices).
    def check(d, q, pattern):
        want = pattern_census_oracle(d, q, pattern)
        assert _census_pattern(d, q, pattern) == want, (d, q, pattern)

    for d in (1, 2, 3):
        for q in (2, 3, 4, 5):
            for pattern in all_patterns(d):
                check(d, q, pattern)

    def zeros_off(d, free):
        return frozenset(itertools.combinations(range(d), 2)) - set(free)

    special = {
        4: [(), ((0, 1), (2, 3)), ((0, 1), (1, 2), (0, 2))],
        5: [(), ((0, 1), (2, 3)), ((0, 1), (1, 2), (3, 4)),
            ((0, 1), (1, 2), (2, 3), (0, 3))],
    }
    rng = random.Random(16)
    for d in (4, 5):
        patterns = list(all_patterns(d))
        rng.shuffle(patterns)
        cells = d * (d + 1) // 2
        for q in (2, 3, 4):
            fixed = [zeros_off(d, free) for free in special[d]]
            fixed = [p for p in fixed if q ** (cells - len(p)) <= 20000]
            sample = [p for p in patterns if q ** (cells - len(p)) <= 4096][:4]
            for pattern in fixed + sample:
                check(d, q, pattern)


def test_full_rank_count_against_census():
    # the off-diagonal scan with every diagonal cell folded must agree with
    # the plain rank census for every zero pattern at every size; one in
    # eight of the five-vertex patterns at q=2 covers a size above 4
    for d in (2, 3, 4):
        for q in (2, 3, 4):
            for pattern in all_patterns(d):
                full = _census_pattern(d, q, pattern).get(d, 0)
                assert _count_full_rank(d, q, pattern) == full
    for pattern in itertools.islice(all_patterns(5), 0, None, 8):
        full = _census_pattern(5, 2, pattern).get(5, 0)
        assert _count_full_rank(5, 2, pattern) == full


def test_full_rank_count_in_shrunken_chunks():
    # q^(n-2) diagonal values are folded per decoded matrix, so a chunk
    # decodes about _VECTOR_CHUNK / q^(n-2) matrices.  A free block of b
    # vertices has b(b-1)/2 free cells, b - 1 of them a spanning tree of
    # {0, 1} digits: a free K4 block at q=13 decodes 2^3 * 13^3 = 17576
    # matrices against a chunk of 2^18 // 13^3 = 119, a free triangle at
    # q=41 decodes 2^2 * 41 = 164 against a chunk of 3.  Block-diagonal
    # patterns factor into closed counts: the free block times nonzero 1x1
    # blocks for the single vertices.
    for q, block, singles in ((13, 4, 1), (41, 3, 2)):
        want = count_symmetric_rank(block, block, q) * (q - 1) ** singles
        fold = q**3
        free = block * (block - 1) // 2
        rows = 2 ** (block - 1) * q ** (free - block + 1)
        zero_pairs = frozenset(itertools.combinations(range(5), 2)) - set(
            itertools.combinations(range(block), 2)
        )
        assert rows > _VECTOR_CHUNK // fold  # more than one chunk
        stats.reset()
        assert _count_full_rank(5, q, zero_pairs) == want, q
        assert stats.evaluations == rows * fold


def test_blocked_and_supported_counts():
    for g in [discrete(2), complete(2), path(3), cycle(3), complete(3)]:
        for q in (2, 3):
            census = pattern_census_oracle(g.n, q, set(_edge_pairs(g)))
            for r in range(g.n + 1):
                assert count_blocked_rank(g, r, q) == census.get(r, 0)
            assert count_blocked_nondegenerate(g, q) == census.get(g.n, 0)
            comp = g.complement()
            assert count_supported_nondegenerate(g, q) == pattern_census_oracle(
                g.n, q, set(_edge_pairs(comp))
            ).get(g.n, 0)


def test_five_vertex_patterns_against_census():
    g = cycle(5)  # its complement is again a five-cycle
    comp = g.complement()
    for q in (2, 3):
        census = symmetric_rank_census(5, q, zero_pairs=g.edges)
        assert count_blocked_nondegenerate(g, q) == census[5]
        for r in range(6):
            assert count_blocked_rank(g, r, q) == census.get(r, 0)
        supported = symmetric_rank_census(5, q, zero_pairs=comp.edges)
        assert count_supported_nondegenerate(g, q) == supported[5]


def test_free_vertex_and_apex_checks():
    for g in [discrete(1), complete(2), path(3), cycle(3)]:
        for q in (2, 3):
            assert verify_free_vertex_extension(g, q)
            assert verify_apex_support_iso(g, q)


# ---------------------------------------------------------------------------
# closed forms


def test_invertible_count_against_census():
    for q in (2, 3, 4):
        for n in (0, 1, 2):
            assert count_invertible(n, q) == rank_census(n, n, q).get(n, 0)
    assert count_invertible(3, 2) == rank_census(3, 3, 2)[3] == 168
    assert count_invertible(0, 5) == 1
    with pytest.raises(BadArgs):
        count_invertible(-1, 2)


def test_rank_maps_against_census():
    for q in (2, 3):
        for e in (0, 1, 2, 3):
            for f in (0, 1, 2, 3):
                if q ** (e * f) > 20000:
                    continue
                census = rank_census(e, f, q)
                for r in range(min(e, f) + 1):
                    assert count_rank_maps(e, f, r, q) == census.get(r, 0)
                # impossible ranks count zero
                assert count_rank_maps(e, f, min(e, f) + 1, q) == 0
    with pytest.raises(BadArgs):
        count_rank_maps(2, 2, -1, 2)


def test_subspace_counts():
    # Grassmannian sizes by direct quotient of the rank census
    for q in (2, 3):
        for n in (0, 1, 2, 3):
            for k in range(n + 1):
                full = rank_census(k, n, q).get(k, 0) if k else 1
                assert count_subspaces(k, n, q) == full // count_invertible(k, q)
    assert count_subspaces(1, 2, 2) == 3
    assert count_subspaces(2, 4, 2) == 35
    # complement symmetry and out-of-range conventions
    for q in (2, 3):
        for n in range(5):
            for k in range(n + 1):
                assert count_subspaces(k, n, q) == count_subspaces(n - k, n, q)
    assert count_subspaces(-1, 3, 2) == 0
    assert count_subspaces(4, 3, 2) == 0
    assert count_subspaces(0, -1, 2) == 0
    assert count_subspaces(0, 0, 7) == 1


def test_symmetric_rank_closed_form_values():
    assert count_symmetric_rank(2, 2, 2) == 4
    for d in (0, 1, 2, 3):
        for q in (2, 3, 4):
            assert sum(count_symmetric_rank(d, r, q) for r in range(d + 1)) == q ** (
                d * (d + 1) // 2
            )
    assert count_symmetric_rank(2, 3, 5) == 0
    with pytest.raises(BadArgs):
        count_symmetric_rank(-1, 0, 2)
    with pytest.raises(BadArgs):
        count_symmetric_rank(2, -1, 2)


# ---------------------------------------------------------------------------
# bordered extensions


def test_extension_counts_against_census():
    for q in (2, 3):
        for d1 in (0, 1, 2):
            for d2 in range(d1, 4):
                for r1 in range(d1 + 1):
                    census = symmetric_extension_census(d2, d1, r1, q)
                    for r2 in range(d2 + 1):
                        got = count_symmetric_extensions(d2, r2, d1, r1, q)
                        assert got == census.get(r2, 0)
                        assert (got > 0) == extension_support(d2, r2, d1, r1)


def test_extension_counts_depend_only_on_base_rank():
    field = make_field(3)
    # two different rank-1 bases and a rank-2 base that is not diagonal
    bases = [
        (1, [[1, 1], [1, 1]]),
        (1, [[0, 0], [0, 2]]),
        (2, [[0, 1], [1, 0]]),
    ]
    for r1, rows in bases:
        census = symmetric_extension_census(3, 2, r1, 3, base_rows=rows)
        for r2 in range(4):
            assert census.get(r2, 0) == count_symmetric_extensions(3, r2, 2, r1, 3)
    with pytest.raises(BadArgs):
        symmetric_extension_census(3, 2, 1, 3, base_rows=[[0, 1], [0, 0]])
    with pytest.raises(BadArgs):
        symmetric_extension_census(3, 2, 2, 3, base_rows=[[1, 0], [0, 0]])
    assert field is not None


def test_extension_row_sums_telescope():
    # summing over the target rank recovers the number of ways to border:
    # q^(d1+1) new entries
    for q in (2, 3):
        for d1 in (0, 1, 2, 3):
            for r1 in range(d1 + 1):
                total = sum(
                    count_symmetric_extensions(d1 + 1, r2, d1, r1, q)
                    for r2 in range(d1 + 2)
                )
                assert total == q ** (d1 + 1)


def test_extension_bad_params():
    with pytest.raises(BadArgs):
        count_symmetric_extensions(1, 0, 2, 0, 2)  # shrinking is not extending
    with pytest.raises(BadArgs):
        count_symmetric_extensions(2, 0, -1, 0, 2)
    # out-of-range ranks are just empty counts
    assert count_symmetric_extensions(3, 5, 2, 1, 2) == 0
    assert count_symmetric_extensions(3, 1, 2, 2, 2) == 0


def test_wide_borders_are_one_sum_with_no_memo():
    # one sum over the border's rank: neither the recursion depth nor the
    # run's memo grows with the border d2 - d1
    assert count_symmetric_extensions(2000, 3, 0, 0, 3) == count_symmetric_rank(2000, 3, 3)
    assert count_symmetric_extensions(2000, 2000, 1000, 1000, 2) == 2 ** (
        1000 * 1000
    ) * count_symmetric_rank(1000, 1000, 2)
    # every border total is q^(border cells), summed over the target rank
    total = sum(count_symmetric_extensions(60, r2, 30, 11, 5) for r2 in range(61))
    assert total == 5 ** (30 * 30 + 30 * 31 // 2)
    assert stats.memo == {}
