"""Incidence configurations: pairs of a symmetric form and a vertex
labeling, orthogonal across every edge — plus the reduction identities
relating them."""

from __future__ import annotations

import itertools
import time
from collections import Counter

import numpy as np
import pytest

from graphmotive import (
    BadParams,
    BudgetExceeded,
    Graph,
    NotAForest,
    NotSimple,
    PartialRank,
    complete,
    count_A,
    count_H,
    count_J,
    count_J_partial,
    count_K,
    count_L,
    counting,
    cycle,
    discrete,
    fano,
    forest_J,
    incidence,
    make_field,
    path,
    rank_from_index_rows,
    star,
    stats,
    uniform,
    verify_identity,
)
from graphmotive.graphs import indices_from_mask
from graphmotive.incidence import (
    _classes,
    _count,
    _form_tables,
    _point_table,
    _span_table,
    count_A_slow,
)
from graphmotive.vecops import VecField, decode_assignments


def brute_table(g, s, q):
    """Scalar scan over every symmetric form and every labeling.

    Entirely independent of the vectorized engine: builds each matrix,
    checks each edge's bilinear value with scalar field operations, and
    tallies by (form rank, span dimension).
    """
    field = make_field(q)
    add, mul = field.add_table, field.mul_table
    n = g.n
    cells = [(i, j) for i in range(s) for j in range(i, s)]
    table = {
        (r, k): 0 for r in range(s + 1) for k in range(min(s, n) + 1)
    }
    for qvals in itertools.product(range(q), repeat=len(cells)):
        Q = [[0] * s for _ in range(s)]
        for pos, (i, j) in enumerate(cells):
            Q[i][j] = qvals[pos]
            Q[j][i] = qvals[pos]
        r = rank_from_index_rows(field, [row[:] for row in Q])
        for fvals in itertools.product(range(q), repeat=n * s):
            f = [list(fvals[v * s : (v + 1) * s]) for v in range(n)]
            good = True
            for u, v in g.edges:
                total = 0
                for a in range(s):
                    for b in range(s):
                        term = mul[f[u][a]][mul[Q[a][b]][f[v][b]]]
                        total = add[total][term]
                if total != 0:
                    good = False
                    break
            if good:
                k = rank_from_index_rows(field, [row[:] for row in f])
                table[(r, k)] += 1
    return table


BRUTE_CASES = [
    (complete(2), 1, 2),
    (complete(2), 1, 3),
    (complete(2), 2, 2),
    (complete(2), 2, 3),
    (path(3), 2, 2),
    (path(3), 2, 3),
    (cycle(3), 2, 2),
    (discrete(2), 2, 3),
]


def test_count_A_against_element_oracle():
    for g, s, q in BRUTE_CASES:
        expect = brute_table(g, s, q)
        for (r, k), val in expect.items():
            assert count_A(g, s, r, k, q) == val


def test_non_simple_graphs_are_rejected():
    for g in [Graph(1, ((0, 0),)), Graph(2, ((0, 1), (0, 1)))]:
        with pytest.raises(NotSimple):
            count_A(g, 1, 1, 1, 2)
        with pytest.raises(NotSimple):
            count_J(g, 1, 2)
        # Q = 0 is a closed form, which still checks the graph
        with pytest.raises(NotSimple):
            count_A(g, 1, 0, 1, 2)
        with pytest.raises(NotSimple):
            count_J(g, 0, 2)


def test_zero_form_closed_form_against_oracles():
    # rank 0 with at most one requirement is counted in closed form, with
    # no charge; the element oracles scan every form and map
    for g in (path(3), cycle(3), Graph(3, ((0, 1),))):
        for q in (2, 3):
            for s in (0, 1, 2):
                for k in range(min(s, g.n) + 1):
                    want = count_A_slow(g, s, 0, k, q)
                    stats.reset()
                    assert count_A(g, s, 0, k, q) == want, (g, s, k, q)
                    assert stats.evaluations == 0
    for q in (2, 3):
        for s in (0, 1, 2):
            for pairs in [(), ((0b011, 1),), ((0b111, 2),), ((0b101, 0),), ((0b000, 0),)]:
                pi = PartialRank(3, pairs)
                stats.reset()
                assert count_L(s, pi, q) == brute_L(s, pi, q), (s, pi, q)
                assert stats.evaluations == 0


def test_engine_matches_slow_reference():
    for g, s, q in [
        (cycle(3), 3, 2),
        (star(3), 2, 2),
        (complete(2), 2, 3),
        (cycle(5), 2, 2),  # five labeling rows
        # q = 2 has one nonzero scalar and q = 3 only prime fields: here each
        # scanned point stands for q - 1 vectors per nonzero vertex
        *((g, 1, q) for g in (complete(2), path(3), cycle(3)) for q in (4, 5)),
        (complete(2), 2, 4),
    ]:
        for r in range(s + 1):
            for k in range(min(s, g.n) + 1):
                assert count_A(g, s, r, k, q) == count_A_slow(g, s, r, k, q), (
                    g, s, q, r, k
                )


def test_span_dimensions_share_one_scan():
    # one scan histograms the span dimension: every k of one (graph, s, q,
    # rank) costs what one of them costs alone
    g = path(3)
    slow = [count_A_slow(g, 2, 1, k, 3) for k in range(3)]
    stats.reset()
    assert count_A(g, 2, 1, 1, 3) == slow[1]
    alone = stats.evaluations
    stats.reset()
    assert [count_A(g, 2, 1, k, 3) for k in range(3)] == slow
    assert stats.evaluations == alone > 0


def test_count_A_conventions():
    g = path(3)
    assert count_A(g, 2, 3, 1, 2) == 0     # rank above the ambient dimension
    assert count_A(g, 2, 1, 3, 2) == 0     # span above min(s, n)
    assert count_A(g, 0, 0, 0, 2) == 1     # the empty form and empty labeling
    # class sizes past int64: every symmetric 4 x 4 form over F_256
    assert sum(count_A(discrete(0), 4, r, 0, 256) for r in range(5)) == 256**10
    with pytest.raises(BadParams):
        count_A(g, -1, 0, 0, 2)


def test_specializations_sum_out_of_the_table():
    for g, s, q in [(complete(2), 2, 2), (path(3), 2, 2), (cycle(3), 2, 3)]:
        expect = brute_table(g, s, q)
        j = sum(expect[(s, k)] for k in range(min(s, g.n) + 1))
        assert count_J(g, s, q) == j
        assert count_K(g, s, q) == expect[(s, min(s, g.n))]
    # ambient-n specialization: rank-s forms with full-span labelings
    for g in [complete(2), path(3)]:
        n = g.n
        expect = brute_table(g, n, 2)
        for s in range(n + 1):
            assert count_H(g, s, 2) == expect[(s, n)]


def edge_satisfying_pairs(g, s, q):
    """Pairs meeting every edge condition, with no rank bookkeeping."""
    table = brute_table(g, s, q)
    return sum(table.values())


def test_partition_identity():
    # every admissible (Q, f) pair lands in exactly one (rank, span) cell,
    # so the cells sum back to the constrained pair count — and with no
    # edge to constrain, to the full q^(s(s+1)/2 + sn) pair space
    for g in [discrete(1), discrete(2), discrete(3)]:
        for s in (0, 1, 2):
            for q in (2, 3):
                total = sum(
                    count_A(g, s, r, k, q)
                    for r in range(s + 1)
                    for k in range(min(s, g.n) + 1)
                )
                assert total == q ** (s * (s + 1) // 2 + s * g.n)
    for g in [complete(2), path(3), cycle(3)]:
        for s in (1, 2):
            for q in (2, 3):
                total = sum(
                    count_A(g, s, r, k, q)
                    for r in range(s + 1)
                    for k in range(min(s, g.n) + 1)
                )
                assert total == edge_satisfying_pairs(g, s, q)


def brute_L(s, pi, q):
    field = make_field(q)
    m = pi.ground
    total = 0
    for fvals in itertools.product(range(q), repeat=m * s):
        f = [list(fvals[v * s : (v + 1) * s]) for v in range(m)]
        good = True
        for mask, need in pi.pairs:
            rows = [f[v][:] for v in range(m) if mask >> v & 1]
            if rank_from_index_rows(field, rows) != need:
                good = False
                break
        if good:
            total += 1
    return total


def test_count_L_against_oracle():
    for q in (2, 3):
        for s in (1, 2):
            for pairs in [
                (),
                ((0b11, 1),),
                ((0b01, 1), (0b11, 2)),
                ((0b01, 0), (0b10, 1)),
                ((0b00, 0),),
            ]:
                pi = PartialRank(2, pairs)
                assert count_L(s, pi, q) == brute_L(s, pi, q)
    # empty ground set, zero ambient dimension, five-element subsets
    for q in (2, 3):
        for s, pi in [
            (2, PartialRank(0, ())),
            (2, PartialRank(0, ((0, 0),))),
            (0, PartialRank(0, ((0, 0),))),
            (0, PartialRank(2, ((0b11, 0), (0b01, 0)))),
            (2, PartialRank(5, ((0b11111, 2), (0b00111, 1)))),
            (2, PartialRank(5, ((0b11111, 1),))),
            (1, PartialRank(5, ((0b10101, 1), (0b01010, 0)))),
        ]:
            assert count_L(s, pi, q) == brute_L(s, pi, q), (s, pi, q)
    # empty requirements: every labeling counts
    assert count_L(2, PartialRank(3, ()), 3) == 3 ** 6
    # unsatisfiable requirement: more span than vectors or ambient
    assert count_L(1, PartialRank(2, ((0b11, 2),)), 3) == 0
    assert count_L(2, PartialRank(2, ((0b01, 2),)), 3) == 0
    # empty subset needing positive span
    assert count_L(2, PartialRank(2, ((0b00, 1),)), 2) == 0
    # with one requirement or none the form is Q = 0 and the count a closed
    # form: no scan.  Two requirements scan the maps alone, one per
    # projective point of F_7^3 or the zero vector for each of two
    # vertices, (1 + (7^3 - 1)/6)^2 = 58^2: no census of the symmetric forms
    stats.reset()
    assert count_L(3, PartialRank(1, ()), 7) == 7**3
    assert stats.evaluations == 0
    # f0 != 0 and f1 on its line: (7^3 - 1) 7
    assert count_L(3, PartialRank(2, ((0b01, 1), (0b11, 1))), 7) == 342 * 7
    assert stats.evaluations == 58**2
    # 2^8 maps of points, weighted up to 255^8 > 2^63: the weights are
    # summed exactly
    assert count_L(1, PartialRank(8, ()), 256) == 256**8
    # all 31 nonempty subsets of five vectors in F_q^2 span min(2, |S|):
    # five distinct lines in order, (q+1) q (q-1) (q-2) (q-3) ways, each
    # vector any of its line's q - 1 nonzero points; the full mask's span is
    # histogrammed and the other 30 masks filter, none packed with another
    pi = PartialRank(5, tuple((S, min(2, S.bit_count())) for S in range(1, 32)))
    got = [count_L(2, pi, q) for q in (2, 3, 4, 5)]
    assert got == [
        (q + 1) * q * (q - 1) * (q - 2) * (q - 3) * (q - 1) ** 5 for q in (2, 3, 4, 5)
    ]
    assert got == [0, 0, 29160, 737280]


def brute_J_partial(g, s, pi, q):
    field = make_field(q)
    # recount with the span requirements, element by element
    add, mul = field.add_table, field.mul_table
    n = g.n
    cells = [(i, j) for i in range(s) for j in range(i, s)]
    total = 0
    for qvals in itertools.product(range(q), repeat=len(cells)):
        Q = [[0] * s for _ in range(s)]
        for pos, (i, j) in enumerate(cells):
            Q[i][j] = qvals[pos]
            Q[j][i] = qvals[pos]
        if rank_from_index_rows(field, [row[:] for row in Q]) != s:
            continue
        for fvals in itertools.product(range(q), repeat=n * s):
            f = [list(fvals[v * s : (v + 1) * s]) for v in range(n)]
            good = True
            for u, v in g.edges:
                val = 0
                for a in range(s):
                    for b in range(s):
                        val = add[val][mul[f[u][a]][mul[Q[a][b]][f[v][b]]]]
                if val != 0:
                    good = False
                    break
            if not good:
                continue
            for mask, need in pi.pairs:
                rows = [f[v][:] for v in range(n) if mask >> v & 1]
                if rank_from_index_rows(field, rows) != need:
                    good = False
                    break
            if good:
                total += 1
    return total


def test_fast_paths_match_oracles_on_random_small_graphs():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        n = draw(st.integers(0, 3))
        pairs = list(itertools.combinations(range(n), 2))
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        needs = draw(
            st.dictionaries(st.integers(0, (1 << n) - 1), st.integers(0, 2), max_size=3)
        )
        pi = PartialRank(n, tuple(needs.items()))
        return Graph(n, tuple(edges)), pi, draw(st.integers(0, 2)), draw(st.sampled_from([2, 3]))

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(cases())
    def check(case):
        g, pi, s, q = case
        kmax = min(s, g.n)
        for r in range(s + 1):
            for k in range(kmax + 1):
                assert count_A(g, s, r, k, q) == count_A_slow(g, s, r, k, q)
        assert count_J(g, s, q) == sum(count_A(g, s, s, k, q) for k in range(kmax + 1))
        assert count_L(s, pi, q) == brute_L(s, pi, q)

    check()


def test_count_J_partial_against_oracle():
    g = path(3)
    for q in (2, 3):
        for pairs in [(), ((0b011, 1),), ((0b100, 1), (0b111, 2))]:
            pi = PartialRank(3, pairs)
            assert count_J_partial(g, 2, pi, q) == brute_J_partial(g, 2, pi, q)
    # a requirement on all five vertices ranks five labeling rows at once
    g5 = path(5)
    for pairs in [((0b11111, 2),), ((0b11111, 1), (0b00011, 1))]:
        pi = PartialRank(5, pairs)
        assert count_J_partial(g5, 2, pi, 2) == brute_J_partial(g5, 2, pi, 2)
    with pytest.raises(BadParams):
        count_J_partial(g, 2, PartialRank(2, ()), 2)
    assert count_J_partial(g, 1, PartialRank(3, ((0b111, 2),)), 2) == 0


def symmetric_forms(s, q):
    """Every symmetric s x s index matrix over F_q, with its rank."""
    cells = [(i, j) for i in range(s) for j in range(i, s)]
    digits = decode_assignments(0, q ** len(cells), len(cells), q)
    forms = np.zeros((len(digits), s, s), dtype=np.uint8)
    for pos, (i, j) in enumerate(cells):
        forms[:, i, j] = forms[:, j, i] = digits[:, pos]
    return forms, VecField(make_field(q)).rank(forms)


def form_types(forms, ranks, q):
    """The congruence invariant beside the rank.  Odd q: whether the first
    nonsingular principal r-minor (r the rank) is a square.  Even q: whether
    the form is alternating (zero diagonal)."""
    s = forms.shape[1]
    if q % 2 == 0:
        return (forms[:, range(s), range(s)] == 0).all(axis=1)
    field = make_field(q)
    vf = VecField(field)
    squares = sorted({field.mul_table[x][x] for x in range(1, q)})
    types = np.zeros(len(forms), dtype=bool)
    for r in range(1, s + 1):
        sel = np.flatnonzero(ranks == r)
        minor = np.zeros(len(sel), dtype=np.uint8)
        for rows in itertools.combinations(range(s), r):
            sub = forms[sel][:, rows][:, :, rows]
            minor = np.where(minor == 0, vf.det(sub), minor)
        assert (minor != 0).all()
        types[sel] = np.isin(minor, squares)
    return types


def test_class_sizes_match_census_by_invariant():
    for s in range(5):
        for q in (2, 3, 4, 5, 7, 8, 9):
            if q ** (s * (s + 1) // 2) > 10**6:
                continue
            forms, ranks = symmetric_forms(s, q)
            census = Counter(zip(ranks.tolist(), form_types(forms, ranks, q).tolist()))
            sizes = {}
            for r in range(s + 1):
                for Q, size in _classes(s, q, r):
                    Q = Q[None]
                    rank = int(VecField(make_field(q)).rank(Q)[0])
                    key = (rank, bool(form_types(Q, np.array([rank]), q)[0]))
                    assert rank == r and key not in sizes, (s, q, key)
                    sizes[key] = size
            assert sizes == census, (s, q)


def per_form_accepts(g, s, q):
    """The maps f of the vertices into F_q^s, and accepts[r, j]: how many
    symmetric forms of rank r meet every edge condition with the j-th map.
    Scans every form against every map, element by element."""
    vf = VecField(make_field(q))
    forms, ranks = symmetric_forms(s, q)
    count = q ** (g.n * s)
    maps = decode_assignments(0, count, g.n * s, q).reshape(count, g.n, s)
    accepts = np.zeros((s + 1, len(maps)), dtype=np.int64)
    step = max(1, (1 << 18) // len(maps))
    for lo in range(0, len(forms), step):
        block = forms[lo : lo + step, None]
        ok = np.ones((len(block), len(maps)), dtype=bool)
        for u, v in g.edges:
            val = np.zeros(ok.shape, dtype=np.uint8)
            for a in range(s):
                for b in range(s):
                    term = vf.mul(block[:, :, a, b], maps[None, :, u, a])
                    val = vf.add(val, vf.mul(term, maps[None, :, v, b]))
            ok &= val == 0
        block_ranks = ranks[lo : lo + step]
        for r in range(s + 1):
            accepts[r] += ok[block_ranks == r].sum(axis=0)
    return maps, accepts


# (form, map) pairs the per-form oracle may scan for one case
ORACLE_PAIRS = 2 * 10**6


def test_class_scan_matches_per_form_scan():
    simple = [
        Graph(n, edges)
        for n in range(4)
        for k in range(n * (n - 1) // 2 + 1)
        for edges in itertools.combinations(itertools.combinations(range(n), 2), k)
    ]
    cases = [
        (g, s, q)
        for g in simple
        for s in range(4)
        for q in (2, 3, 4, 5)
        if q ** (s * (s + 1) // 2 + g.n * s) <= ORACLE_PAIRS
    ] + [(complete(2), 4, 2)]
    assert len(cases) == 165
    for g, s, q in cases:
        vf = VecField(make_field(q))
        maps, accepts = per_form_accepts(g, s, q)
        spans = vf.rank(maps)
        for r in range(s + 1):
            for k in range(min(s, g.n) + 1):
                want = int(accepts[r][spans == k].sum())
                assert count_A(g, s, r, k, q) == want, (g, s, q, r, k)
        full = (1 << g.n) - 1
        for constraints in [(), ((full, min(s, g.n)),), ((1, 0),), ((3, 1),)]:
            if any(mask > full for mask, _ in constraints):
                continue
            want = np.ones(len(maps), dtype=bool)
            for mask, need in constraints:
                want &= vf.rank(maps[:, indices_from_mask(mask)]) == need
            for rank in (0, s):
                got = _count(g, s, q, rank, constraints)
                assert got == int(accepts[rank][want].sum()), (g, s, q, constraints)


def test_form_tables_match_element_products():
    # the point table holds one representative of each line of F_q^s and
    # the zero vector; each class's table says p^T Q p' == 0, checked here
    # with the scalar field tables, for every class of every rank (q = 4
    # brings in the alternating class of even q)
    for q in (2, 3, 4, 5, 7):
        field = make_field(q)
        add, mul = field.add_table, field.mul_table
        for s in range(4):
            pts = _point_table(s, q).tolist()
            assert len(pts) == 1 + (q**s - 1) // (q - 1) and pts[0] == [0] * s
            lines = {
                tuple(mul[c][x] for x in p) for p in pts[1:] for c in range(1, q)
            }
            assert len(lines) == q**s - 1, (s, q)
            for r in range(s + 1):
                tables = _form_tables(s, q, r)
                assert len(tables) == len(_classes(s, q, r))
                for (Q, size), (tsize, orth) in zip(_classes(s, q, r), tables):
                    assert tsize == size and orth.shape == (len(pts), len(pts))
                    Q = Q.tolist()
                    for a, p in enumerate(pts):
                        for b, p2 in enumerate(pts):
                            val = 0
                            for i in range(s):
                                for j in range(s):
                                    val = add[val][mul[mul[p[i]][Q[i][j]]][p2[j]]]
                            assert orth[a, b] == (val == 0), (s, q, r, p, p2)


def test_span_tables_match_element_ranks():
    # entry sum p_i P^i is the rank of the point rows p_0 .. p_(k-1), by
    # scalar row reduction; k = 0 and s = 0 give the one-entry zero table
    for q in (2, 3, 4, 5):
        field = make_field(q)
        for s in range(4):
            pts = _point_table(s, q).tolist()
            P = len(pts)
            for k in range(4):
                table = _span_table(s, q, k)
                assert table.dtype == np.uint8 and table.shape == (P**k,)
                for flat, got in enumerate(table.tolist()):
                    tup = [flat // P**i % P for i in range(k)]
                    want = rank_from_index_rows(field, [pts[p] for p in tup])
                    assert got == want, (s, q, k, tup)


def test_tables_are_built_once_and_only_within_the_charge(monkeypatch):
    tables = (_point_table, _form_tables, _span_table)

    def misses():
        return tuple(table.cache_info().misses for table in tables)

    # cleared first, so a table an earlier test built cannot hide a build
    for table in tables:
        table.cache_clear()
    # the empty graph scans one map, whose empty mask reads no span table,
    # so no table (nor the 16843010 points of P^3(F_256)) is built
    for r in range(5):
        stats.reset()
        assert count_A(discrete(0), 4, r, 0, 256) == counting.count_symmetric_rank(
            4, r, 256
        )
    assert misses() == (0, 0, 0)
    # P3 into F_3^7 (1094^3 maps times 2 classes) is refused before any
    # table is built
    stats.reset()
    with pytest.raises(BudgetExceeded):
        count_J(path(3), 7, 3)
    assert misses() == (0, 0, 0)
    # so is P3 with 10^5 more vertices joined to all three (P = 2 values a
    # vertex takes, one class), before its memo key or its edge pairs read
    # the 3 10^5 edges
    read = []
    monkeypatch.setattr(Graph, "key", lambda g: read.append("key"))
    monkeypatch.setattr(incidence, "_edge_pairs", lambda g: read.append("pairs"))
    n = 3 + 10**5
    big = Graph(n, ((0, 1), (1, 2), *((v, a) for v in range(3, n) for a in range(3))))
    stats.reset()
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded) as info:
        count_J(big, 1, 2)
    assert time.perf_counter() - start < 1  # reading the edges took 0.7 s
    assert str(info.value) == str(BudgetExceeded(2**n, stats.budget, "incidence scan"))
    assert read == [] and stats.evaluations == 0 and misses() == (0, 0, 0)
    # the charge is read before the graph is checked simple, so a multigraph
    # over the budget is refused for its size and one within it as not simple
    monkeypatch.undo()
    doubled = Graph(2, ((0, 1), (0, 1)))
    stats.reset(3)
    with pytest.raises(BudgetExceeded):
        count_J(doubled, 1, 2)
    stats.reset()
    with pytest.raises(NotSimple):
        count_J(doubled, 1, 2)
    # the tables outlive a run: two runs build each one once
    for _ in range(2):
        stats.reset()
        assert count_A(path(3), 2, 1, 2, 3) == brute_table(path(3), 2, 3)[(1, 2)]
    assert misses() == (1, 1, 1)


def test_scans_past_the_exact_bits_are_refused_by_a_lower_bound():
    # P = 5 values per vertex and 2 classes of invertible forms at s = 2,
    # q = 3.  The need is exact while P^n is small; past _EXACT_BITS only
    # its lower bound 2^(n floor(log2 5) + floor(log2 2)) is stated, with
    # no power built (5^n * 2 itself is about 2^(2.32 n + 1))
    stats.reset(249)
    with pytest.raises(BudgetExceeded) as info:
        count_J(discrete(3), 2, 3)
    assert str(info.value) == "incidence scan needs 250 evaluations, budget is 249"
    n = incidence._EXACT_BITS
    stats.reset()
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded) as info:
        count_J(Graph(n, ()), 2, 3)
    assert time.perf_counter() - start < 0.1
    assert info.value.required is None
    assert str(info.value) == (
        f"incidence scan needs at least 2^{2 * n + 1} evaluations, "
        "budget is 100000000"
    )
    assert stats.evaluations == 0


def test_incidence_counts_build_no_form_census(monkeypatch):
    # every incidence count scans class representatives: none of them
    # lists the q^(s(s+1)/2) symmetric forms
    def refuse(*args):
        raise AssertionError("symmetric forms listed")

    monkeypatch.setattr(counting, "_symmetric_batches", refuse)
    g, q = path(3), 3
    table = brute_table(g, 2, q)
    for r in range(3):
        for k in range(3):
            assert count_A(g, 2, r, k, q) == table[(r, k)]
    assert count_J(g, 2, q) == sum(table[(2, k)] for k in range(3))
    assert count_K(g, 2, q) == table[(2, 2)]
    assert count_H(g, 2, q) > 0
    assert count_L(2, PartialRank(3, ((0b011, 1),)), q) == brute_L(
        2, PartialRank(3, ((0b011, 1),)), q
    )
    pi = PartialRank(3, ((0b101, 2),))
    assert count_J_partial(g, 2, pi, q) == brute_J_partial(g, 2, pi, q)


def test_forest_recursion_matches_enumeration():
    forests = [
        discrete(1),
        discrete(3),
        complete(2),
        path(3),
        path(4),
        star(3),
        Graph(4, ((0, 1), (2, 3))),
        Graph(4, ((0, 1), (1, 2))),  # path plus an isolated vertex
    ]
    for g in forests:
        for s in (0, 1, 2):
            for q in (2, 3):
                assert forest_J(g, s, q) == count_J(g, s, q)
    assert forest_J(path(3), 3, 2) == count_J(path(3), 3, 2)
    with pytest.raises(NotAForest):
        forest_J(cycle(3), 1, 2)


def test_forest_pass_matches_a_transfer_matrix_on_long_paths():
    # one pass from the leaves, no recursion level per leaf: on a path the
    # maps are words in the states f(v) = 0 and f(v) != 0, with transfer
    # matrix T = [[1, q^s - 1], [1, q^(s-1) - 1]] (a nonzero vector is
    # orthogonal to an (s-1)-space); at s = 0 no vector is nonzero
    for s in (0, 1, 2):
        for q in (2, 3):
            t = ((1, q**s - 1), (1, q ** (s - 1) - 1 if s else 0))
            ends = (1, q**s - 1)  # maps of the first vertex, by its state
            for _ in range(1999):
                ends = tuple(ends[0] * t[0][j] + ends[1] * t[1][j] for j in (0, 1))
            got = forest_J(path(2000), s, q)
            assert type(got) is int, (s, q)
            assert got == counting.count_symmetric_rank(s, s, q) * sum(ends), (s, q)


IDENTITY_SMOKE = [
    ("firstred", {"graph": cycle(3), "s": 2, "r": 1, "k": 1}, (2, 3)),
    ("firstred", {"graph": path(3), "s": 2, "r": 2, "k": 2}, (2, 3)),
    ("secondred", {"graph": cycle(3), "s": 2, "r": 1, "k": 1}, (2, 3)),
    ("secondred", {"graph": star(3), "s": 2, "r": 2, "k": 1}, (2, 3)),
    ("cor-secondred", {"graph": cycle(3), "s": 2, "r": 1}, (2, 3)),
    ("cor-secondred", {"graph": path(3), "s": 3, "r": 2}, (2, 3)),
    ("Dreduction", {"graph": path(3), "s": 2, "r": 2, "k": 1}, (2, 3)),
    ("yuck", {"graph": complete(2), "r": 2}, (2, 3, 4)),
    # the ambient dimension for this check is n+1 = 4, so the rank-0 scan is
    # q^16 maps times one form class: within the default budget at q = 3,
    # but about 100 s there, so the case stays at q = 2
    ("yuck", {"graph": path(3), "r": 0}, (2,)),
    ("Jyuck", {"graph": path(3), "s": 2}, (2, 3)),
    ("Jyuck", {"graph": path(3), "s": 3}, (3,)),
    ("pi-strat", {"graph": path(3), "s": 2, "t": 1, "subset": 0b101}, (2, 3)),
    ("pi-strat", {"graph": complete(2), "s": 2, "t": 2, "subset": 0b11}, (2, 3)),
    ("grassmann-factor", {"matroid": uniform(1, 2), "s": 2}, (2, 3)),
    ("grassmann-factor", {"matroid": uniform(2, 3), "s": 3}, (2, 3)),
    ("grassmann-factor", {"matroid": fano(), "s": 3}, (2, 3)),
    ("stanley-iso", {"graph": cycle(3)}, (2, 3)),
    ("stanley-iso", {"graph": path(3)}, (2, 3)),
    ("free-vertex", {"graph": cycle(3)}, (2, 3)),
    ("free-vertex", {"graph": star(3)}, (2,)),
    ("signed-sums", {"graph": cycle(3)}, (2, 3)),
    ("signed-sums", {"graph": complete(4)}, (2,)),
]

# the structural checks report a verdict and no sides
VERDICT_ONLY = {"stanley-iso", "free-vertex", "signed-sums"}


def test_identity_reports():
    # the smoke list covers every identity of the table, and no other name
    assert {name for name, _, _ in IDENTITY_SMOKE} == set(incidence.IDENTITIES)
    for name, params, q_list in IDENTITY_SMOKE:
        assert incidence.IDENTITIES[name] in params, name  # the input it reads
        for q in q_list:
            rep = verify_identity(name, params, q)
            assert rep.equal, (name, params, q, rep.lhs, rep.rhs)
            assert bool(rep)
            assert rep.lhs == rep.rhs
            assert (rep.lhs is None) == (name in VERDICT_ONLY), name
            assert rep.name == name and rep.q == q


def test_identity_checks_are_looked_up_per_call(monkeypatch):
    # a structural check replaced after import is the one that runs, and
    # its verdict is the report's
    seen = []

    def failing(g, q):
        seen.append((g, q))
        return False

    monkeypatch.setattr(counting, "verify_free_vertex_extension", failing)
    rep = verify_identity("free-vertex", {"graph": path(3)}, 3)
    assert not rep and (rep.lhs, rep.rhs) == (None, None)
    assert seen == [(path(3), 3)]


def test_pi_strat_histograms_the_subset_it_varies(monkeypatch):
    # each right-hand count keeps the varied subset last, so its s + 1 span
    # levels read one scan even when a base mask sorts above the subset:
    # one scan for the left side, one for the right
    from graphmotive import incidence

    scans = []
    scan = incidence._scan

    def spy(*args, **kwargs):
        scans.append(args)
        return scan(*args, **kwargs)

    monkeypatch.setattr(incidence, "_scan", spy)
    params = {
        "graph": path(3), "s": 2, "t": 1, "subset": 0b011,
        "base": PartialRank(3, ((0b100, 1),)),
    }
    stats.reset()
    rep = verify_identity("pi-strat", params, 3)
    assert rep.lhs == rep.rhs == 6576
    assert len(scans) == 2


def test_identity_errors():
    with pytest.raises(BadParams):
        verify_identity("nonsense", {"graph": cycle(3)}, 2)
    with pytest.raises(BadParams):
        verify_identity("firstred", {"graph": cycle(3), "s": 2}, 2)  # missing r, k
    with pytest.raises(BadParams):
        verify_identity("yuck", {"graph": complete(2), "r": 4}, 2)  # r > n+1
    with pytest.raises(BadParams, match=r"needs parameters \['graph'\]"):
        verify_identity("signed-sums", {}, 2)
