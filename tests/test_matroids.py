"""Matroid rank tables, representation-space counts, and the
projective-plane arithmetic gadgets."""

from __future__ import annotations

import itertools

import pytest

from graphmotive import (
    BadParams,
    BudgetExceeded,
    Matroid,
    ParseError,
    PartialRank,
    TooLarge,
    count_X,
    count_X_oracle,
    count_invertible,
    fano,
    fano_demo,
    make_field,
    matroid_from_text,
    matroid_to_text,
    stats,
    uniform,
    validate_axioms,
    vector_matroid,
    von_staudt_check,
)


def test_matroid_table_validation():
    with pytest.raises(BadParams):
        Matroid(2, (0, 1, 1))  # wrong table length
    with pytest.raises(BadParams):
        Matroid(1, (0, -1))
    with pytest.raises(BadParams):
        Matroid(-1, ())
    m = uniform(1, 2)
    assert m.rank == 1
    assert m.rank_of(0b11) == 1
    with pytest.raises(BadParams):
        m.rank_of(4)


def test_axioms_accept_real_matroids_and_reject_fakes():
    good = [
        uniform(0, 0),
        uniform(0, 3),
        uniform(1, 3),
        uniform(2, 4),
        uniform(3, 3),
        fano(),
        vector_matroid(make_field(3), [[1], [2], [0]]),
    ]
    for m in good:
        assert validate_axioms(m)
    # normalization broken
    assert not validate_axioms(Matroid(1, (1, 1)))
    # rank exceeds cardinality
    assert not validate_axioms(Matroid(1, (0, 2)))
    # monotone but jumps by two
    assert not validate_axioms(Matroid(2, (0, 1, 1, 3)))
    # submodularity broken: all three elements pairwise parallel, yet the
    # whole triple claims rank 2
    assert not validate_axioms(Matroid(3, (0, 1, 1, 1, 1, 1, 1, 2)))
    # two parallel elements plus a free one is a genuine matroid
    assert validate_axioms(Matroid(3, (0, 1, 1, 1, 1, 2, 2, 2)))
    with pytest.raises(TooLarge):
        validate_axioms(uniform(1, 13))


def _rank_axioms_oracle(m: int, r) -> bool:
    """The rank axioms as usually stated, over every pair of subsets."""
    if r[0] != 0:
        return False
    subsets = range(1 << m)
    return all(0 <= r[x] <= bin(x).count("1") for x in subsets) and all(
        (x & y != x or r[x] <= r[y]) and r[x | y] + r[x & y] <= r[x] + r[y]
        for x in subsets
        for y in subsets
    )


def test_local_axioms_agree_with_the_definition():
    # every table with entries 0..3 on at most two elements
    for m in range(3):
        for r in itertools.product(range(4), repeat=1 << m):
            assert validate_axioms(Matroid(m, r)) == _rank_axioms_oracle(m, r), r
    # every table within the cardinality bound on three elements
    bounds = [range(bin(x).count("1") + 1) for x in range(8)]
    for r in itertools.product(*bounds):
        assert validate_axioms(Matroid(3, r)) == _rank_axioms_oracle(3, r), r
    # one entry of a four-element matroid moved by one, either way
    f2 = make_field(2)
    bases = [uniform(k, 4) for k in range(5)] + [
        vector_matroid(f2, [[1, 0], [0, 1], [1, 1], [1, 0]]),
        vector_matroid(f2, [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 0]]),
    ]
    for base in bases:
        assert validate_axioms(base)
        for x in range(16):
            for delta in (-1, 1):
                r = list(base.ranks)
                r[x] += delta
                if r[x] < 0:
                    continue
                r = tuple(r)
                assert validate_axioms(Matroid(4, r)) == _rank_axioms_oracle(4, r), r


def test_uniform_ranks():
    m = uniform(2, 4)
    for mask in range(16):
        assert m.rank_of(mask) == min(2, bin(mask).count("1"))
    with pytest.raises(BadParams):
        uniform(3, 2)


def test_closure():
    f = fano()
    # the closure of two points of the seven-point plane is the line through
    # them: rank-2, three elements
    for a in range(7):
        for b in range(a + 1, 7):
            line = f.closure((1 << a) | (1 << b))
            assert f.rank_of(line) == 2
            assert bin(line).count("1") == 3
    assert f.closure(0) == 0
    assert f.closure(0b111_1111) == 0b111_1111


def test_fano_is_the_binary_projective_plane():
    f = fano()
    assert f.m == 7 and f.rank == 3
    cols = [[(i >> 0) & 1, (i >> 1) & 1, (i >> 2) & 1] for i in range(1, 8)]
    assert f == vector_matroid(make_field(2), cols)
    # three-element circuits = the 7 lines; every 4-element set has rank 3
    lines = [
        mask
        for mask in range(1 << 7)
        if bin(mask).count("1") == 3 and f.rank_of(mask) == 2
    ]
    assert len(lines) == 7
    for mask in range(1 << 7):
        if bin(mask).count("1") >= 4:
            assert f.rank_of(mask) == 3


def test_relabel_symmetry():
    # any permutation fixes a uniform matroid
    m = uniform(2, 4)
    for perm in itertools.permutations(range(4)):
        assert m.relabel(list(perm)) == m
    # swapping the first two coordinate bits of the point labels is a
    # linear automorphism of the seven-point plane
    f = fano()
    swap = [1, 0, 2, 3, 5, 4, 6]
    assert f.relabel(swap) == f
    # an arbitrary transposition is not: it breaks some line
    assert f.relabel([1, 0, 2, 3, 4, 5, 6]) != f
    with pytest.raises(BadParams):
        f.relabel([0] * 7)


def test_partial_rank_validation():
    PartialRank(3, ((0b101, 2), (0b010, 1)))
    with pytest.raises(BadParams):
        PartialRank(2, ((0b100, 1),))  # mask out of range
    with pytest.raises(BadParams):
        PartialRank(2, ((0b01, -1),))
    with pytest.raises(BadParams):
        PartialRank(2, ((0b01, 1), (0b01, 1)))  # duplicate mask
    total = PartialRank.total(uniform(1, 2))
    assert total.ground == 2
    assert dict(total.pairs) == {0: 0, 1: 1, 2: 1, 3: 1}


def test_count_X_matches_oracle_on_uniforms():
    cases = []
    for m in (0, 1, 2, 3):
        for r in range(m + 1):
            for s in range(4):
                for q in (2, 3):
                    if q ** (s * m) <= 4000:
                        cases.append((uniform(r, m), s, q))
    for matroid, s, q in cases:
        assert count_X(matroid, s, q) == count_X_oracle(matroid, s, q)


def test_count_X_matches_oracle_on_random_vector_matroids():
    # loops, parallel elements and an ambient space one larger than the
    # rank exercise every branch of the normalized search
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def configurations(draw):
        q = draw(st.sampled_from([2, 3, 4]))
        mul = make_field(q).mul_table
        dim = draw(st.integers(1, 3))
        cols: list[list[int]] = []
        for _ in range(draw(st.integers(0, 4))):
            kind = draw(st.sampled_from(["any", "loop", "parallel"]))
            if kind == "loop":
                cols.append([0] * dim)
            elif kind == "parallel" and cols:
                base = draw(st.sampled_from(cols))
                c = draw(st.integers(1, q - 1))
                cols.append([mul[c][x] for x in base])
            else:
                cols.append(draw(st.lists(st.integers(0, q - 1), min_size=dim, max_size=dim)))
        return q, cols, draw(st.integers(0, 1))

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(configurations())
    def check(case):
        q, cols, extra = case
        matroid = vector_matroid(make_field(q), cols)
        s = matroid.rank + extra
        hypothesis.assume(q ** (s * matroid.m) <= 20000)
        assert count_X(matroid, s, q) == count_X_oracle(matroid, s, q)

    check()


def test_count_X_conventions():
    assert count_X(uniform(0, 0), 0, 2) == 1  # the empty labeling
    assert count_X(uniform(2, 2), 1, 3) == 0  # ambient too small
    assert count_X(uniform(1, 1), None, 5) == 4  # default ambient = rank
    with pytest.raises(BadParams):
        count_X(uniform(1, 1), -1, 2)
    with pytest.raises(BudgetExceeded):
        count_X(uniform(2, 4), 3, 3, budget=10)


def test_fano_representation_counts():
    # the expensive field orders (5, 7, 8, 9) are exercised by the
    # counterexample acceptance criterion; here the cheap ones suffice
    f = fano()
    # characteristic 2: the engine agrees with the independent exhaustive scan
    assert count_X(f, 3, 2) == count_X_oracle(f, 3, 2) == 168
    # odd characteristic: no representation at all
    assert count_X(f, 3, 3) == 0
    # char-2 counts: invertible matrices act freely and scaling each of the
    # seven vectors is free, so gl(3) * (q-1)^6 divides out to the single
    # projective representation class
    for q in (2, 4):
        assert count_X(f, 3, q) == (q - 1) ** 6 * count_invertible(3, q)


def test_fano_search_is_one_projective_point_per_line():
    # the six non-basis points are tried up to scaling only: a few hundred
    # candidates at q = 7, where every vector multiple took 446341
    stats.reset()
    assert count_X(fano(), 3, 7) == 0
    assert stats.evaluations < 1000


def test_non_fano_plane_counts_vanish_in_characteristic_two():
    # the seven 0/1 vectors of F_3^3 are the mirror image of the seven-point
    # plane: the three "diagonal" points are collinear exactly in
    # characteristic 2, so representations exist only at odd orders
    cols = [[(i >> 0) & 1, (i >> 1) & 1, (i >> 2) & 1] for i in range(1, 8)]
    non_fano = vector_matroid(make_field(3), cols)
    assert non_fano != fano()
    for q in (2, 4, 8):
        assert count_X(non_fano, 3, q) == 0
    for q in (3, 5, 7, 9):
        assert count_X(non_fano, 3, q) == (q - 1) ** 6 * count_invertible(3, q)


def test_fano_demo_table():
    table = fano_demo([2, 3, 4])
    assert table.counts[2] == 168
    assert table.counts[3] == 0
    assert table.counts[4] == (4 - 1) ** 6 * count_invertible(3, 4)
    with pytest.raises(BadParams):
        fano_demo([2, 16])


def test_matroid_text_round_trip():
    for m in [uniform(0, 0), uniform(2, 3), fano()]:
        assert matroid_from_text(matroid_to_text(m)) == m
    # vector form with comments
    text = "# three points on a line over F_3\nvector 3 3 1\n1\n2\n1\n"
    m = matroid_from_text(text)
    assert m == uniform(1, 3)
    for bad in [
        "",
        "vector 3 2\n",          # short header
        "vector 3 2 1\n1\n",     # missing vector line
        "vector 3 1 2\n1\n",     # wrong dimension
        "vector 3 1 1\n7\n",     # entry outside the field
        "2\n0 1 1\n",            # wrong table length
        "x\n",
    ]:
        with pytest.raises(ParseError):
            matroid_from_text(bad)


def test_von_staudt_constructions():
    # the ruler gadgets must reproduce the field tables over every small field
    for q in (2, 3, 4, 5, 7, 8, 9):
        report = von_staudt_check(make_field(q))
        assert bool(report)
        assert report.failures == []
        assert report.pairs_checked > 0
