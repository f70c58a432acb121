"""Matroid rank tables, representation-space counts, and the
projective-plane arithmetic gadgets."""

from __future__ import annotations

import copy
import itertools
import math
import random

import pytest

from graphmotive import matroids, vecops
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


def test_partial_rank_validation():
    PartialRank(3, ((0b101, 2), (0b010, 1)))
    with pytest.raises(BadParams):
        PartialRank(2, ((0b100, 1),))  # mask out of range
    with pytest.raises(BadParams):
        PartialRank(2, ((-1, 1),))
    with pytest.raises(BadParams):
        PartialRank(2, ((0b01, -1),))
    with pytest.raises(BadParams):
        PartialRank(2, ((0b01, 1), (0b01, 1)))  # duplicate mask


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


def test_uniform_rank_two_counts_match_the_closed_form_at_large_q():
    # m pairwise independent vectors of F_q^2: m distinct lines of the q + 1,
    # in order, each scaled by a unit.  The orders take every kind of field
    # op at q > 9: XOR and gathers (128, 256), products and sums mod p by
    # lookup (131, 251), gathers (243)
    for q in (128, 131, 243, 251, 256):
        for m in (3, 4, 5):
            want = (q - 1) ** m * math.factorial(q + 1) // math.factorial(q + 1 - m)
            assert count_X(uniform(2, m), 2, q) == want, (q, m)


def test_count_X_matches_oracle_on_random_vector_matroids():
    # loops, parallel elements and ambient spaces up to two larger than the
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
        return q, cols, draw(st.integers(0, 2))

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(configurations())
    def check(case):
        q, cols, extra = case
        matroid = vector_matroid(make_field(q), cols)
        s = matroid.rank + extra
        hypothesis.assume(q ** (s * matroid.m) <= 20000)
        assert count_X(matroid, s, q) == count_X_oracle(matroid, s, q)

    check()


def test_count_X_matches_oracle_on_cut_supported_matroids():
    # the corpus above draws almost no matroid of rank >= 2 with a non-loop
    # element outside the basis.  Here each column is supported on one side
    # of a coordinate cut (a cut at 0 or at the dimension leaves it free),
    # which draws such matroids with a frame element and without one, direct
    # sums among them; a pin of the wrong element shows on the second kind
    rng = random.Random(25)
    seen, kinds = set(), {True: 0, False: 0}
    for _ in range(600):
        q, dim = rng.choice((2, 3)), rng.randint(2, 3)
        cut = rng.randint(0, dim)
        cols = []
        for _ in range(rng.randint(3, 5)):
            lo, hi = (0, cut) if rng.random() < 0.5 else (cut, dim)
            cols.append([rng.randrange(q) if lo <= i < hi else 0 for i in range(dim)])
        matroid = vector_matroid(make_field(q), cols)
        r = matroid.rank
        if r < 2 or q ** (r * matroid.m) > 40000 or (matroid.ranks, q) in seen:
            continue
        seen.add((matroid.ranks, q))
        basis = matroids._greedy_basis(matroid, (1 << matroid.m) - 1)
        if not any(matroid.ranks[1 << e] for e in range(matroid.m) if e not in basis):
            continue
        kinds[matroids._frame_element(matroid, basis) is not None] += 1
        assert count_X(matroid, r, q) == count_X_oracle(matroid, r, q), (cols, q)
    assert kinds[True] >= 10 and kinds[False] >= 50, kinds


def test_frame_pin_matches_oracle_with_and_without_a_frame():
    # a frame element needs every basis coordinate nonzero: a direct sum
    # (U1,2 + U1,2) or a matroid with a coloop (U1,2 + U1,1, U2,3 + U1,1)
    # has none and searches unpinned from the basis on; U2,4, the Fano
    # plane, U1,3 (whose frame adds no factor) and U2,4 with a loop and a
    # parallel element are pinned
    f2, f3 = make_field(2), make_field(3)
    unframed = [
        (vector_matroid(f2, [[1, 0], [1, 0], [0, 1], [0, 1]]), 3),
        (vector_matroid(f2, [[1, 0], [1, 0], [0, 1]]), 3),
        (vector_matroid(f3, [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]]), 2),
    ]
    framed = [
        (uniform(2, 4), 3),
        (fano(), 2),
        (uniform(1, 3), 4),
        (vector_matroid(f3, [[1, 0], [0, 1], [1, 1], [1, 2], [0, 0], [2, 2]]), 3),
    ]
    for cases, has_frame in ((unframed, False), (framed, True)):
        for matroid, q in cases:
            basis = matroids._greedy_basis(matroid, (1 << matroid.m) - 1)
            assert (matroids._frame_element(matroid, basis) is not None) == has_frame
            want = count_X_oracle(matroid, matroid.rank, q)
            assert want > 0 and count_X(matroid, matroid.rank, q) == want, (matroid, q)


def test_count_X_conventions():
    assert count_X(uniform(0, 0), 0, 2) == 1  # the empty labeling
    assert count_X(uniform(2, 2), 1, 3) == 0  # ambient too small
    assert count_X(uniform(1, 1), None, 5) == 4  # default ambient = rank
    with pytest.raises(BadParams):
        count_X(uniform(1, 1), -1, 2)
    stats.reset(budget=10)
    with pytest.raises(BudgetExceeded):
        count_X(uniform(2, 4), 3, 3)


def test_count_X_in_shrunken_chunks(monkeypatch):
    # chunks of 1, 50 and 1000 field entries: one candidate per chunk, line
    # slices of a frontier row (the 13 lines of F_3^3 that each row of the
    # unpinned U2,4 search tries), and several rows per chunk.  The unpinned
    # U3,5 in F_2^4 (38 670 nodes) runs at chunk 1000 only, where its
    # candidates meet up to 48 forms each
    cases = [(fano(), 3, 4), (uniform(2, 4), 3, 3)]
    big = (uniform(3, 5), 4, 2)
    want = {}
    for case in cases + [big]:
        stats.reset()
        want[case] = (count_X(*case), stats.evaluations)
    dot, sizes = vecops.VecField.dot, []
    points, starts = vecops.projective_points, []

    def recorded_dot(self, u, v):
        out = dot(self, u, v)
        sizes.append(out.size)
        return out

    def recorded_points(d, q, start, stop):
        starts.append(start)
        return points(d, q, start, stop)

    monkeypatch.setattr(vecops.VecField, "dot", recorded_dot)
    monkeypatch.setattr(vecops, "projective_points", recorded_points)
    for chunk in (1, 50, 1000):
        monkeypatch.setattr(matroids, "_X_CHUNK", chunk)
        sizes.clear()
        starts.clear()
        for case in cases + ([big] if chunk == 1000 else []):
            stats.reset()
            assert (count_X(*case), stats.evaluations) == want[case], (chunk, case)
        if chunk < 1000:
            # a frontier row is split over line slices
            assert max(starts) > 0, chunk
        # the budget is charged per chunk, yet refused at the same node
        stats.reset(budget=10)
        with pytest.raises(BudgetExceeded):
            count_X(uniform(2, 4), 3, 3)
        assert stats.evaluations == 11
    # a chunk's form values fit in it, though a candidate of the unpinned
    # U3,5 search meets up to 48 forms: the chunk bounds rows times forms
    assert 0 < max(sizes) <= 1000


def test_count_X_refuses_an_entry_over_the_budget_before_decoding_it(monkeypatch):
    # unpinned U2,3 in F_2^12: the first level tries the 4095 lines of
    # F_2^12, and its 4095 survivors each try 4095 lines again, which is
    # over the budget, so the second level is refused before any of it
    # decodes, with the same evaluation count as a refusal mid-search
    points, calls = vecops.projective_points, []

    def recorded(*args):
        calls.append(args)
        return points(*args)

    monkeypatch.setattr(vecops, "projective_points", recorded)
    stats.reset(budget=10**5)
    with pytest.raises(BudgetExceeded):
        count_X(uniform(2, 3), 12, 2)
    assert stats.evaluations == 10**5 + 1
    assert len(calls) <= 2


def test_maclane_plane_counts_depend_on_q_mod_3():
    # MacLane's plane, AG(2,3) minus a point: eight points on eight 3-point
    # lines.  It is representable over a field exactly when x^2 - x + 1 has
    # a root there (Oxley, Matroid Theory), and over F_q it has one
    # projective class per root: none for q = 2 mod 3, one for q = 0 mod 3,
    # two for q = 1 mod 3, so the count is quasi-polynomial in q
    cols = [[x, y, 1] for x in range(3) for y in range(3) if (x, y) != (0, 0)]
    maclane = vector_matroid(make_field(3), cols)
    lines = [m for m in range(1 << 8) if bin(m).count("1") == 3 and maclane.ranks[m] == 2]
    assert len(lines) == 8
    classes = {2: 0, 3: 1, 4: 2, 5: 0, 7: 2, 8: 0, 9: 1}
    for q, c in classes.items():
        assert count_X(maclane, 3, q) == c * (q - 1) ** 7 * count_invertible(3, q), q
    assert count_X_oracle(maclane, 3, 2) == 0


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


def test_von_staudt_check_reports_a_broken_table():
    # F_5 with 2*3 = 3*2 = 4 in place of 1. The gadget's own cross products
    # run through the broken entries, so it misses the table at all four
    # pairs of factors from {2, 3}, 2*2 and 3*3 included; nothing raises.
    field = copy.copy(make_field(5))
    mul = [list(row) for row in field.mul_table]
    mul[2][3] = mul[3][2] = 4
    field.mul_table = mul
    report = von_staudt_check(field)
    assert not report
    assert report.pairs_checked == 25
    assert sorted(f[0] for f in report.failures) == [
        ("mul", 2, 2),
        ("mul", 2, 3),
        ("mul", 3, 2),
        ("mul", 3, 3),
    ]
    # F_5 with 4 + 0 = 0: the frame still stands, but 28 gadget runs
    # collapse to the zero triple; each is a recorded failure, not a skip
    field = copy.copy(make_field(5))
    add = [list(row) for row in field.add_table]
    add[4][0] = 0
    field.add_table = add
    report = von_staudt_check(field)
    assert (("neg", 0), (0, 0, 0), (0, 0, 1)) in report.failures
    assert sum(got == (0, 0, 0) for _, got, _ in report.failures) == 28
    # F_5 with 1 + 0 = 0 breaks the frame itself: one recorded failure and
    # no pair checked
    field = copy.copy(make_field(5))
    add = [list(row) for row in field.add_table]
    add[1][0] = 0
    field.add_table = add
    report = von_staudt_check(field)
    assert not report
    assert report.pairs_checked == 0
    assert [f[0] for f in report.failures] == [("frame",)]
