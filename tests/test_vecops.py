"""Batched field kernels against scalar oracles.

VecField's add, mul, sub and neg are pinned to the field tables for every
order q <= 256, whichever ops the field takes.  VecField.rank answers every matrix shape: small shapes through minors,
larger ones through a batched elimination.  Both sides are compared with
rank_from_index_rows on random and deliberately rank-deficient matrices.
VecField.det is compared with the Leibniz formula on the same kind of
batches.
"""

from __future__ import annotations

import itertools

import pytest

from graphmotive import NotPrimePower, make_field, rank_from_index_rows

np = pytest.importorskip("numpy")

from graphmotive.vecops import VecField  # noqa: E402


def product_matrix(field, a, b):
    """Index matrix of a @ b computed with the scalar tables."""
    add, mul = field.add_table, field.mul_table
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint8)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0
            for k in range(a.shape[1]):
                acc = add[acc][mul[a[i, k]][b[k, j]]]
            out[i, j] = acc
    return out


def sample_matrices(field, rng, r, c, count=24):
    """Uniform matrices (mostly of full rank) plus products through an inner
    dimension below min(r, c), which are rank-deficient by construction."""
    q = field.q
    mats = rng.integers(0, q, size=(2 * count, r, c), dtype=np.uint8)
    for t in range(count):
        k = int(rng.integers(0, min(r, c) + 1))
        a = rng.integers(0, q, size=(r, k))
        b = rng.integers(0, q, size=(k, c))
        mats[count + t] = product_matrix(field, a, b)
    return mats


# every kind of field op: XOR and AND (2), XOR and gather (4, 8, 16), sums and
# products mod p (3, 5, 7, 131 by lookup), gathers (9, 25)
KERNEL_ORDERS = [2, 3, 4, 5, 7, 8, 9, 16, 25, 131]


def test_ops_match_the_tables_for_every_order():
    """On all q^2 pairs, as arrays, broadcast rows and columns, and numpy and
    Python scalars on either side; every result is uint8."""
    for q in range(2, 257):
        try:
            field = make_field(q)
        except NotPrimePower:
            continue
        vf = VecField(field)
        t = field.np_tables
        elems = np.arange(q, dtype=np.uint8)
        a, b = np.repeat(elems, q), np.tile(elems, q)
        want = {"add": t.add, "mul": t.mul, "sub": t.add[:, t.neg]}
        for name, table in want.items():
            op = getattr(vf, name)
            for got in (op(a, b).reshape(q, q), op(elems[:, None], elems[None, :])):
                assert got.dtype == np.uint8, (q, name)
                assert np.array_equal(got, table), (q, name)
            for x in (0, 1, q - 1):
                for scalar in (x, np.uint8(x)):
                    left, right = op(scalar, elems), op(elems, scalar)
                    assert left.dtype == right.dtype == np.uint8, (q, name)
                    assert np.array_equal(left, table[x]), (q, name, x)
                    assert np.array_equal(right, table[:, x]), (q, name, x)
                both = op(np.uint8(x), q // 2)
                assert both.dtype == np.uint8 and both == table[x, q // 2], (q, name)
        neg = vf.neg(elems)
        assert neg.dtype == np.uint8 and np.array_equal(neg, t.neg), q
        assert vf.neg(q - 1) == t.neg[q - 1]


@pytest.mark.parametrize("q", KERNEL_ORDERS)
def test_rank_matches_row_reduction_for_every_shape(q):
    field = make_field(q)
    vf = VecField(field)
    rng = np.random.default_rng(q)
    for r in range(7):
        for c in range(7):
            mats = sample_matrices(field, rng, r, c)
            want = [rank_from_index_rows(field, m.tolist()) for m in mats]
            assert vf.rank(mats).tolist() == want, (r, c)


def test_rank_of_empty_batch():
    vf = VecField(make_field(3))
    for r, c in [(0, 0), (2, 3), (6, 5)]:
        assert vf.rank(np.zeros((0, r, c), dtype=np.uint8)).shape == (0,)


def leibniz_det(field, mat):
    """Index of the determinant as a signed sum over permutations."""
    n = len(mat)
    add, mul = field.add_table, field.mul_table
    total = 0
    for perm in itertools.permutations(range(n)):
        term = 1
        for i, j in enumerate(perm):
            term = mul[term][int(mat[i][j])]
        inversions = sum(perm[a] > perm[b] for a, b in itertools.combinations(range(n), 2))
        total = add[total][field.neg_table[term]] if inversions % 2 else add[total][term]
    return total


@pytest.mark.parametrize("q", KERNEL_ORDERS)
def test_det_matches_leibniz_oracle(q):
    field = make_field(q)
    vf = VecField(field)
    rng = np.random.default_rng(100 + q)
    for n in range(6):
        mats = sample_matrices(field, rng, n, n, count=12)
        want = [leibniz_det(field, m.tolist()) for m in mats]
        assert vf.det(mats).tolist() == want, n
        if n:
            # products through an inner dimension n - 1 are singular
            singular = np.stack([
                product_matrix(
                    field,
                    rng.integers(0, q, size=(n, n - 1)),
                    rng.integers(0, q, size=(n - 1, n)),
                )
                for _ in range(12)
            ])
            assert not vf.det(singular).any(), n
    assert vf.det(np.zeros((0, 3, 3), dtype=np.uint8)).shape == (0,)


def test_decode_assignments_takes_one_radix_per_position():
    # digit 0 is the least significant, as itertools.product's last factor
    from graphmotive.vecops import decode_assignments

    radices = (2, 3, 2, 5)
    want = [row[::-1] for row in itertools.product(*map(range, radices[::-1]))]
    got = decode_assignments(0, len(want), len(radices), radices)
    assert got.dtype == np.uint8
    assert [tuple(row) for row in got.tolist()] == want
    assert decode_assignments(7, 9, 3, (3, 3, 3)).tolist() == (
        decode_assignments(7, 9, 3, 3).tolist()
    ) == [[1, 2, 0], [2, 2, 0]]
    assert decode_assignments(0, 2, 1, (300,)).dtype == np.uint16
