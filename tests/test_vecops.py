"""Batched field kernels against scalar oracles.

VecField.rank answers every matrix shape: small shapes through minors,
larger ones through a batched elimination.  Both sides are compared with
rank_from_index_rows on random and deliberately rank-deficient matrices.
VecField.det is compared with the Leibniz formula on the same kind of
batches.
"""

from __future__ import annotations

import itertools

import pytest

from graphmotive import make_field, rank_from_index_rows

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


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_rank_matches_row_reduction_for_every_shape(q):
    field = make_field(q)
    vf = VecField(field)
    rng = np.random.default_rng(q)
    for r in range(7):
        for c in range(7):
            mats = sample_matrices(field, rng, r, c)
            want = [rank_from_index_rows(field, m.tolist()) for m in mats]
            assert vf.rank(mats).tolist() == want, (r, c)
            for cap in range(min(r, c) + 2):
                got = vf.rank(mats, cap=cap).tolist()
                assert got == [min(w, cap) for w in want], (r, c, cap)


def test_rank_of_empty_batch():
    vf = VecField(make_field(3))
    for r, c in [(0, 0), (2, 3), (6, 5)]:
        assert vf.rank(np.zeros((0, r, c), dtype=np.uint8)).shape == (0,)


def leibniz_det(field, mat):
    """Index of the determinant as a signed sum over permutations."""
    n = len(mat)
    total = field.zero
    for perm in itertools.permutations(range(n)):
        term = field.one
        for i, j in enumerate(perm):
            term = field.mul(term, field.element(int(mat[i][j])))
        inversions = sum(perm[a] > perm[b] for a, b in itertools.combinations(range(n), 2))
        total = field.sub(total, term) if inversions % 2 else field.add(total, term)
    return field.index(total)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
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
