"""Batched F_q arithmetic on element indices via numpy table gathers.

Every element of F_q is its index in the field's fixed enumeration; addition
and multiplication become flat-table lookups, so whole assignment spaces can
be processed as uint8 arrays (every field has q <= 256).
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .ffield import FieldSpec


class VecField:
    def __init__(self, field: FieldSpec):
        t = field.np_tables
        self.q = field.q
        self.flat_add = t.flat_add
        self.flat_mul = t.flat_mul
        self.neg_table = t.neg
        self.inv_table = t.inv

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.flat_add[a.astype(np.int32) * self.q + b]

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.flat_mul[a.astype(np.int32) * self.q + b]

    def neg(self, a: np.ndarray) -> np.ndarray:
        return self.neg_table[a]

    def sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.add(a, self.neg(b))

    def dot(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Inner product along the last axis."""
        acc = self.mul(u[..., 0], v[..., 0])
        for k in range(1, u.shape[-1]):
            acc = self.add(acc, self.mul(u[..., k], v[..., k]))
        return acc

    # -- determinants and ranks ------------------------------------------

    def det(self, mats: np.ndarray) -> np.ndarray:
        """Determinant of (N, n, n) index matrices, by Laplace expansion down
        the rows, memoized on column sets as in polys.symbolic_det: the minor
        on the last k rows and a k-column set expands along its top row into
        minors on the last k - 1 rows."""
        n = mats.shape[-1]
        if n == 0:
            return np.ones(mats.shape[0], dtype=mats.dtype)  # index 1 is the unit
        minors = {1 << j: mats[:, n - 1, j] for j in range(n)}
        for mask, row, plus, minus in _laplace_plan(n):
            signed = []
            for terms in (plus, minus):
                acc = None
                for j, rest in terms:
                    t = self.mul(mats[:, row, j], minors[rest])
                    acc = t if acc is None else self.add(acc, t)
                signed.append(acc)
            minors[mask] = self.sub(*signed)
        return minors[(1 << n) - 1]

    def rank(self, mats: np.ndarray, cap: int | None = None) -> np.ndarray:
        """Rank of (N, r, c) index matrices, clamped to cap when given.

        Up to min(r, c) = 4 the rank comes from minors: a nonzero k-minor
        implies a nonzero (k-1)-minor, so summing the "some k x k minor is
        nonzero" indicators gives the rank.  Larger shapes are row-reduced,
        since the C(r, k) C(c, k) minors per k outgrow one elimination.
        (Elimination already wins at some smaller shapes, such as 4 x 3;
        moving the bound is a performance change of its own.)
        """
        nrows, ncols = mats.shape[-2], mats.shape[-1]
        top = min(nrows, ncols)
        if cap is not None:
            top = min(top, cap)
        if min(nrows, ncols) > 4:
            ranks = self._eliminate(mats)
            return np.minimum(ranks, top, out=ranks)
        ranks = np.zeros(mats.shape[0], dtype=np.uint8)
        for k in range(1, top + 1):
            seen = None
            for rows in itertools.combinations(range(nrows), k):
                sub = mats[:, rows, :]
                for colsel in itertools.combinations(range(ncols), k):
                    d = self.det(sub[:, :, colsel])
                    nz = d != 0
                    seen = nz if seen is None else (seen | nz)
            ranks += seen.astype(np.uint8)
            if not seen.any():
                break
        return ranks

    def _eliminate(self, mats: np.ndarray) -> np.ndarray:
        """Rank by Gaussian elimination without row swaps.

        Each matrix marks the rows already used as pivots instead of moving
        them, so one column step is a gather of each matrix's pivot row and
        one update per row; temporaries stay (N, c) while the working copy
        keeps uint8 entries.
        """
        if mats.shape[-1] > mats.shape[-2]:
            mats = mats.transpose(0, 2, 1)  # fewer columns, fewer steps
        work = np.array(mats, dtype=np.uint8)
        count, nrows, ncols = work.shape
        batch = np.arange(count)
        free = np.ones((count, nrows), dtype=bool)
        ranks = np.zeros(count, dtype=np.uint8)
        for j in range(ncols):
            # free rows are already zero in every earlier pivot column
            cand = (work[:, :, j] != 0) & free
            found = cand.any(axis=1)
            piv = cand.argmax(axis=1)
            free[batch, piv] &= ~found
            ranks += found
            if j + 1 == ncols:
                break
            scale = self.inv_table[work[batch, piv, j]]  # inv[0] = 0
            prow = work[batch, piv, j + 1 :]
            for i in range(nrows):
                # -(w_ij / pivot), zero on pivot rows and pivotless matrices
                factor = self.neg(self.mul(work[:, i, j], scale)) * free[:, i]
                work[:, i, j + 1 :] = self.add(
                    work[:, i, j + 1 :], self.mul(factor[:, None], prow)
                )
        return ranks


@functools.cache
def _laplace_plan(n: int):
    """det's expansion steps for n x n matrices, smaller column sets first:
    (column mask, the row it expands along, its (column, remaining mask)
    terms of sign + and of sign -).  Masks of one column are the last row's
    entries themselves and need no step."""
    steps = []
    for k in range(2, n + 1):
        for cols in itertools.combinations(range(n), k):
            mask = sum(1 << j for j in cols)
            terms = [(j, mask & ~(1 << j)) for j in cols]
            steps.append((mask, n - k, tuple(terms[0::2]), tuple(terms[1::2])))
    return tuple(steps)


def decode_assignments(
    start: int, stop: int, positions: int, q: int
) -> np.ndarray:
    """Mixed-radix digits of the flat indices [start, stop).

    Returns (stop - start, positions) uint8; digit 0 is the least significant.
    """
    idx = np.arange(start, stop, dtype=np.int64)
    out = np.empty((stop - start, positions), dtype=np.uint8)
    for pos in range(positions):
        out[:, pos] = (idx % q).astype(np.uint8)
        idx //= q
    return out
