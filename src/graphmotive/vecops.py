"""Batched F_q arithmetic on element indices via numpy table gathers.

Every element of F_q is its index in the field's fixed enumeration; addition
and multiplication become flat-table lookups, so whole assignment spaces can
be processed as uint8 arrays.  Only fields with q <= 256 get here (larger
orders are over every enumeration budget anyway).
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import BadParams
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

    # -- determinants and ranks (tiny fixed sizes) -----------------------

    def det(self, mats: np.ndarray) -> np.ndarray:
        """Determinant of (N, n, n) index matrices, n <= 4."""
        n = mats.shape[-1]
        if n == 0:
            one = 1  # index of the unit element is always 1 for q >= 2
            return np.full(mats.shape[0], one, dtype=mats.dtype)
        if n == 1:
            return mats[:, 0, 0]
        if n == 2:
            ad = self.mul(mats[:, 0, 0], mats[:, 1, 1])
            bc = self.mul(mats[:, 0, 1], mats[:, 1, 0])
            return self.add(ad, self.neg(bc))
        if n == 3:
            total = None
            for perm in itertools.permutations(range(3)):
                term = self.mul(
                    self.mul(mats[:, 0, perm[0]], mats[:, 1, perm[1]]),
                    mats[:, 2, perm[2]],
                )
                if _parity(perm):
                    term = self.neg(term)
                total = term if total is None else self.add(total, term)
            return total
        if n == 4:
            # Laplace expansion along the first two rows: six 2x2 minors
            # against their complementary minors, signed by (-1)^(1+i+j)
            def m2(r0, r1, c0, c1):
                return self.sub(
                    self.mul(mats[:, r0, c0], mats[:, r1, c1]),
                    self.mul(mats[:, r0, c1], mats[:, r1, c0]),
                )

            comp = {
                (0, 1): (2, 3),
                (0, 2): (1, 3),
                (0, 3): (1, 2),
                (1, 2): (0, 3),
                (1, 3): (0, 2),
                (2, 3): (0, 1),
            }
            total = None
            for (i, j), (ci, cj) in comp.items():
                term = self.mul(m2(0, 1, i, j), m2(2, 3, ci, cj))
                if (1 + i + j) % 2:
                    term = self.neg(term)
                total = term if total is None else self.add(total, term)
            return total
        raise BadParams(f"vectorized determinant capped at 4x4, got {n}")

    def rank(self, mats: np.ndarray, cap: int | None = None) -> np.ndarray:
        """Rank of (N, r, c) index matrices, clamped to cap when given.

        While min(r, c) is within det's closed forms the rank comes from
        minors: a nonzero k-minor implies a nonzero (k-1)-minor, so summing
        the "some k x k minor is nonzero" indicators gives the rank.  Larger
        shapes are row-reduced.
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


def _parity(perm) -> bool:
    """True for odd permutations."""
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return bool(inv & 1)


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
