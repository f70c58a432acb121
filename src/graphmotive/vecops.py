"""Batched F_q arithmetic on element indices.

Every element of F_q is its index in the field's fixed enumeration, so whole
assignment spaces can be processed as uint8 arrays (every field has
q <= 256).  Where the index arithmetic is native integer arithmetic, the ops
are numpy integer ops; elsewhere they gather from flat q^2 tables.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, partial

import numpy as np

from .ffield import FieldSpec
from .polys import _laplace_plan


class VecField:
    """Batched arithmetic of one field on element indices.

    Operands are uint8 index arrays, numpy uint8 scalars or Python ints in
    range(q), broadcast as numpy broadcasts; every result is uint8.  The ops
    are chosen once, from p and n (Lidl and Niederreiter, Finite Fields,
    ch. 2):
      p = 2:       an index's bits are its coefficients, so add and sub are
                   XOR, and at q = 2 mul is AND;
      q = p odd:   an index is its residue, so add is the uint8 sum less p
                   where it reaches p (a lookup in the field's mod table for
                   p >= 131, where the sum can pass 255), and mul is the
                   product (uint16 above q = 16) reduced by that lookup;
    every other op gathers from the flat q^2 tables: mul for q = 4 .. 256
    even, add and mul for odd prime powers (9, 25, 27, ...).  sub is
    add(a, neg(b)) where it is not native.
    """

    def __init__(self, field: FieldSpec):
        self.neg_table = field.np_tables.neg
        self.inv_table = field.np_tables.inv
        self._add, self._sub, self._mul = _field_ops(field)

    def add(self, a, b) -> np.ndarray:
        return self._add(a, b)

    def mul(self, a, b) -> np.ndarray:
        return self._mul(a, b)

    def neg(self, a) -> np.ndarray:
        return self.neg_table.take(a)

    def sub(self, a, b) -> np.ndarray:
        return self._sub(a, b)

    def dot(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Inner product along the last axis."""
        acc = self.mul(u[..., 0], v[..., 0])
        for k in range(1, u.shape[-1]):
            acc = self.add(acc, self.mul(u[..., k], v[..., k]))
        return acc

    # -- determinants and ranks ------------------------------------------

    def det(self, mats: np.ndarray) -> np.ndarray:
        """Determinant of (N, n, n) index matrices, by walking the Laplace
        expansion of polys._laplace_plan, as polys.symbolic_det does: one
        batch of minors per column mask."""
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

    def rank(self, mats: np.ndarray) -> np.ndarray:
        """Rank of (N, r, c) index matrices.

        Single rows or columns, and shapes of at most 9 cells (3 x 3, 2 x 4,
        4 x 2 and smaller), take the rank from minors: a nonzero k-minor
        implies a nonzero (k-1)-minor, so summing the "some k x k minor is
        nonzero" indicators gives the rank.  Every other shape, 4 x 4 and
        3 x 4 included, is row-reduced: timed on random batches, elimination
        outruns the C(r, k) C(c, k) minors per k there, and loses below.
        """
        nrows, ncols = mats.shape[-2], mats.shape[-1]
        top = min(nrows, ncols)
        if top > 1 and nrows * ncols > 9:
            return self._eliminate(mats)
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


@lru_cache(maxsize=None)
def _field_ops(field: FieldSpec):
    """(add, sub, mul) of the field, chosen from p and n as VecField says,
    once per field: each kernel call builds its own VecField."""
    t = field.np_tables
    q, p, mod, neg = field.q, field.p, t.mod, t.neg
    # a q + b, and a b or a + b in F_p, stay below q^2: uint8 up to q = 16
    wide = np.uint8 if q <= 16 else np.uint16

    def gather(flat):
        return lambda a, b: flat.take(np.multiply(a, q, dtype=wide) + b)

    def reduce(op):
        return lambda a, b: mod.take(op(a, b, dtype=wide))

    def wrap_add(a, b):
        # 2p - 2 < 256: s - p wraps above s exactly where s < p
        s = np.add(a, b, dtype=np.uint8)
        return np.minimum(s, np.subtract(s, p, dtype=np.uint8))

    def wrap_sub(a, b):
        d = np.subtract(a, b, dtype=np.uint8)
        return np.minimum(d, np.add(d, p, dtype=np.uint8))

    if p == 2:
        add = sub = partial(np.bitwise_xor, dtype=np.uint8)
        mul = partial(np.bitwise_and, dtype=np.uint8) if q == 2 else gather(t.flat_mul)
    elif q == p:
        mul = reduce(np.multiply)
        add, sub = (wrap_add, wrap_sub) if p < 128 else (reduce(np.add), None)
    else:
        add, sub, mul = gather(t.flat_add), None, gather(t.flat_mul)
    if sub is None:
        sub = lambda a, b: add(a, neg.take(b))  # noqa: E731
    return add, sub, mul


def decode_assignments(
    start: int, stop: int, positions: int, q
) -> np.ndarray:
    """Mixed-radix digits of the flat indices [start, stop).

    q is the radix of every position, or a sequence of one radix per
    position.  Returns (stop - start, positions) of the smallest unsigned
    dtype that holds the largest radix minus one (uint8 for q <= 256);
    digit 0 is the least significant.
    """
    radices = [q] * positions if isinstance(q, int) else list(q)
    idx = np.arange(start, stop, dtype=np.int64)
    dtype = np.min_scalar_type(max(radices, default=1) - 1)
    out = np.empty((stop - start, positions), dtype=dtype)
    for pos, radix in enumerate(radices):
        out[:, pos] = (idx % radix).astype(out.dtype)
        idx //= radix
    return out


def projective_points(d: int, q: int, start: int, stop: int) -> np.ndarray:
    """Rows [start, stop) of the (q^d - 1)/(q - 1) vectors of F_q^d whose
    first nonzero entry is one, one per line through the origin, as uint8
    field indices: for m = 0 .. d-1 the q^m vectors with leading one at
    position d-1-m, their m trailing entries the base-q digits (least
    significant last) of the offset into the block."""
    out = np.zeros((stop - start, d), dtype=np.uint8)
    base = 0
    for m in range(d):
        lo, hi = max(start, base), min(stop, base + q**m)
        if lo < hi:
            out[lo - start : hi - start, d - 1 - m] = 1  # index 1 is the unit
            digits = decode_assignments(lo - base, hi - base, m, q)
            out[lo - start : hi - start, d - m :] = digits[:, ::-1]
        base += q**m
    return out
