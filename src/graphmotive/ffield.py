"""Exact arithmetic in small finite fields F_q, q = p^n.

An element is a coefficient vector (c_0, ..., c_{n-1}) over F_p in a fixed
polynomial basis, and is known only by its index: the integer whose base-p
digits are c_0 (least significant) to c_{n-1}.  So 0 is zero, 1 is the unit
and the integer c is index c mod p.  The modulus is chosen deterministically
(the lexicographically least monic irreducible of degree n, coefficients
compared low-degree-first), so the same q always yields the same tables.
Fields exist only for q <= 256, and only as their four operation tables,
built in numpy from base-p digits and the multiply-by-x map (Lidl and
Niederreiter, Finite Fields, ch. 2): every count is an exhaustive scan over
element indices, and every element operation is one table lookup.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from types import SimpleNamespace

from .errors import NotPrimePower, TooLarge

TABLE_LIMIT = 256


def _prime_power(q: int) -> tuple[int, int]:
    """Split q into (p, n) with p prime and p**n == q, or raise."""
    if q < 2:
        raise NotPrimePower(f"field order must be >= 2, got {q}")
    for p in range(2, q + 1):
        if p * p > q:
            p = q  # q itself is prime
        if q % p:
            continue
        n = 0
        m = q
        while m % p == 0:
            m //= p
            n += 1
        if m != 1:
            raise NotPrimePower(f"{q} is not a prime power")
        # p came out of trial division, so it is the least divisor: prime.
        return p, n
    raise NotPrimePower(f"{q} is not a prime power")


# -- polynomial helpers over F_p (dense tuples, constant first) --------------


def _pmod(a: tuple[int, ...], m: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Remainder of a by monic m, its zero high coefficients kept."""
    a = list(a)
    dm = len(m) - 1
    while len(a) > dm:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i in range(dm + 1):
                a[shift + i] = (a[shift + i] - lead * m[i]) % p
        a.pop()
    return tuple(a)


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Trial division by all monic polynomials of degree <= deg/2."""
    deg = len(poly) - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            divisor = tuple(tail) + (1,)
            if not any(_pmod(poly, divisor, p)):
                return False
    return True


def _least_irreducible(p: int, n: int) -> tuple[int, ...]:
    for tail in itertools.product(range(p), repeat=n):
        # itertools.product yields coefficient tuples in ascending
        # lexicographic order with the constant coefficient most significant;
        # that is exactly "compare low-degree coefficients first".
        cand = tuple(tail) + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise AssertionError("no irreducible polynomial found")  # unreachable


class FieldSpec:
    """A concrete F_q as its four operation tables over element indices.

    Index i is the element whose coefficient c_j is the j-th base-p digit of
    i, c_0 least significant: 0 is zero, 1 is the unit, and the integer c is
    index c mod p.  inv_table maps zero to zero.  np_tables holds the same
    tables as uint8 arrays (the *_table lists are their .tolist()), and mod,
    the residue mod p of every integer 0 .. (p - 1)^2.
    """

    def __init__(self, q: int):
        if q > TABLE_LIMIT:
            raise TooLarge(f"field order {q} exceeds {TABLE_LIMIT}")
        p, n = _prime_power(q)
        self.q = q
        self.p = p
        self.n = n
        self.modulus: tuple[int, ...] = _least_irreducible(p, n)
        import numpy as np

        # row i of digits holds c_0 .. c_{n-1} of index i
        weights = np.array([p**j for j in range(n)], dtype=np.int64)
        digits = np.arange(q, dtype=np.int64)[:, None] // weights % p
        # a * b = sum_j b_j (a * x^j), and the digits of a * x^j from those
        # of a * x^(j-1): shift up one place and fold the top digit back in
        # by x^n = -(m_0 + ... + m_{n-1} x^(n-1)), m the monic modulus
        fold = np.array([(p - c) % p for c in self.modulus[:n]], dtype=np.int64)
        power = digits
        prod = power[:, None, :] * digits[:, 0, None]
        for j in range(1, n):
            up = np.concatenate([np.zeros((q, 1), dtype=np.int64), power[:, :-1]], axis=1)
            power = (up + power[:, -1:] * fold) % p
            prod += power[:, None, :] * digits[:, j, None]
        # digit vectors back to indices by a sum, not @: set-up builds fields,
        # and matmul's code, which most kernels never run, would add to peak RSS
        unreduced = (digits[:, None, :] + digits, prod, digits * (p - 1))
        add, mul, neg = ((v % p * weights).sum(axis=-1) for v in unreduced)
        inv = ((mul == 1) * np.arange(q)).sum(axis=1)  # row 0 holds no unit: inv[0] = 0
        add, mul, neg, inv = (t.astype(np.uint8) for t in (add, mul, neg, inv))
        self.np_tables = SimpleNamespace(
            add=add, mul=mul, neg=neg, inv=inv,
            flat_add=add.reshape(-1), flat_mul=mul.reshape(-1),
            mod=(np.arange((p - 1) ** 2 + 1) % p).astype(np.uint8),
        )
        self.add_table = add.tolist()
        self.mul_table = mul.tolist()
        self.neg_table = neg.tolist()
        self.inv_table = inv.tolist()

    def __repr__(self) -> str:
        return f"FieldSpec(q={self.q}, p={self.p}, n={self.n}, modulus={self.modulus})"


@lru_cache(maxsize=None)
def make_field(q: int) -> FieldSpec:
    """Construct (and cache) the canonical F_q."""
    return FieldSpec(q)


# -- matrices ----------------------------------------------------------------


def rank_from_index_rows(field: FieldSpec, rows: list[list[int]]) -> int:
    """Row-reduction rank; rows are lists of element indices (mutated copy)."""
    if not rows:
        return 0
    work = [list(r) for r in rows]
    cols = len(work[0])
    mul = field.mul_table
    add = field.add_table
    neg = field.neg_table
    inv = field.inv_table
    rank = 0
    for c in range(cols):
        pivot = None
        for r in range(rank, len(work)):
            if work[r][c]:
                pivot = r
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        prow = work[rank]
        pinv = inv[prow[c]]
        for r in range(rank + 1, len(work)):
            head = work[r][c]
            if head:
                factor = neg[mul[head][pinv]]
                row = work[r]
                fm = mul[factor]
                for j in range(c, cols):
                    row[j] = add[row[j]][fm[prow[j]]]
        rank += 1
        if rank == len(work):
            break
    return rank
