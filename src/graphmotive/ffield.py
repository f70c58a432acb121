"""Exact arithmetic in small finite fields F_q, q = p^n.

An element is a coefficient vector (c_0, ..., c_{n-1}) over F_p in a fixed
polynomial basis, and is known only by its index: the integer whose base-p
digits are c_0 (least significant) to c_{n-1}.  So 0 is zero, 1 is the unit
and the integer c is index c mod p.  The modulus is chosen deterministically
(the lexicographically least monic irreducible of degree n, coefficients
compared low-degree-first), so the same q always yields the same tables.
Fields exist only for q <= 256, and only as their four operation tables:
every count is an exhaustive scan over element indices, and every element
operation is one table lookup.
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


def _ptrim(a: tuple[int, ...]) -> tuple[int, ...]:
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return a[:i]


def _pmul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(tuple(out))


def _pmod(a: tuple[int, ...], m: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Remainder of a by monic m."""
    a = list(a)
    dm = len(m) - 1
    while len(a) > dm:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i in range(dm + 1):
                a[shift + i] = (a[shift + i] - lead * m[i]) % p
        a.pop()
    return _ptrim(tuple(a))


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Trial division by all monic polynomials of degree <= deg/2."""
    deg = len(poly) - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            divisor = tuple(tail) + (1,)
            if not _pmod(poly, divisor, p):
                return False
    return True


def _least_irreducible(p: int, n: int) -> tuple[int, ...]:
    if n == 1:
        return (0, 1)  # the polynomial X
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
    index c mod p.  inv_table maps zero to zero.
    """

    def __init__(self, q: int):
        if q > TABLE_LIMIT:
            raise TooLarge(f"field order {q} exceeds {TABLE_LIMIT}")
        p, n = _prime_power(q)
        self.q = q
        self.p = p
        self.n = n
        self.modulus: tuple[int, ...] = _least_irreducible(p, n)
        # itertools.product varies its last digit fastest, so reversing each
        # tuple puts c_0 first and index i holds the base-p digits of i
        coeffs = [tuple(reversed(d)) for d in itertools.product(range(p), repeat=n)]
        index = {c: i for i, c in enumerate(coeffs)}
        add = [[0] * q for _ in range(q)]
        mul = [[0] * q for _ in range(q)]
        for i, ac in enumerate(coeffs):
            for j in range(i, q):
                bc = coeffs[j]
                s = tuple((x + y) % p for x, y in zip(ac, bc))
                add[i][j] = add[j][i] = index[s]
                prod = _pmod(_pmul(_ptrim(ac), _ptrim(bc), p), self.modulus, p)
                prod = prod + (0,) * (n - len(prod))
                mul[i][j] = mul[j][i] = index[prod]
        self.add_table = add
        self.mul_table = mul
        self.neg_table = [row.index(0) for row in add]
        self.inv_table = [0] + [row.index(1) for row in mul[1:]]
        self._np = None

    # -- numpy views of the tables --------------------------------------

    @property
    def np_tables(self):
        """(add, mul, neg, inv, flat_add, flat_mul) as uint8 arrays;
        inv maps zero to zero."""
        if self._np is None:
            import numpy as np

            add = np.array(self.add_table, dtype=np.uint8)
            mul = np.array(self.mul_table, dtype=np.uint8)
            neg = np.array(self.neg_table, dtype=np.uint8)
            inv = np.array(self.inv_table, dtype=np.uint8)
            self._np = SimpleNamespace(
                add=add,
                mul=mul,
                neg=neg,
                inv=inv,
                flat_add=np.ascontiguousarray(add.reshape(-1)),
                flat_mul=np.ascontiguousarray(mul.reshape(-1)),
            )
        return self._np

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
