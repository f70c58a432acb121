"""Exact arithmetic in small finite fields F_q, q = p^n.

Elements are coefficient vectors over F_p in a fixed polynomial basis.  The
modulus is chosen deterministically (the lexicographically least monic
irreducible of degree n, coefficients compared low-degree-first), so the same
q always yields the same element order and the same multiplication table.
Fields exist only for q <= 256, as their four operation tables: every count
is an exhaustive scan over element indices, and every element operation is
one table lookup.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace

from .errors import (
    DivisionByZero,
    LengthMismatch,
    NotPrimePower,
    TooLarge,
)

TABLE_LIMIT = 256


@dataclass(frozen=True)
class FieldElem:
    """One field element: residues mod p, constant coefficient first."""

    coeffs: tuple[int, ...]

    def __repr__(self) -> str:  # keep test failure output readable
        return f"FieldElem{self.coeffs}"


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
    """A concrete F_q with fixed basis, element order and operation tables."""

    def __init__(self, q: int):
        if q > TABLE_LIMIT:
            raise TooLarge(f"field order {q} exceeds {TABLE_LIMIT}")
        p, n = _prime_power(q)
        self.q = q
        self.p = p
        self.n = n
        self.modulus: tuple[int, ...] = _least_irreducible(p, n)
        self.elements: tuple[FieldElem, ...] = tuple(
            FieldElem(tuple(reversed(digits)))
            for digits in itertools.product(range(p), repeat=n)
        )
        # elements are in lexicographic order on (c_0, ..., c_{n-1}) with the
        # zero element first; index(e) inverts the enumeration.
        self._index = {e.coeffs: i for i, e in enumerate(self.elements)}
        self.zero = self.elements[0]
        self.one = self.element_from_int(1)
        self._build_tables()
        self._np = None

    # -- construction of the index tables ------------------------------

    def _build_tables(self) -> None:
        q, p, n = self.q, self.p, self.n
        elems = self.elements
        add = [[0] * q for _ in range(q)]
        mul = [[0] * q for _ in range(q)]
        neg = [0] * q
        for i, a in enumerate(elems):
            ac = a.coeffs
            neg[i] = self._index[tuple((-c) % p for c in ac)]
            for j in range(i, q):
                bc = elems[j].coeffs
                s = tuple((x + y) % p for x, y in zip(ac, bc))
                add[i][j] = add[j][i] = self._index[s]
                prod = _pmod(_pmul(_ptrim(ac), _ptrim(bc), p), self.modulus, p)
                prod = prod + (0,) * (n - len(prod))
                mul[i][j] = mul[j][i] = self._index[prod]
        inv = [0] * q  # zero has no inverse; its entry is 0, as in np_tables
        for i in range(1, q):
            inv[i] = mul[i].index(1)
        self.add_table = add
        self.mul_table = mul
        self.neg_table = neg
        self.inv_table = inv

    # -- element <-> index ----------------------------------------------

    def index(self, a: FieldElem) -> int:
        return self._index[a.coeffs]

    def element(self, i: int) -> FieldElem:
        return self.elements[i]

    def element_from_int(self, c: int) -> FieldElem:
        """Image of an integer under Z -> F_q (c mod p as a constant)."""
        return FieldElem((c % self.p,) + (0,) * (self.n - 1))

    # -- element-level arithmetic ---------------------------------------

    def _check(self, a: FieldElem) -> None:
        if len(a.coeffs) != self.n:
            raise LengthMismatch(
                f"element has {len(a.coeffs)} coefficients, field needs {self.n}"
            )

    def add(self, a: FieldElem, b: FieldElem) -> FieldElem:
        self._check(a)
        self._check(b)
        return self.elements[self.add_table[self.index(a)][self.index(b)]]

    def neg(self, a: FieldElem) -> FieldElem:
        self._check(a)
        return self.elements[self.neg_table[self.index(a)]]

    def sub(self, a: FieldElem, b: FieldElem) -> FieldElem:
        return self.add(a, self.neg(b))

    def mul(self, a: FieldElem, b: FieldElem) -> FieldElem:
        self._check(a)
        self._check(b)
        return self.elements[self.mul_table[self.index(a)][self.index(b)]]

    def inv(self, a: FieldElem) -> FieldElem:
        self._check(a)
        if a == self.zero:
            raise DivisionByZero("inverse of zero")
        return self.elements[self.inv_table[self.index(a)]]

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


def matrix_rank_minors(field: FieldSpec, rows: list[list[int]]) -> int:
    """Independent rank oracle: largest k with a nonzero k x k minor of the
    matrix whose rows are lists of element indices."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0

    def at(i: int, j: int) -> FieldElem:
        return field.element(rows[i][j])

    def det(rsel: tuple[int, ...], csel: tuple[int, ...]) -> FieldElem:
        if len(rsel) == 1:
            return at(rsel[0], csel[0])
        total = field.zero
        for pos, r in enumerate(rsel):
            sub = det(rsel[:pos] + rsel[pos + 1 :], csel[1:])
            term = field.mul(at(r, csel[0]), sub)
            if pos % 2:
                term = field.neg(term)
            total = field.add(total, term)
        return total

    best = 0
    for k in range(1, min(nrows, ncols) + 1):
        found = False
        for rsel in itertools.combinations(range(nrows), k):
            for csel in itertools.combinations(range(ncols), k):
                if det(rsel, csel) != field.zero:
                    found = True
                    break
            if found:
                break
        if found:
            best = k
        else:
            break
    return best
