"""Exhaustive checks of the finite-field layer.

The field tables are the foundation every counting routine stands on, so
the axioms are checked literally, over every element (and every pair or
triple where the loops stay small).
"""

from __future__ import annotations

import hashlib

import pytest

from graphmotive import NotPrimePower, TooLarge, make_field, rank_from_index_rows

PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]
SMALL = [2, 3, 4, 5, 7, 8, 9]


def test_rejects_non_prime_powers():
    for q in [0, 1, 6, 10, 12, 14, 15, 18, 20, 100, -3, -4]:
        with pytest.raises(NotPrimePower):
            make_field(q)


def test_orders_above_256_have_no_field():
    for q in [257, 65536, 2**61 - 1]:
        with pytest.raises(TooLarge):
            make_field(q)


def test_element_enumeration_is_complete_and_distinct():
    """Elements are the indices 0..q-1: every table has one entry per
    element, adding a fixed element permutes them, and 0 and 1 are the
    identities."""
    for q in PRIME_POWERS:
        field = make_field(q)
        add, mul = field.add_table, field.mul_table
        assert len(add) == len(mul) == q
        assert len(field.neg_table) == len(field.inv_table) == q
        for a in range(q):
            assert len(add[a]) == len(mul[a]) == q
            assert sorted(add[a]) == list(range(q))
            assert add[a][0] == a
            assert mul[a][1] == a


def test_integer_embedding_matches_repeated_addition():
    """c * 1, summed one at a time, is index c mod p."""
    for q in PRIME_POWERS:
        field = make_field(q)
        add = field.add_table
        acc = 0
        for c in range(3 * field.p):
            assert acc == c % field.p
            acc = add[acc][1]


def test_additive_group_axioms():
    for q in PRIME_POWERS:
        field = make_field(q)
        add, neg = field.add_table, field.neg_table
        for a in range(q):
            assert add[a][0] == a
            assert add[a][neg[a]] == 0
            for b in range(q):
                assert add[a][b] == add[b][a]


def test_multiplicative_group_axioms():
    for q in PRIME_POWERS:
        field = make_field(q)
        mul, inv = field.mul_table, field.inv_table
        for a in range(q):
            assert mul[a][1] == a
            assert mul[a][0] == 0
            if a:
                assert mul[a][inv[a]] == 1
            for b in range(q):
                assert mul[a][b] == mul[b][a]


def test_associativity_and_distributivity_triples():
    for q in SMALL:
        field = make_field(q)
        add, mul = field.add_table, field.mul_table
        for a in range(q):
            for b in range(q):
                ab_sum = add[a][b]
                ab_prod = mul[a][b]
                for c in range(q):
                    assert add[ab_sum][c] == add[a][add[b][c]]
                    assert mul[ab_prod][c] == mul[a][mul[b][c]]
                    assert mul[ab_sum][c] == add[mul[a][c]][mul[b][c]]


def test_characteristic():
    for q in PRIME_POWERS:
        field = make_field(q)
        add = field.add_table
        acc = 0
        for _ in range(field.p):
            acc = add[acc][1]
        assert acc == 0
        # no smaller repeat count works
        acc = 0
        for k in range(1, field.p):
            acc = add[acc][1]
            assert acc != 0


def test_frobenius_is_additive_on_extension_fields():
    for q in [4, 8, 9, 16]:
        field = make_field(q)
        p = field.p
        add, mul = field.add_table, field.mul_table

        def power(x, e):
            out = 1
            for _ in range(e):
                out = mul[out][x]
            return out

        for a in range(q):
            for b in range(q):
                assert power(add[a][b], p) == add[power(a, p)][power(b, p)]


def test_multiplicative_group_is_cyclic():
    for q in SMALL + [16]:
        mul = make_field(q).mul_table

        def order(x):
            k = 1
            acc = x
            while acc != 1:
                acc = mul[acc][x]
                k += 1
            return k

        orders = [order(a) for a in range(1, q)]
        assert max(orders) == q - 1
        for d in orders:
            assert (q - 1) % d == 0


def test_index_tables_agree_with_element_arithmetic():
    """Every table entry against sums and products computed here on the
    coefficient vectors: sums coefficient-wise mod p, products schoolbook
    and reduced by the field's monic modulus.  The coefficient vector of
    index i is read off the base-p digits of i, so this also pins the
    element order.  27, 32, 81 and 125 have p odd or n >= 3, so the tables'
    multiply-by-x step reduces by the modulus more than once."""

    def poly_sum(a, b, p):
        return tuple((x + y) % p for x, y in zip(a, b))

    def poly_product(a, b, p, modulus):
        n = len(modulus) - 1
        prod = [0] * (2 * n - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
        for d in range(len(prod) - 1, n - 1, -1):
            lead = prod[d]
            for k in range(n + 1):
                prod[d - n + k] = (prod[d - n + k] - lead * modulus[k]) % p
        return tuple(prod[:n])

    for q in SMALL + [16, 27, 32, 81, 125]:
        field = make_field(q)
        p, n = field.p, field.n
        # index i holds the base-p digits of i, c_0 least significant
        coeffs = [tuple(i // p**j % p for j in range(n)) for i in range(q)]
        where = {c: i for i, c in enumerate(coeffs)}
        zero = (0,) * n
        for i, a in enumerate(coeffs):
            assert poly_sum(a, coeffs[field.neg_table[i]], p) == zero
            if i:
                one = (1,) + (0,) * (n - 1)
                assert poly_product(a, coeffs[field.inv_table[i]], p, field.modulus) == one
            else:
                assert field.inv_table[0] == 0
            for j, b in enumerate(coeffs):
                assert field.add_table[i][j] == where[poly_sum(a, b, p)]
                assert field.mul_table[i][j] == where[poly_product(a, b, p, field.modulus)]


def test_numpy_tables_agree_with_index_tables():
    np = pytest.importorskip("numpy")
    for q in SMALL:
        field = make_field(q)
        tables = field.np_tables
        for i in range(q):
            assert int(tables.neg[i]) == field.neg_table[i]
            assert int(tables.inv[i]) == field.inv_table[i]
            for j in range(q):
                assert int(tables.add[i, j]) == field.add_table[i][j]
                assert int(tables.mul[i, j]) == field.mul_table[i][j]
    assert np is not None


def test_tables_match_pinned_digest():
    """Every table of every field q <= 256, hashed in ascending q: add rows,
    mul rows, neg, inv.  The digest pins today's moduli and element order."""
    digest = hashlib.sha256()
    for q in range(2, 257):
        try:
            field = make_field(q)
        except NotPrimePower:
            continue
        for row in field.add_table:
            digest.update(bytes(row))
        for row in field.mul_table:
            digest.update(bytes(row))
        digest.update(bytes(field.neg_table))
        digest.update(bytes(field.inv_table))
    assert digest.hexdigest() == (
        "326691bcc43e9fc645300b28d679da5e0e70a6ceec3e1584beab962be8465c45"
    )


# ---------------------------------------------------------------------------
# matrix rank


def naive_rank(field, rows):
    """Oracle: largest k with a nonsingular k x k submatrix, by minors."""
    import itertools

    n = len(rows)
    m = len(rows[0]) if rows else 0

    add, mul = field.add_table, field.mul_table

    def det(rsel, csel):
        total = 0
        for perm in itertools.permutations(range(len(csel))):
            sign = 1
            for x in range(len(perm)):
                for y in range(x + 1, len(perm)):
                    if perm[x] > perm[y]:
                        sign = -sign
            term = 1 if sign > 0 else field.neg_table[1]
            for x, px in enumerate(perm):
                term = mul[term][rows[rsel[x]][csel[px]]]
            total = add[total][term]
        return total

    for k in range(min(n, m), 0, -1):
        for rsel in itertools.combinations(range(n), k):
            for csel in itertools.combinations(range(m), k):
                if det(rsel, csel) != 0:
                    return k
    return 0


def test_rank_matches_minor_oracle_exhaustively():
    from itertools import product

    for q, n, m in [(2, 2, 2), (3, 2, 2), (4, 2, 2), (2, 3, 3), (2, 2, 3), (3, 2, 3)]:
        field = make_field(q)
        for flat in product(range(q), repeat=n * m):
            rows = [list(flat[i * m : (i + 1) * m]) for i in range(n)]
            want = rank_from_index_rows(field, rows)
            assert naive_rank(field, rows) == want
