"""Exhaustive checks of the finite-field layer.

The field tables are the foundation every counting routine stands on, so
the axioms are checked literally, over every element (and every pair or
triple where the loops stay small).
"""

from __future__ import annotations

import pytest

from graphmotive import (
    LengthMismatch,
    NotPrimePower,
    TooLarge,
    make_field,
    matrix_rank_minors,
    rank_from_index_rows,
)

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
    for q in PRIME_POWERS:
        field = make_field(q)
        elems = field.elements
        assert len(elems) == q
        assert len(set(elems)) == q
        assert elems[0] == field.zero
        for i, e in enumerate(elems):
            assert field.index(e) == i
            assert field.element(i) == e


def test_additive_group_axioms():
    for q in PRIME_POWERS:
        field = make_field(q)
        elems = field.elements
        for a in elems:
            assert field.add(a, field.zero) == a
            assert field.add(a, field.neg(a)) == field.zero
            for b in elems:
                assert field.add(a, b) == field.add(b, a)
                assert field.sub(a, b) == field.add(a, field.neg(b))


def test_multiplicative_group_axioms():
    for q in PRIME_POWERS:
        field = make_field(q)
        elems = field.elements
        for a in elems:
            assert field.mul(a, field.one) == a
            assert field.mul(a, field.zero) == field.zero
            if a != field.zero:
                assert field.mul(a, field.inv(a)) == field.one
            for b in elems:
                assert field.mul(a, b) == field.mul(b, a)
                if b != field.zero:
                    assert field.div(a, b) == field.mul(a, field.inv(b))


def test_associativity_and_distributivity_triples():
    for q in SMALL:
        field = make_field(q)
        elems = field.elements
        for a in elems:
            for b in elems:
                ab_sum = field.add(a, b)
                ab_prod = field.mul(a, b)
                for c in elems:
                    assert field.add(ab_sum, c) == field.add(a, field.add(b, c))
                    assert field.mul(ab_prod, c) == field.mul(a, field.mul(b, c))
                    assert field.mul(field.add(a, b), c) == field.add(
                        field.mul(a, c), field.mul(b, c)
                    )


def test_characteristic():
    for q in PRIME_POWERS:
        field = make_field(q)
        acc = field.zero
        for _ in range(field.p):
            acc = field.add(acc, field.one)
        assert acc == field.zero
        # no smaller repeat count works
        acc = field.zero
        for k in range(1, field.p):
            acc = field.add(acc, field.one)
            assert acc != field.zero


def test_frobenius_is_additive_on_extension_fields():
    for q in [4, 8, 9, 16]:
        field = make_field(q)
        p = field.p

        def power(x, e):
            out = field.one
            for _ in range(e):
                out = field.mul(out, x)
            return out

        for a in field.elements:
            for b in field.elements:
                assert power(field.add(a, b), p) == field.add(power(a, p), power(b, p))


def test_multiplicative_group_is_cyclic():
    for q in SMALL + [16]:
        field = make_field(q)

        def order(x):
            k = 1
            acc = x
            while acc != field.one:
                acc = field.mul(acc, x)
                k += 1
            return k

        orders = [order(a) for a in field.elements if a != field.zero]
        assert max(orders) == q - 1
        for d in orders:
            assert (q - 1) % d == 0


def test_integer_embedding_matches_repeated_addition():
    for q in PRIME_POWERS:
        field = make_field(q)
        acc = field.zero
        for c in range(3 * field.p):
            assert field.element_from_int(c) == acc
            acc = field.add(acc, field.one)


def test_index_tables_agree_with_element_arithmetic():
    """Every table entry against sums and products computed here on the
    coefficient vectors: sums coefficient-wise mod p, products schoolbook
    and reduced by the field's monic modulus."""

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

    for q in SMALL + [16]:
        field = make_field(q)
        p, n = field.p, field.n
        coeffs = [e.coeffs for e in field.elements]
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


def test_mixed_field_elements_are_rejected():
    f4 = make_field(4)
    f2 = make_field(2)
    with pytest.raises(LengthMismatch):
        f2.add(f4.elements[1], f2.one)


# ---------------------------------------------------------------------------
# matrix rank


def naive_rank(field, rows):
    """Oracle: largest k with a nonsingular k x k submatrix, by minors."""
    import itertools

    n = len(rows)
    m = len(rows[0]) if rows else 0

    def det(rsel, csel):
        total = field.zero
        for perm in itertools.permutations(range(len(csel))):
            sign = 1
            for x in range(len(perm)):
                for y in range(x + 1, len(perm)):
                    if perm[x] > perm[y]:
                        sign = -sign
            term = field.one if sign > 0 else field.neg(field.one)
            for x, px in enumerate(perm):
                term = field.mul(term, field.element(rows[rsel[x]][csel[px]]))
            total = field.add(total, term)
        return total

    for k in range(min(n, m), 0, -1):
        for rsel in itertools.combinations(range(n), k):
            for csel in itertools.combinations(range(m), k):
                if det(rsel, csel) != field.zero:
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
            assert matrix_rank_minors(field, rows) == want
