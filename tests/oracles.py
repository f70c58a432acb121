"""Enumeration oracles for the engine's counts: every matrix or point is
listed, and its rank or value taken from the field's operation tables, so
these stay independent of the counting engine they check."""

from __future__ import annotations

from itertools import product

from graphmotive import (
    BadArgs,
    make_field,
    rank_from_index_rows,
    spanning_tree_poly,
    stats,
)


def symmetric_extension_census(
    d2: int,
    d1: int,
    r1: int,
    q: int,
    base_rows: list[list[int]] | None = None,
) -> dict[int, int]:
    """Exhaustive rank histogram of all symmetric d2 x d2 extensions of a
    fixed symmetric d1 x d1 base of rank r1 (entries as field indices).

    With no base given, the diagonal matrix with r1 unit entries is used.
    """
    if not (0 <= r1 <= d1 <= d2):
        raise BadArgs(f"need 0 <= r1 <= d1 <= d2, got ({r1}, {d1}, {d2})")
    field = make_field(q)
    if base_rows is None:
        base_rows = [
            [1 if (i == j and i < r1) else 0 for j in range(d1)]
            for i in range(d1)
        ]
    else:
        for i in range(d1):
            for j in range(d1):
                if base_rows[i][j] != base_rows[j][i]:
                    raise BadArgs("base block must be symmetric")
    if rank_from_index_rows(field, [row[:] for row in base_rows]) != r1:
        raise BadArgs("base block does not have the stated rank")

    new_cells = [(i, j) for j in range(d1, d2) for i in range(j + 1)]
    stats.charge(q ** len(new_cells), "extension census")
    counts: dict[int, int] = {}
    for assignment in product(range(q), repeat=len(new_cells)):
        rows = [[0] * d2 for _ in range(d2)]
        for i in range(d1):
            for j in range(d1):
                rows[i][j] = base_rows[i][j]
        for pos, (i, j) in enumerate(new_cells):
            rows[i][j] = assignment[pos]
            rows[j][i] = assignment[pos]
        r = rank_from_index_rows(field, rows)
        counts[r] = counts.get(r, 0) + 1
    return counts


def rank_census(e: int, f: int, q: int) -> dict[int, int]:
    """Rank histogram of all e x f matrices over F_q by enumeration."""
    if e < 0 or f < 0:
        raise BadArgs(f"shape must be nonnegative, got ({e}, {f})")
    field = make_field(q)
    stats.charge(q ** (e * f), "matrix rank census")
    counts: dict[int, int] = {}
    for assignment in product(range(q), repeat=e * f):
        rows = [list(assignment[i * f : (i + 1) * f]) for i in range(e)]
        r = rank_from_index_rows(field, rows)
        counts[r] = counts.get(r, 0) + 1
    return counts


def evaluate(poly, field, point):
    """poly at a point of F_q^nvars given as element indices, term by term
    with one table lookup per operation; the integer c is index c mod p."""
    add, mul = field.add_table, field.mul_table
    total = 0
    for mask, coeff in poly.terms.items():
        term = coeff % field.p
        for i, x in enumerate(point):
            if mask >> i & 1:
                term = mul[term][x]
        total = add[total][term]
    return total


def zeros_oracle(poly, q):
    """Evaluate at every point with scalar table arithmetic."""
    field = make_field(q)
    zeros = 0
    for point in product(range(q), repeat=poly.nvars):
        if evaluate(poly, field, point) == 0:
            zeros += 1
    return zeros


def strata_oracle(g, q):
    """Zero points of the spanning-tree polynomial by exact zero set,
    one scalar evaluation per point."""
    field = make_field(q)
    poly = spanning_tree_poly(g)
    exact = {s: 0 for s in range(1 << g.m)}
    for point in product(range(q), repeat=g.m):
        if evaluate(poly, field, point) == 0:
            exact[sum(1 << e for e in range(g.m) if point[e] == 0)] += 1
    return exact
