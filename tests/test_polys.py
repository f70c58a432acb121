"""Multilinear polynomials, the two spanning-tree polynomials, and the
symbolic determinant identities behind them."""

from __future__ import annotations

import itertools

import pytest

from graphmotive import (
    Graph,
    LengthMismatch,
    MultilinearPoly,
    complete,
    connected_simple_graphs,
    cycle,
    discrete,
    duality_check,
    make_field,
    matrix_tree_check,
    path,
    reduced_laplacian,
    spanning_tree_poly,
    star,
    symbolic_det,
    tree_complement_poly,
)
from graphmotive.polys import evaluate, laplacian


def test_ring_basics():
    x0 = MultilinearPoly.variable(3, 0)
    x1 = MultilinearPoly.variable(3, 1)
    one = MultilinearPoly.const(3, 1)
    zero = MultilinearPoly.zero(3)

    assert x0 * x0 == zero            # squares vanish in the quotient
    assert (x0 + one) * (x0 + one) == x0.scale(2) + one
    assert x0 * x1 == x1 * x0
    assert (x0 + x1) - x1 == x0
    assert -(-x0) == x0
    assert x0 + zero == x0 and x0 * zero == zero
    assert bool(zero) is False and bool(x0) is True
    assert zero.degree == -1 and (x0 * x1).degree == 2
    assert (x0 * x1 + x0).homogeneous_degree() is None
    assert (x0 * x1 + x0 * MultilinearPoly.variable(3, 2)).homogeneous_degree() == 2

    with pytest.raises(Exception):
        x0 + MultilinearPoly.variable(2, 0)  # different rings never mix


def test_format_strings():
    x0 = MultilinearPoly.variable(2, 0)
    x1 = MultilinearPoly.variable(2, 1)
    one = MultilinearPoly.const(2, 1)
    assert MultilinearPoly.zero(2).format() == "0"
    assert (x0 + x1).format() == "x_0 + x_1"
    assert (x0 * x1 - one).format() == "-1 + x_0*x_1"
    assert (x0.scale(-2) + x1).format(var="y") == "-2*y_0 + y_1"


def test_evaluation_against_term_by_term_oracle():
    poly = (
        MultilinearPoly.variable(3, 0) * MultilinearPoly.variable(3, 1)
        + MultilinearPoly.variable(3, 2).scale(2)
        - MultilinearPoly.const(3, 1)
    )
    for q in (2, 3, 4):
        field = make_field(q)
        for point in itertools.product(range(q), repeat=3):
            elems = [field.element(i) for i in point]
            got = evaluate(poly, field, elems)
            # oracle: accumulate each term with bare field ops
            total = field.zero
            for mask, coeff in poly.terms.items():
                term = field.element_from_int(coeff)
                for i in range(3):
                    if mask >> i & 1:
                        term = field.mul(term, elems[i])
                total = field.add(total, term)
            assert got == total
    with pytest.raises(LengthMismatch):
        evaluate(poly, make_field(2), [make_field(2).zero])


def spanning_tree_masks(g):
    out = []
    for combo in itertools.combinations(range(g.m), max(g.n - 1, 0)):
        mask = sum(1 << i for i in combo)
        if g.subset_betti(mask) == (1, 0):
            out.append(mask)
    return out


def test_tree_polynomials_against_subset_oracle():
    corpus = [
        complete(2),
        path(3),
        cycle(3),
        cycle(4),
        star(3),
        complete(4),
        Graph(2, ((0, 1), (0, 1))),
        Graph(3, ((0, 1), (1, 2), (2, 2))),
        Graph(4, ((0, 1), (2, 3))),  # disconnected: both polynomials vanish
    ]
    for g in corpus:
        trees = spanning_tree_masks(g)
        full = (1 << g.m) - 1
        assert spanning_tree_poly(g) == MultilinearPoly(
            g.m, {t: 1 for t in trees}
        )
        assert tree_complement_poly(g) == MultilinearPoly(
            g.m, {full ^ t: 1 for t in trees}
        )


def test_tree_polynomial_degrees():
    # on-tree polynomial: homogeneous of degree n-1; complement polynomial:
    # homogeneous of degree m-n+1 (the cycle count), for connected graphs
    for g in [complete(2), cycle(3), cycle(5), complete(4), star(3)]:
        b0, b1 = g.betti()
        assert b0 == 1
        assert spanning_tree_poly(g).homogeneous_degree() == g.n - 1
        assert tree_complement_poly(g).homogeneous_degree() == b1
    # one vertex, no edges: both are the empty product, the constant 1
    assert spanning_tree_poly(discrete(1)) == MultilinearPoly.const(0, 1)
    assert tree_complement_poly(discrete(1)) == MultilinearPoly.const(0, 1)


def test_laplacian_shape_and_row_sums():
    g = cycle(3)
    L = laplacian(g)
    zero = MultilinearPoly.zero(g.m)
    for i in range(g.n):
        row_sum = zero
        for j in range(g.n):
            row_sum = row_sum + L.at(i, j)
            assert L.at(i, j) == L.at(j, i)
        assert row_sum == zero  # rows sum to zero by construction
    # reduced matrix drops one row and column
    R = reduced_laplacian(g)
    for i in range(g.n - 1):
        for j in range(g.n - 1):
            assert R.at(i, j) == L.at(i + 1, j + 1)


def test_symbolic_determinant_against_permutation_oracle():
    g = complete(4)
    R = reduced_laplacian(g)
    size = g.n - 1
    total = MultilinearPoly.zero(g.m)
    for perm in itertools.permutations(range(size)):
        sign = 1
        for x in range(size):
            for y in range(x + 1, size):
                if perm[x] > perm[y]:
                    sign = -sign
        term = MultilinearPoly.const(g.m, sign)
        for i in range(size):
            term = term * R.at(i, perm[i])
        total = total + term
    assert symbolic_det(R) == total


def test_matrix_tree_and_duality_on_the_full_small_corpus():
    for n in range(1, 6):
        for g in connected_simple_graphs(n):
            assert matrix_tree_check(g)
            assert duality_check(g)


def test_matrix_tree_strike_choice_does_not_matter():
    g = complete(4)
    expect = spanning_tree_poly(g)
    for strike in range(g.n):
        assert symbolic_det(reduced_laplacian(g, strike=strike)) == expect


def test_duality_on_multigraphs():
    # parallel edges and loops: the complement polynomial still mirrors the
    # tree polynomial under inverting every variable
    for g in [
        Graph(2, ((0, 1), (0, 1))),
        Graph(3, ((0, 1), (0, 1), (1, 2))),
        Graph(2, ((0, 1), (1, 1))),
    ]:
        assert duality_check(g)
