"""Multilinear polynomials, the two spanning-tree polynomials, and the
symbolic determinant identities behind them."""

from __future__ import annotations

import itertools

import pytest

from graphmotive import (
    Graph,
    MultilinearPoly,
    complete,
    connected_simple_graphs,
    cycle,
    discrete,
    duality_check,
    matrix_tree_check,
    path,
    reduced_laplacian,
    spanning_tree_poly,
    star,
    symbolic_det,
    tree_complement_poly,
)
from graphmotive.polys import laplacian


def test_ring_basics():
    x0 = MultilinearPoly.variable(3, 0)
    x1 = MultilinearPoly.variable(3, 1)
    one = MultilinearPoly.const(3, 1)
    zero = MultilinearPoly.zero(3)

    assert x0 * x0 == zero            # squares vanish in the quotient
    assert (x0 + one) * (x0 + one) == x0 + x0 + one
    assert x0 * x1 == x1 * x0
    assert (x0 + x1) - x1 == x0
    assert -(-x0) == x0
    assert x0 + zero == x0 and x0 * zero == zero
    assert bool(zero) is False and bool(x0) is True

    with pytest.raises(Exception):
        x0 + MultilinearPoly.variable(2, 0)  # different rings never mix


def test_format_strings():
    x0 = MultilinearPoly.variable(2, 0)
    x1 = MultilinearPoly.variable(2, 1)
    one = MultilinearPoly.const(2, 1)
    assert MultilinearPoly.zero(2).format() == "0"
    assert (x0 + x1).format() == "x_0 + x_1"
    assert (x0 * x1 - one).format() == "-1 + x_0*x_1"
    assert (x1 - x0 - x0).format(var="y") == "-2*y_0 + y_1"


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
        assert {t.bit_count() for t in spanning_tree_poly(g).terms} == {g.n - 1}
        assert {t.bit_count() for t in tree_complement_poly(g).terms} == {b1}
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
            row_sum = row_sum + L[i][j]
            assert L[i][j] == L[j][i]
        assert row_sum == zero  # rows sum to zero by construction
    # reduced matrix drops one row and column
    R = reduced_laplacian(g)
    for i in range(g.n - 1):
        for j in range(g.n - 1):
            assert R[i][j] == L[i + 1][j + 1]


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
            term = term * R[i][perm[i]]
        total = total + term
    assert symbolic_det(R, g.m) == total


def test_matrix_tree_and_duality_on_the_full_small_corpus():
    for n in range(1, 6):
        for g in connected_simple_graphs(n):
            assert matrix_tree_check(g)
            assert duality_check(g)


def test_matrix_tree_strike_choice_does_not_matter():
    # reduced_laplacian strikes vertex 0; swapping labels v and 0, edge order
    # kept, strikes v of the same graph in the same variables
    g = complete(4)
    expect = spanning_tree_poly(g)
    for strike in range(g.n):
        swap = {0: strike, strike: 0}
        relabeled = Graph(
            g.n, tuple((swap.get(u, u), swap.get(v, v)) for u, v in g.edges)
        )
        assert symbolic_det(reduced_laplacian(relabeled), g.m) == expect


def test_duality_on_multigraphs():
    # parallel edges and loops: the complement polynomial still mirrors the
    # tree polynomial under inverting every variable, and the reduced
    # Laplacian's determinant, empty on one vertex, still equals it
    for g in [
        Graph(2, ((0, 1), (0, 1))),
        Graph(3, ((0, 1), (0, 1), (1, 2))),
        Graph(2, ((0, 1), (1, 1))),
        Graph(1, ((0, 0),)),  # C1
        Graph(1, ((0, 0), (0, 0))),
    ]:
        assert duality_check(g)
        assert matrix_tree_check(g)
