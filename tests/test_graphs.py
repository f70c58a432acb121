"""Graph structure, constructors, parsers, and edge-subset helpers."""

from __future__ import annotations

import itertools
import random

import pytest

from graphmotive import (
    BadParams,
    BadVertex,
    Graph,
    NotSimple,
    ParseError,
    complete,
    connected_simple_graphs,
    cycle,
    discrete,
    format_edge_list,
    from_name,
    parse_edge_list,
    parse_graph6,
    path,
    star,
)
from graphmotive.graphs import indices_from_mask, mask_from_indices


def test_basic_attributes_and_validation():
    g = Graph(3, ((0, 1), (1, 2)))
    assert g.n == 3 and g.m == 2
    assert g.is_simple() and g.is_connected() and g.is_forest()
    with pytest.raises(BadVertex):
        Graph(2, ((0, 2),))
    with pytest.raises(BadParams):
        Graph(-1, ())
    # loops and parallel edges are allowed, but not simple
    assert not Graph(1, ((0, 0),)).is_simple()
    assert not Graph(2, ((0, 1), (1, 0))).is_simple()


def test_named_constructors():
    assert complete(4).m == 6
    assert cycle(5).m == 5 and cycle(5).n == 5
    assert path(4).m == 3
    assert star(3).key() == (4, ((0, 1), (0, 2), (0, 3)))
    assert discrete(3).m == 0
    for name, expect in [
        ("C3", cycle(3)),
        ("K4", complete(4)),
        ("P3", path(3)),
        ("S3", star(3)),
        ("D2", discrete(2)),
        ("K2", complete(2)),
    ]:
        assert from_name(name).key() == expect.key()
    with pytest.raises(ParseError):
        from_name("Q7")
    with pytest.raises(ParseError):
        from_name("K")


def components_oracle(n, edges):
    """Flood fill, independent of the union-find used by the package."""
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = set()
    comps = 0
    for v in range(n):
        if v in seen:
            continue
        comps += 1
        stack = [v]
        while stack:
            x = stack.pop()
            if x in seen:
                continue
            seen.add(x)
            stack.extend(adj[x] - seen)
    return comps


def test_betti_numbers_against_flood_fill():
    graphs = [
        discrete(4),
        complete(4),
        cycle(5),
        path(5),
        Graph(4, ((0, 1), (2, 3))),
        Graph(3, ((0, 0), (0, 1), (0, 1))),
        Graph(6, ((0, 1), (1, 2), (2, 0), (3, 4))),
    ]
    for g in graphs:
        b0, b1 = g.betti()
        assert b0 == components_oracle(g.n, g.edges)
        assert b1 == g.m - g.n + b0
        assert g.is_connected() == (b0 <= 1)
        assert g.is_forest() == (b1 == 0)


def test_subset_betti_matches_subgraph_betti():
    g = complete(4)
    for mask in range(1 << g.m):
        sub = Graph(g.n, tuple(g.edges[i] for i in indices_from_mask(mask)))
        assert g.subset_betti(mask) == sub.betti()


def test_bridges_match_the_per_edge_definition():
    # an edge is a bridge when deleting it adds a component; the corpus has
    # loops, parallel edges and several components
    rng = random.Random(20)
    corpus = [discrete(0), discrete(3), path(6), cycle(1), cycle(2), star(4)]
    for _ in range(300):
        n = rng.randint(1, 8)
        m = rng.randint(0, 12)
        corpus.append(Graph(n, tuple(
            (rng.randrange(n), rng.randrange(n)) for _ in range(m)
        )))
    for g in corpus:
        full, b0 = (1 << g.m) - 1, g.betti()[0]
        want = mask_from_indices(
            i for i in range(g.m) if g.subset_betti(full ^ 1 << i)[0] > b0
        )
        assert g.bridges() == want, g
    assert path(1600).bridges() == (1 << 1599) - 1  # deeper than the recursion limit


def test_mask_helpers_round_trip():
    for indices in [(), (0,), (1, 3), (0, 2, 5)]:
        mask = mask_from_indices(indices)
        assert tuple(indices_from_mask(mask)) == indices


def spanning_trees_oracle(g):
    """All (n-1)-subsets of edges that are connected and acyclic."""
    out = []
    for combo in itertools.combinations(range(g.m), max(g.n - 1, 0)):
        mask = mask_from_indices(combo)
        b0, b1 = g.subset_betti(mask)
        if b0 == 1 and b1 == 0:
            out.append(mask)
    return sorted(out)


def test_spanning_trees_against_subset_oracle():
    corpus = [
        complete(2),
        path(3),
        cycle(3),
        cycle(4),
        complete(4),
        star(3),
        Graph(2, ((0, 1), (0, 1))),          # parallel pair
        Graph(3, ((0, 1), (1, 2), (1, 1))),  # loop never enters a tree
        Graph(4, ((0, 1), (2, 3))),          # disconnected: no spanning tree
    ]
    for g in corpus:
        assert g.spanning_trees() == spanning_trees_oracle(g)
    # classical count for the complete graph: n^(n-2)
    assert len(complete(4).spanning_trees()) == 16
    assert len(complete(5).spanning_trees()) == 125


def test_structural_operators():
    g = cycle(3)
    apex = g.apex_extension()
    assert apex.n == 4 and apex.m == 6
    assert apex.key() == complete(4).key()

    iso = g.add_disjoint_vertex()
    assert iso.n == 4 and iso.edges == g.edges

    assert complete(3).complement().key() == discrete(3).key()
    assert discrete(3).complement().key() == complete(3).key()
    with pytest.raises(NotSimple):
        Graph(1, ((0, 0),)).complement()

    assert cycle(4).delete_edges(0b1).key() == Graph(
        4, ((1, 2), (2, 3), (3, 0))
    ).key()


def test_contract_keeps_loops_and_parallels():
    tri = cycle(3)
    # contracting one edge of a triangle leaves two parallel edges
    assert tri.contract(0b01).edge_pairs_sorted() == ((0, 1), (0, 1))
    # contracting two edges leaves a loop
    assert tri.contract(0b11).edges == ((0, 0),)
    # contracting a parallel pair's partner makes a loop too
    para = Graph(2, ((0, 1), (0, 1)))
    assert para.contract(0b01).edges == ((0, 0),)
    # contracting nothing relabels nothing
    assert tri.contract(0).key() == tri.key()


def test_edge_list_round_trip_and_errors():
    for g in [cycle(3), complete(4), Graph(3, ((0, 0), (0, 1), (0, 1))), discrete(2)]:
        assert parse_edge_list(format_edge_list(g)).key() == g.key()
    text = "3 2 # a comment\n0 1\n# interior comment\n1 2\n"
    assert parse_edge_list(text).key() == path(3).key()
    for bad in [
        "",
        "3\n",
        "3 1\n",               # missing edge line
        "3 1\n0 1\n1 2\n",     # extra edge line
        "3 1\n0 5\n",          # vertex out of range
        "3 1\n0\n",            # short edge line
        "a b\n",
    ]:
        with pytest.raises(ParseError):
            parse_edge_list(bad)


def test_graph6_known_strings():
    # hand-packed from the format definition: 6-bit groups of the
    # column-major upper triangle, offset by 63
    for text, expect in [
        ("A_", complete(2)),
        ("Bw", cycle(3)),
        ("Bg", path(3)),
        ("C~", complete(4)),
        ("Cs", star(3)),
        ("Ch", path(4)),
        (">>graph6<<Bw", cycle(3)),
    ]:
        assert parse_graph6(text).key() == expect.key()
    for bad in ["", "B", "Bww", "A" + chr(30)]:
        with pytest.raises(ParseError):
            parse_graph6(bad)


def iso_key(g):
    """Canonical form by minimizing over all vertex orders (small n only)."""
    best = None
    for perm in itertools.permutations(range(g.n)):
        t = tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in g.edges))
        if best is None or t < best:
            best = t
    return (g.n, best)


def test_connected_simple_graph_census():
    # classical labeled census 1, 1, 4, 38, 728 collapsing to the classical
    # 1, 1, 2, 6, 21 isomorphism classes
    for n, labeled, classes in [(1, 1, 1), (2, 1, 1), (3, 4, 2), (4, 38, 6), (5, 728, 21)]:
        graphs = connected_simple_graphs(n)
        assert len(graphs) == labeled
        assert len({g.key() for g in graphs}) == labeled
        assert len({iso_key(g) for g in graphs}) == classes
        for g in graphs:
            assert g.n == n and g.is_simple() and g.is_connected()
