"""Finite multigraphs with labeled vertices and indexed edges.

Edges are stored as an ordered tuple of (u, v) pairs; the position of an edge
in that tuple is its index, which is also the variable index used by the
polynomial layer and the bit position used by edge subsets (bitmasks).
Loops and multiple edges are allowed except where a method says otherwise.

Labeling conventions for the structural operators are fixed here once:
apex_extension prepends the new vertex as index 0 (old vertices shift up by
one, new edges come first); add_disjoint_vertex appends the new vertex at
the highest index.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .errors import BadParams, BadVertex, NotSimple, ParseError

EdgeSubset = int  # bitmask over edge indices


def mask_from_indices(indices) -> EdgeSubset:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def indices_from_mask(mask: EdgeSubset) -> list[int]:
    """Bit positions of the mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _as_mask(subset) -> EdgeSubset:
    if isinstance(subset, int):
        return subset
    return mask_from_indices(subset)


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


@dataclass(frozen=True)
class Graph:
    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 0:
            raise BadParams(f"negative vertex count {self.n}")
        object.__setattr__(
            self, "edges", tuple((int(u), int(v)) for u, v in self.edges)
        )
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise BadVertex(f"edge ({u}, {v}) outside 0..{self.n - 1}")

    # -- basic structure -------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    def is_simple(self) -> bool:
        seen = set()
        for u, v in self.edges:
            if u == v:
                return False
            key = (min(u, v), max(u, v))
            if key in seen:
                return False
            seen.add(key)
        return True

    def edge_pairs_sorted(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted((min(u, v), max(u, v)) for u, v in self.edges))

    def key(self) -> tuple:
        """Hashable label-sensitive key; edge order does not matter."""
        return (self.n, self.edge_pairs_sorted())

    def betti(self) -> tuple[int, int]:
        """(b0, b1): component count and independent cycle count."""
        uf = _UnionFind(self.n)
        for u, v in self.edges:
            uf.union(u, v)
        b0 = len({uf.find(v) for v in range(self.n)})
        b1 = self.m - self.n + b0
        return b0, b1

    def is_connected(self) -> bool:
        return self.betti()[0] == 1

    def is_forest(self) -> bool:
        return self.betti()[1] == 0

    def subset_betti(self, subset) -> tuple[int, int]:
        """Betti numbers of the spanning subgraph (V, S)."""
        mask = _as_mask(subset)
        uf = _UnionFind(self.n)
        count = 0
        for i, (u, v) in enumerate(self.edges):
            if mask >> i & 1:
                count += 1
                uf.union(u, v)
        b0 = len({uf.find(v) for v in range(self.n)})
        return b0, count - self.n + b0

    def subset_is_forest(self, subset) -> bool:
        return self.subset_betti(subset)[1] == 0

    # -- spanning trees --------------------------------------------------

    def spanning_trees(self) -> list[EdgeSubset]:
        """All spanning trees as edge bitmasks, ascending."""
        if self.n == 0:
            return []
        want = self.n - 1
        candidates = [i for i, (u, v) in enumerate(self.edges) if u != v]
        out = []
        for combo in itertools.combinations(candidates, want):
            uf = _UnionFind(self.n)
            ok = True
            for i in combo:
                u, v = self.edges[i]
                if not uf.union(u, v):
                    ok = False
                    break
            if ok:
                out.append(mask_from_indices(combo))
        out.sort()
        return out

    # -- structural operators --------------------------------------------

    def apex_extension(self) -> "Graph":
        """Join a new vertex 0 to every old vertex; old edges shift up."""
        new_edges = tuple((0, v + 1) for v in range(self.n)) + tuple(
            (u + 1, v + 1) for u, v in self.edges
        )
        return Graph(self.n + 1, new_edges)

    def complement(self) -> "Graph":
        if not self.is_simple():
            raise NotSimple("complement needs a simple graph")
        present = {(min(u, v), max(u, v)) for u, v in self.edges}
        new_edges = tuple(
            (u, v)
            for u, v in itertools.combinations(range(self.n), 2)
            if (u, v) not in present
        )
        return Graph(self.n, new_edges)

    def add_disjoint_vertex(self) -> "Graph":
        return Graph(self.n + 1, self.edges)

    def remove_vertex(self, v: int) -> "Graph":
        if not (0 <= v < self.n):
            raise BadVertex(f"vertex {v} outside 0..{self.n - 1}")
        keep = [e for e in self.edges if v not in e]
        remap = lambda w: w - 1 if w > v else w
        return Graph(self.n - 1, tuple((remap(a), remap(b)) for a, b in keep))

    def delete_edges(self, subset) -> "Graph":
        mask = _as_mask(subset)
        kept = tuple(e for i, e in enumerate(self.edges) if not mask >> i & 1)
        return Graph(self.n, kept)

    def contract(self, subset) -> "Graph":
        """Contract the edges in S (any S; loops and multiple edges may appear)."""
        mask = _as_mask(subset)
        uf = _UnionFind(self.n)
        for i, (u, v) in enumerate(self.edges):
            if mask >> i & 1:
                uf.union(u, v)
        roots = sorted({uf.find(v) for v in range(self.n)})
        relabel = {r: i for i, r in enumerate(roots)}
        new_edges = tuple(
            (relabel[uf.find(u)], relabel[uf.find(v)])
            for i, (u, v) in enumerate(self.edges)
            if not mask >> i & 1
        )
        return Graph(len(roots), new_edges)

    def relabel(self, perm) -> "Graph":
        """Apply a vertex permutation; perm[v] is the new index of v."""
        if sorted(perm) != list(range(self.n)):
            raise BadParams("not a permutation of the vertex set")
        return Graph(self.n, tuple((perm[u], perm[v]) for u, v in self.edges))


# -- named constructors ------------------------------------------------------


def discrete(n: int) -> Graph:
    return Graph(n, ())


def complete(n: int) -> Graph:
    return Graph(n, tuple(itertools.combinations(range(n), 2)))


def cycle(n: int) -> Graph:
    if n < 1:
        raise BadParams("cycle needs at least one vertex")
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def path(n: int) -> Graph:
    """Path on n vertices (n - 1 edges)."""
    if n < 1:
        raise BadParams("path needs at least one vertex")
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def star(k: int) -> Graph:
    """Center 0 joined to k leaves."""
    return Graph(k + 1, tuple((0, i + 1) for i in range(k)))


def from_name(name: str) -> Graph:
    """Small named graphs: C5, K4, P3, S3 (star), D2 (discrete)."""
    name = name.strip().upper()
    if len(name) < 2 or name[0] not in "CKPSD" or not name[1:].isdigit():
        raise ParseError(f"unknown graph name {name!r}")
    n = int(name[1:])
    kind = name[0]
    if kind == "C":
        return cycle(n)
    if kind == "K":
        return complete(n)
    if kind == "P":
        return path(n)
    if kind == "S":
        return star(n)
    return discrete(n)


# -- serialization -----------------------------------------------------------


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    rows = [
        line.split("#", 1)[0].strip()
        for line in text.splitlines()
    ]
    rows = [r for r in rows if r]
    if not rows:
        raise ParseError("empty graph description")
    head = rows[0].split()
    if len(head) != 2:
        raise ParseError(f"header must be 'n m', got {rows[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ParseError(f"bad header {rows[0]!r}") from exc
    if len(rows) - 1 != m:
        raise ParseError(f"expected {m} edge lines, got {len(rows) - 1}")
    edges = []
    for row in rows[1:]:
        parts = row.split()
        if len(parts) != 2:
            raise ParseError(f"edge line must be 'u v', got {row!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise ParseError(f"bad edge line {row!r}") from exc
    try:
        return Graph(n, tuple(edges))
    except BadVertex as exc:
        raise ParseError(str(exc)) from exc


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 string (simple graphs, n <= 62)."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise ParseError("empty graph6 string")
    data = [ord(c) - 63 for c in s]
    if any(d < 0 or d > 63 for d in data):
        raise ParseError(f"invalid graph6 character in {text!r}")
    n = data[0]
    if n == 63:
        raise ParseError("graph6 orders above 62 not supported")
    body = data[1:]
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise ParseError(
            f"graph6 body has {len(body)} groups, expected {need} for n={n}"
        )
    bits = []
    for d in body:
        bits.extend((d >> shift) & 1 for shift in range(5, -1, -1))
    edges = []
    k = 0
    for v in range(1, n):
        for u in range(v):
            if bits[k]:
                edges.append((u, v))
            k += 1
    return Graph(n, tuple(edges))


@lru_cache(maxsize=None)
def _connected_simple_cache(n: int) -> tuple[Graph, ...]:
    all_pairs = tuple(itertools.combinations(range(n), 2))
    out = []
    for mask in range(1 << len(all_pairs)):
        edges = tuple(p for i, p in enumerate(all_pairs) if mask >> i & 1)
        g = Graph(n, edges)
        if g.is_connected():
            out.append(g)
    return tuple(out)


def connected_simple_graphs(n: int) -> tuple[Graph, ...]:
    """Every labeled connected simple graph on exactly n vertices."""
    if n > 6:
        raise BadParams("labeled enumeration capped at 6 vertices")
    return _connected_simple_cache(n)
