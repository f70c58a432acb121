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
import math
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


def _least_relabeling(n: int, edges) -> tuple | None:
    """The least sorted edge list over the vertex orderings that put the
    vertices in cells by colour, (degree with loops counted, sorted degrees
    of the neighbours), and order each cell freely (colour refinement,
    McKay and Piperno, Practical graph isomorphism II, 2014); None past 6!
    orderings."""
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    colour = [(len(ws), sorted(len(nbrs[w]) for w in ws)) for ws in nbrs]
    cells = []
    for v in sorted(range(n), key=colour.__getitem__):
        if cells and colour[cells[-1][0]] == colour[v]:
            cells[-1].append(v)
        else:
            cells.append([v])
    if math.prod(math.factorial(len(c)) for c in cells) > 720:
        return None
    best = None
    for order in itertools.product(*map(itertools.permutations, cells)):
        pos = [0] * n
        for i, v in enumerate(itertools.chain(*order)):
            pos[v] = i
        relabeled = sorted(
            (pos[u], pos[v]) if pos[u] < pos[v] else (pos[v], pos[u]) for u, v in edges
        )
        if best is None or relabeled < best:
            best = relabeled
    return tuple(best)


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

    def iso_key(self) -> tuple:
        """A key of the form of key() that isomorphic graphs share: each
        connected component gets _least_relabeling's key, and the
        components, in sorted order, take consecutive labels.  Past 6!
        orderings of one component the key is key() itself.  Each key is a
        relabeling of the graph, so equal keys mean isomorphic graphs."""
        uf = _UnionFind(self.n)
        for u, v in self.edges:
            uf.union(u, v)
        members, edges_of = {}, {}
        for v in range(self.n):
            members.setdefault(uf.find(v), []).append(v)
        for u, v in self.edges:
            edges_of.setdefault(uf.find(u), []).append((u, v))
        parts = []
        for root, vs in members.items():
            local = {v: i for i, v in enumerate(vs)}
            edges = [(local[u], local[v]) for u, v in edges_of.get(root, ())]
            part = _least_relabeling(len(vs), edges)
            if part is None:
                return self.key()
            parts.append((len(vs), part))
        edges, offset = [], 0
        for n, part in sorted(parts):
            edges += [(u + offset, v + offset) for u, v in part]
            offset += n
        return (self.n, tuple(edges))

    def betti(self) -> tuple[int, int]:
        """(b0, b1): component count and independent cycle count."""
        return self.subset_betti((1 << self.m) - 1)

    def is_connected(self) -> bool:
        return self.betti()[0] == 1

    def is_forest(self) -> bool:
        return self.betti()[1] == 0

    def subset_betti(self, mask: EdgeSubset) -> tuple[int, int]:
        """Betti numbers of the spanning subgraph (V, S), S the mask's edges."""
        uf = _UnionFind(self.n)
        count = 0
        for i, (u, v) in enumerate(self.edges):
            if mask >> i & 1:
                count += 1
                uf.union(u, v)
        b0 = len({uf.find(v) for v in range(self.n)})
        return b0, count - self.n + b0

    def blocks(self) -> list["Graph"]:
        """The blocks, as graphs with their vertices relabeled in increasing
        order and their edges in order: two edges share one when they lie on
        a common cycle, so a bridge is a one-edge block, and a loop is a
        block of its own.  One lowpoint search with an edge stack (Tarjan
        1972), on an explicit stack so that long paths do not recurse."""
        adj = [[] for _ in range(self.n)]
        found = []
        for i, (u, v) in enumerate(self.edges):
            if u == v:
                found.append([i])
            else:
                adj[u].append((v, i))
                adj[v].append((u, i))
        order = [-1] * self.n  # discovery time
        low = [0] * self.n  # least discovery time reachable through one back edge
        entry = [0] * self.n  # edge_stack index of the edge that entered a vertex
        edge_stack = []
        clock = 0
        for root in range(self.n):
            if order[root] >= 0:
                continue
            order[root] = low[root] = clock
            clock += 1
            stack = [(root, -1, iter(adj[root]))]
            while stack:
                v, entered, todo = stack[-1]
                for w, i in todo:
                    if i == entered:
                        continue
                    if order[w] < 0:
                        order[w] = low[w] = clock
                        clock += 1
                        entry[w] = len(edge_stack)
                        edge_stack.append(i)
                        stack.append((w, i, iter(adj[w])))
                        break
                    if order[w] < order[v]:  # a back edge, seen from below
                        edge_stack.append(i)
                        low[v] = min(low[v], order[w])
                else:
                    stack.pop()
                    if stack:
                        parent = stack[-1][0]
                        low[parent] = min(low[parent], low[v])
                        if low[v] >= order[parent]:  # parent cuts v's block off
                            found.append(edge_stack[entry[v]:])
                            del edge_stack[entry[v]:]
        out = []
        for block in found:
            edges = [self.edges[i] for i in sorted(block)]
            local = {v: k for k, v in enumerate(sorted({v for e in edges for v in e}))}
            out.append(Graph(len(local), tuple((local[u], local[v]) for u, v in edges)))
        return out

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

    def delete_edges(self, mask: EdgeSubset) -> "Graph":
        kept = tuple(e for i, e in enumerate(self.edges) if not mask >> i & 1)
        return Graph(self.n, kept)


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
