"""Counts of (Q, f) pairs attached to a graph over F_q: Q a symmetric s x s
form of prescribed rank, f a map from the vertices into F_q^s with prescribed
span dimension, subject to f(u)^T Q f(v) = 0 across every edge.

Also houses the verifiers for the reduction identities relating these counts
(cone extensions, ambient-dimension reductions, span stratifications) and the
closed recursion that evaluates the nondegenerate pair count on forests
without any enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .counting import (
    DEFAULT_BUDGET,
    _memoized,
    _require_budget,
    _symmetric_batches,
    count_invertible,
    count_subspaces,
    count_symmetric_extensions,
    count_symmetric_rank,
    stats,
)
from .errors import BadParams, NotAForest, NotSimple
from .ffield import make_field, rank_from_index_rows
from .graphs import Graph, indices_from_mask
from .matroids import Matroid, PartialRank, count_X

_F_CHUNK = 1 << 15

# ---------------------------------------------------------------------------
# symmetric forms grouped by rank


def _sym_by_rank(s: int, q: int, budget: int | None = None):
    """All symmetric s x s index matrices over F_q grouped by rank, as
    {rank: uint8 array of shape (count, s, s)}."""

    def compute():
        import numpy as np

        from .vecops import VecField

        cells = [(i, j) for i in range(s) for j in range(i, s)]
        _require_budget(q ** len(cells), budget, "symmetric form census")
        stats.add(q ** len(cells))
        mats = np.concatenate(list(_symmetric_batches(s, q, cells)))
        ranks = VecField(make_field(q)).rank(mats)
        return {r: mats[ranks == r] for r in range(s + 1)}

    return _memoized(("sym", s, q), compute)


def _forms(s: int, q: int, r: int, budget: int | None):
    """Symmetric s x s forms of rank r.  Rank 0 is the zero form alone, so it
    needs no census of every form: span-only counts stay as cheap as their
    map scan."""
    if r == 0:
        import numpy as np

        return np.zeros((1, s, s), dtype=np.uint8)
    return _sym_by_rank(s, q, budget)[r]


def _edge_set(g: Graph) -> list[tuple[int, int]]:
    if not g.is_simple():
        raise NotSimple("incidence counts need a simple graph")
    return sorted({(min(u, v), max(u, v)) for u, v in g.edges})


def _span_ok(vf, fmats, constraints):
    """Boolean vector: every (vertex mask, span dimension) requirement holds
    for the rows of f the mask selects."""
    import numpy as np

    ok = np.ones(fmats.shape[0], dtype=bool)
    for mask, need in constraints:
        ok &= vf.rank(fmats[:, indices_from_mask(mask), :]) == need
    return ok


def _edge_ok(vf, fmats, Q, edges, q: int):
    """Boolean vector: all edge conditions f_u^T Q f_v = 0 hold."""
    import numpy as np

    B = fmats.shape[0]
    s = Q.shape[0]
    ok = np.ones(B, dtype=bool)
    if not edges or not s:
        return ok
    support = sorted({v for e in edges for v in e})
    transformed = {}
    for v in support:
        W = np.zeros((B, s), dtype=np.uint8)
        for a in range(s):
            acc = None
            for b in range(s):
                qab = int(Q[a, b])
                if qab == 0:
                    continue
                t = vf.flat_mul[qab * q + fmats[:, v, b]]
                acc = t if acc is None else vf.add(acc, t)
            if acc is not None:
                W[:, a] = acc
        transformed[v] = W
    for u, v in edges:
        ok &= vf.dot(fmats[:, u, :], transformed[v]) == 0
    return ok


def _pairs(g: Graph, s: int, q: int, ranks, budget: int | None):
    """Scan of the (Q, f) pairs with Q of the given ranks and f any map from
    the vertices into F_q^s.

    Charges q^(n s) times the number of such forms to the budget and the
    evaluation counter before any form is built, then yields per chunk of
    maps (vf, fmats, oks): fmats is (B, n, s), and oks lazily gives
    (rank, edge-condition mask) for each form in turn.
    """
    if s < 0:
        raise BadParams(f"ambient dimension must be nonnegative, got {s}")
    from .vecops import VecField, decode_assignments

    edges = _edge_set(g)
    n = g.n
    nf = q ** (n * s)
    pairs = nf * sum(count_symmetric_rank(s, r, q) for r in ranks)
    _require_budget(pairs, budget, "incidence scan")
    stats.add(pairs)
    vf = VecField(make_field(q))
    forms = [(r, _forms(s, q, r, budget)) for r in ranks]
    for start in range(0, nf, _F_CHUNK):
        stop = min(start + _F_CHUNK, nf)
        fmats = decode_assignments(start, stop, n * s, q).reshape(stop - start, n, s)
        oks = (
            (r, _edge_ok(vf, fmats, Q, edges, q)) for r, mats in forms for Q in mats
        )
        yield vf, fmats, oks


# ---------------------------------------------------------------------------
# the full (rank, span-dim) table for one graph and ambient dimension


def _incidence_table(
    g: Graph, s: int, q: int, budget: int | None = None
) -> dict[tuple[int, int], int]:
    """counts[(r, k)] over all (Q, f) pairs satisfying the edge conditions,
    classified by the rank r of Q and the span dimension k of f."""

    def compute():
        import numpy as np

        kmax = min(s, g.n)
        hist = np.zeros((s + 1, kmax + 1), dtype=np.int64)
        for vf, fmats, oks in _pairs(g, s, q, range(s + 1), budget):
            dims = vf.rank(fmats)
            for r, ok in oks:
                hist[r] += np.bincount(dims[ok], minlength=kmax + 1)
        return {(r, k): int(hist[r, k]) for r in range(s + 1) for k in range(kmax + 1)}

    return _memoized(("A", g.key(), s, q), compute)


def _count_constrained(
    g: Graph, s: int, q: int, rank: int, constraints, budget: int | None
) -> int:
    """(Q, f) pairs with Q of the given rank whose map meets every (vertex
    mask, span dimension) requirement.  An unsatisfiable requirement gives
    zero with no scan (a negative s goes on to _pairs, which rejects it)."""
    if s >= 0 and any(need > min(s, bin(mask).count("1")) for mask, need in constraints):
        return 0
    total = 0
    for vf, fmats, oks in _pairs(g, s, q, (rank,), budget):
        want = _span_ok(vf, fmats, constraints)
        for _, ok in oks:
            total += int((ok & want).sum())
    return total


# ---------------------------------------------------------------------------
# public counts


def count_A(
    g: Graph,
    s: int,
    r: int,
    k: int,
    q: int,
    budget: int | None = None,
) -> int:
    """Pairs (Q, f): Q symmetric s x s of rank exactly r, f into F_q^s with
    span dimension exactly k, every edge condition satisfied."""
    if s < 0 or r < 0 or k < 0:
        raise BadParams(f"parameters must be nonnegative, got s={s} r={r} k={k}")
    if r > s or k > min(s, g.n):
        return 0
    return _incidence_table(g, s, q, budget)[(r, k)]


def count_A_slow(g: Graph, s: int, r: int, k: int, q: int, budget: int | None = None) -> int:
    """Reference implementation by direct nested enumeration."""
    if s < 0 or r < 0 or k < 0:
        raise BadParams(f"parameters must be nonnegative, got s={s} r={r} k={k}")
    if r > s or k > min(s, g.n):
        return 0
    edges = _edge_set(g)
    n = g.n
    raw = q ** (s * (s + 1) // 2 + s * n)
    _require_budget(raw, budget, "incidence scan")
    stats.add(raw)
    field = make_field(q)
    add = field.add_table
    mul = field.mul_table
    cells = [(i, j) for i in range(s) for j in range(i, s)]
    total = 0
    for qvals in product(range(q), repeat=len(cells)):
        Q = [[0] * s for _ in range(s)]
        for pos, (i, j) in enumerate(cells):
            Q[i][j] = qvals[pos]
            Q[j][i] = qvals[pos]
        if rank_from_index_rows(field, [row[:] for row in Q]) != r:
            continue
        for fvals in product(range(q), repeat=n * s):
            f = [list(fvals[v * s : (v + 1) * s]) for v in range(n)]
            good = True
            for u, v in edges:
                val = 0
                for a in range(s):
                    inner = 0
                    for b in range(s):
                        inner = add[inner][mul[Q[a][b]][f[v][b]]]
                    val = add[val][mul[f[u][a]][inner]]
                if val != 0:
                    good = False
                    break
            if good and rank_from_index_rows(field, f) == k:
                total += 1
    return total


def count_J(g: Graph, s: int, q: int, budget: int | None = None) -> int:
    """Pairs (Q, f) with Q invertible and f unrestricted (any span)."""
    return _memoized(
        ("J", g.key(), s, q), lambda: _count_constrained(g, s, q, s, (), budget)
    )


def count_J_partial(
    g: Graph, s: int, pi: PartialRank, q: int, budget: int | None = None
) -> int:
    """Invertible-Q pairs whose map satisfies required span dimensions on
    the given vertex subsets.  Unsatisfiable requirements give zero."""
    if pi.ground != g.n:
        raise BadParams(
            f"requirements are over {pi.ground} elements, graph has {g.n} vertices"
        )
    return _count_constrained(g, s, q, s, tuple(sorted(pi.pairs)), budget)


def count_K(g: Graph, s: int, q: int, budget: int | None = None) -> int:
    """Pairs with Q invertible and f of full span."""
    return count_A(g, s, s, s, q, budget)


def count_H(g: Graph, s: int, q: int, budget: int | None = None) -> int:
    """Pairs in ambient dimension n (the vertex count) with Q of rank s and
    f of full span n."""
    if s < 0:
        raise BadParams(f"rank must be nonnegative, got s={s}")
    return count_A(g, g.n, s, g.n, q, budget)


def count_L(s: int, pi: PartialRank, q: int, budget: int | None = None) -> int:
    """Maps from the ground set into F_q^s with required span dimensions on
    the given subsets (no form, no edges)."""
    return _count_constrained(Graph(pi.ground, ()), s, q, 0, pi.pairs, budget)


# ---------------------------------------------------------------------------
# forest recursion


def forest_J(forest: Graph, s: int, q: int) -> int:
    """Nondegenerate pair count on a forest by structural recursion: the
    empty graph contributes the invertible symmetric forms; an isolated
    vertex contributes a free factor q^s; removing a leaf w attached at v
    splits by whether f(v) vanishes.  Never enumerates."""
    if not forest.is_forest():
        raise NotAForest(f"graph has a cycle: {forest!r}")

    memo: dict[tuple, int] = {}

    def rec(g: Graph) -> int:
        if g.n == 0:
            return count_symmetric_rank(s, s, q)
        key = g.key()
        got = memo.get(key)
        if got is not None:
            return got
        degrees = [0] * g.n
        for u, v in g.edges:
            degrees[u] += 1
            degrees[v] += 1
        val = None
        for v in range(g.n):
            if degrees[v] == 0:
                val = q**s * rec(g.remove_vertex(v))
                break
        if val is None:
            w = next(v for v in range(g.n) if degrees[v] == 1)
            (nbr,) = [u if u != w else v for u, v in g.edges if w in (u, v)]
            peeled = g.remove_vertex(w)
            nbr_after = nbr - 1 if nbr > w else nbr
            val = q ** (s - 1) * (
                rec(peeled) + (q - 1) * rec(peeled.remove_vertex(nbr_after))
            )
        memo[key] = val
        return val

    return rec(forest)


# ---------------------------------------------------------------------------
# identity verification


@dataclass
class IdentityReport:
    name: str
    q: int
    params: dict
    lhs: int
    rhs: int
    equal: bool

    def __bool__(self) -> bool:
        return self.equal


def _attach_to_subset(g: Graph, subset: int, t: int) -> Graph:
    """t new vertices, each joined to every vertex in the subset."""
    if not 0 <= subset < (1 << g.n):
        raise BadParams(f"vertex subset mask {subset} out of range")
    if t < 0:
        raise BadParams(f"number of new vertices must be nonnegative, got {t}")
    hooks = [v for v in range(g.n) if subset & (1 << v)]
    edges = list(g.edges) + [
        (h, g.n + j) for j in range(t) for h in hooks
    ]
    return Graph(g.n + t, tuple(edges))


def verify_identity(
    name: str, params: dict, q: int, budget: int | None = None
) -> IdentityReport:
    """Evaluate both sides of a named counting identity by enumeration plus
    closed-form factors and report the comparison."""
    p = dict(params)

    def need(*keys):
        missing = [k for k in keys if k not in p]
        if missing:
            raise BadParams(f"identity {name!r} needs parameters {missing}")
        return [p[k] for k in keys]

    if name == "firstred":
        g, s, r, k = need("graph", "s", "r", "k")
        lhs = count_A(g, s, r, k, q, budget)
        rhs = count_subspaces(k, s, q) * sum(
            count_symmetric_extensions(s, r, k, j, q) * count_A(g, k, j, k, q, budget)
            for j in range(k + 1)
        )
    elif name == "secondred":
        g, s, r, k = need("graph", "s", "r", "k")
        n = g.n
        lhs = count_A(g, s, r, k, q, budget)
        rhs = count_subspaces(r, s, q) * sum(
            count_subspaces(n - k, n - l, q)
            * count_subspaces(k - l, s - r, q)
            * count_invertible(k - l, q)
            * q ** (l * (s - r))
            * count_A(g, r, r, l, q, budget)
            for l in range(k + 1)
        )
    elif name == "cor-secondred":
        g, s, r = need("graph", "s", "r")
        n = g.n
        lhs = count_A(g, s, r, s, q, budget)
        rhs = (
            count_subspaces(r, s, q)
            * count_subspaces(n - s, n - r, q)
            * count_invertible(s - r, q)
            * q ** (r * (s - r))
            * count_A(g, r, r, r, q, budget)
        )
    elif name == "Dreduction":
        g, s, r, k = need("graph", "s", "r", "k")
        extended = g.add_disjoint_vertex()
        lhs = count_A(extended, s, r, k, q, budget)
        rhs = q**k * count_A(g, s, r, k, q, budget)
        if k >= 1:
            rhs += (q**s - q ** (k - 1)) * count_A(g, s, r, k - 1, q, budget)
    elif name == "yuck":
        g, r = need("graph", "r")
        n = g.n
        if not 0 <= r <= n + 1:
            raise BadParams(f"rank parameter must lie in 0..{n + 1}, got {r}")
        extended = g.add_disjoint_vertex()
        lhs = count_H(extended, r, q, budget)
        rhs = q ** (n + r) * (q ** (n + 1) - 1) * count_H(g, r, q, budget)
        if r >= 1:
            rhs += (
                q ** (n + r - 1)
                * (q ** (n + 1) - 1)
                * (q - 1)
                * count_H(g, r - 1, q, budget)
            )
        if r >= 2:
            rhs += (
                q**n
                * (q ** (n + 1) - 1)
                * (q ** (n + 1) - q ** (r - 1))
                * count_H(g, r - 2, q, budget)
            )
    elif name == "Jyuck":
        g, s = need("graph", "s")
        lhs = count_J(g.add_disjoint_vertex(), s, q, budget)
        rhs = q**s * count_J(g, s, q, budget)
    elif name == "pi-strat":
        g, s, t, subset = need("graph", "s", "t", "subset")
        base: PartialRank = p.get("base") or PartialRank(g.n, ())
        if any(mask == subset for mask, _ in base.pairs):
            raise BadParams("base requirements already constrain the subset")
        extended = _attach_to_subset(g, subset, t)
        lifted = PartialRank(extended.n, base.pairs)
        lhs = count_J_partial(extended, s, lifted, q, budget)
        rhs = 0
        for i in range(s + 1):
            pi_i = PartialRank(g.n, base.pairs + ((subset, s - i),))
            rhs += q ** (t * i) * count_J_partial(g, s, pi_i, q, budget)
    elif name == "grassmann-factor":
        matroid: Matroid
        matroid, s = need("matroid", "s")
        lhs = count_X(matroid, s, q, budget)
        rhs = count_subspaces(matroid.rank, s, q) * count_X(
            matroid, matroid.rank, q, budget
        )
    else:
        raise BadParams(f"unknown identity {name!r}")
    return IdentityReport(
        name=name, q=q, params=params, lhs=lhs, rhs=rhs, equal=lhs == rhs
    )
