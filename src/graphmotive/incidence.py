"""Counts of (Q, f) pairs attached to a graph over F_q: Q a symmetric s x s
form of prescribed rank, f a map from the vertices into F_q^s with prescribed
span dimension, subject to f(u)^T Q f(v) = 0 across every edge.

Also houses the verifiers for the reduction identities relating these counts
(cone extensions, ambient-dimension reductions, span stratifications) and the
one pass per tree, from the leaves up, that gives the nondegenerate pair
count on forests without any enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from . import counting
from .counting import (
    _edge_pairs,
    _scan,
    count_invertible,
    count_rank_maps,
    count_subspaces,
    count_symmetric_extensions,
    count_symmetric_rank,
    stats,
)
from .errors import BadParams, BudgetExceeded, NotAForest, TooLarge
from .ffield import make_field, rank_from_index_rows
from .graphs import Graph, indices_from_mask
from .matroids import Matroid, PartialRank, count_X

_F_CHUNK = 1 << 15

# the most bits of a power P^n built to compare a scan with the budget
_EXACT_BITS = 1 << 20

# ---------------------------------------------------------------------------
# symmetric forms up to congruence


@lru_cache(maxsize=None)
def _classes(s: int, q: int, r: int):
    """One representative per congruence class (Q ~ A^T Q A, A invertible)
    of the symmetric s x s forms of rank r over F_q, with the class size, as
    [(uint8 (s, s) index matrix, size)].

    A class is fixed by the nondegenerate r-form Q induces modulo its radical
    (Albert 1938), and has [s choose r]_q * |GL_r| / |isometries of that
    r-form| members.  Odd q: two r-forms, diag(1, ..., 1) and diag(1, ...,
    1, d) with d a nonsquare; for odd r they are swapped by scaling and split
    the forms in halves, for r = 2m their isometry groups are O^+ and O^-
    (MacWilliams 1969).  Even q: diag(1, ..., 1), and for r = 2m also the
    alternating form of m hyperbolic planes, whose isometries are Sp_2m."""
    import numpy as np

    field = make_field(q)
    total = count_symmetric_rank(s, r, q)
    base = np.zeros((s, s), dtype=np.uint8)
    if r == 0:
        return [(base, total)]
    base[range(r), range(r)] = 1
    other = base.copy()
    m, odd_rank = divmod(r, 2)
    if q % 2:
        squares = {field.mul_table[x][x] for x in range(1, q)}
        other[r - 1, r - 1] = min(x for x in range(1, q) if x not in squares)
        if odd_rank:
            size = total // 2
        else:
            # other's type: eps = +1 when (-1)^m d is a square, that is when
            # (-1)^m is not; order is |O^eps_2m|, its isometry group
            eps = -1 if m % 2 == 0 or field.neg_table[1] in squares else 1
            order = 2 * q ** (m * (m - 1)) * (q**m - eps)
            for i in range(1, m):
                order *= q ** (2 * i) - 1
            size, rest = divmod(count_invertible(r, q), order)
            assert rest == 0
            size *= count_subspaces(r, s, q)
    elif odd_rank:
        return [(base, total)]
    else:
        other[range(r), range(r)] = 0
        other[range(0, r, 2), range(1, r, 2)] = 1
        other[range(1, r, 2), range(0, r, 2)] = 1
        size = count_subspaces(r, s, q) * q ** (m * (m - 1))
        for i in range(1, m + 1):
            size *= q ** (2 * i - 1) - 1
    return [(base, total - size), (other, size)]


@lru_cache(maxsize=None)
def _point_table(s: int, q: int):
    """The P = 1 + (q^s - 1)/(q - 1) projective points of F_q^s, as (P, s)
    uint8 field indices: the zero vector, then vecops.projective_points."""
    import numpy as np

    from .vecops import projective_points

    zero = np.zeros((1, s), dtype=np.uint8)
    return np.concatenate([zero, projective_points(s, q, 0, (q**s - 1) // (q - 1))])


@lru_cache(maxsize=None)
def _form_tables(s: int, q: int, rank: int):
    """Per class of _classes(s, q, rank), (class size, orth): orth is the
    (P, P) bool table of p_a^T Q p_b == 0 over the rows p of _point_table."""
    import numpy as np

    from .vecops import VecField

    vf, pts = VecField(make_field(q)), _point_table(s, q)
    tables = []
    for Q, size in _classes(s, q, rank):
        value = np.zeros((len(pts), len(pts)), dtype=np.uint8)
        for a, b in zip(*np.nonzero(Q)):
            left = vf.mul(pts[:, a, None], Q[a, b])
            value = vf.add(value, vf.mul(left, pts[None, :, b]))
        tables.append((size, value == 0))
    return tables


@lru_cache(maxsize=None)
def _span_table(s: int, q: int, k: int):
    """Span dimension of every k-tuple (p_0, ..., p_(k-1)) of rows of
    _point_table(s, q), as uint8 at flat index sum of p_i P^i.  The empty
    tuple spans 0 and needs no point table.  Built in _F_CHUNK chunks."""
    import numpy as np

    from .vecops import VecField, decode_assignments

    if k == 0:
        return np.zeros(1, dtype=np.uint8)
    vf, pts = VecField(make_field(q)), _point_table(s, q)
    total = len(pts) ** k
    table = np.empty(total, dtype=np.uint8)
    for start in range(0, total, _F_CHUNK):
        stop = min(start + _F_CHUNK, total)
        table[start:stop] = vf.rank(pts[decode_assignments(start, stop, k, len(pts))])
    return table


def _unsatisfiable(s: int, constraints) -> bool:
    """Some span requirement exceeds s or its mask's size: no map meets it."""
    return s >= 0 and any(need > min(s, mask.bit_count()) for mask, need in constraints)


def _check_scan(n: int, s: int, q: int, rank: int):
    """(P, classes) of _count's scan of n vertices, built once its P^n maps
    times the classes (two but at rank 0 and at odd ranks in even
    characteristic) pass the budget: P = 1 + (q^s - 1)/(q - 1) values a
    vertex takes, zero or a point.  When P^n would have over _EXACT_BITS
    bits, or q^s would, neither is built: the lower bound 2^(n floor(log2 P)
    + floor(log2 classes)) is refused if it is past the budget, with
    floor(log2 P) >= (s - 1) floor(log2 q) when q^s is that long.  With no
    vertex, one map, forms past 2^_EXACT_BITS are refused as too large."""
    if n == 0 and s * (s + 1) // 2 * (q.bit_length() - 1) > _EXACT_BITS:
        raise TooLarge(f"the {s} x {s} symmetric forms over F_{q} number over 2^{_EXACT_BITS}")
    classes = 1 + (rank > 0 and (q % 2 == 1 or rank % 2 == 0))
    wide = s * q.bit_length() > _EXACT_BITS
    points = None if wide else 1 + (q**s - 1) // (q - 1)
    if wide or n * points.bit_length() > _EXACT_BITS:
        # P > q^(s - 1) when q^s is not built
        log2_points = (s - 1) * (q.bit_length() - 1) if wide else points.bit_length() - 1
        log2 = n * log2_points + classes - 1
        if log2 >= stats.budget.bit_length():
            raise BudgetExceeded(None, stats.budget, "incidence scan", log2=log2)
        if wide:  # a budget past the bound
            points = 1 + (q**s - 1) // (q - 1)
    stats.check(points**n * classes, "incidence scan")
    return points, _classes(s, q, rank)


def _zero_form(g: Graph, s: int, q: int, size: int, need: int) -> int:
    """(Q, f) pairs with Q = 0, the one form of rank 0, and a map whose
    vectors on a mask of `size` vertices span `need` dimensions.  Every edge
    condition holds, so the count is the s x size matrices of rank need
    times q^s per vertex off the mask, with no scan and no charge, once the
    scan it replaces is checked and g is checked simple."""
    _check_scan(g.n, s, q, 0)
    _edge_pairs(g)
    return count_rank_maps(s, size, need, q) * q ** (s * (g.n - size))


def _count(g: Graph, s: int, q: int, rank: int, constraints) -> int:
    """(Q, f) pairs with Q of the given rank whose map meets every (vertex
    mask, span dimension) requirement.  An unsatisfiable requirement gives
    zero with no scan; a negative s is rejected.  Rank 0 with at most one
    requirement is _zero_form's closed form.

    The scan takes one form per congruence class of the rank and one point
    of P^(s-1), or the zero vector, per vertex.  Q -> A^T Q A, f -> A^-1 f
    keeps every edge condition, the rank of Q and the span of every vertex
    subset, so a class holds its size times the pairs of its
    representative.  Scaling one vertex's vector by a nonzero scalar keeps
    them too, so a scanned map of points weighs (q-1)^(nonzero vertices);
    the weights pass int64, so they are summed in Python ints.

    The maps are filtered by every requirement but the caller's last, and
    one scan histograms the span dimension of the last one's mask, memoized
    for the run on (g, s, q, rank, the other requirements sorted, that
    mask): every dimension asked of that mask reads the same scan.  With no
    requirement the empty mask stands in, of span 0 on every map.  A mask's
    span dimension is one gather of its vertices' point rows into
    _span_table.

    The scan is charged P^n maps times the number of classes, P = 1 +
    (q^s - 1)/(q - 1), before the tables kept for the process are read: the
    P points and P^2 entries per class when g has an edge, and P^k <= P^n
    span entries per mask of k vertices (none for the empty mask), so no
    table outgrows its scan."""
    if _unsatisfiable(s, constraints):
        return 0
    if s < 0:
        raise BadParams(f"ambient dimension must be nonnegative, got {s}")
    *others, (mask, need) = constraints or ((0, 0),)
    if rank == 0 and not others:
        return _zero_form(g, s, q, mask.bit_count(), need)
    others = tuple(sorted(others))
    # refused before the memo key and the edge pairs, which sort every edge
    points, classes = _check_scan(g.n, s, q, rank)

    def compute():
        import numpy as np

        n = g.n
        edges = sorted(_edge_pairs(g))
        scan = _scan(n, points, "incidence scan", per_row=len(classes), chunk=_F_CHUNK)
        forms = _form_tables(s, q, rank) if edges else [(z, None) for _, z in classes]
        rows = indices_from_mask(mask)
        dims = min(s, len(rows)) + 1
        weights = [(q - 1) ** j for j in range(n + 1)]
        totals = [0] * dims

        def span(pidx, cols):
            if not cols:
                return np.zeros(len(pidx), dtype=np.uint8)
            flat = pidx[:, cols].astype(np.int64) @ points ** np.arange(len(cols))
            return _span_table(s, q, len(cols))[flat]

        for pidx in scan:
            want = np.ones(len(pidx), dtype=bool)
            for other, other_need in others:
                want &= span(pidx, indices_from_mask(other)) == other_need
            # one cell per (span dimension of the mask, nonzero vertices)
            cell = span(pidx, rows).astype(np.int64) * (n + 1) + (pidx != 0).sum(axis=1)
            for size, orth in forms:
                ok = want.copy()
                for u, v in edges:  # f(u)^T Q f(v) = 0, one orth lookup
                    ok &= orth[pidx[:, u], pidx[:, v]]
                hist = np.bincount(cell[ok], minlength=dims * (n + 1))
                for d, by_nonzero in enumerate(hist.reshape(dims, n + 1).tolist()):
                    totals[d] += size * sum(w * c for w, c in zip(weights, by_nonzero))
        return totals

    by_dim = stats.memoized(("pairs", g.key(), s, q, rank, others, mask), compute)
    return by_dim[need]


# ---------------------------------------------------------------------------
# public counts


def count_A(g: Graph, s: int, r: int, k: int, q: int) -> int:
    """Pairs (Q, f): Q symmetric s x s of rank exactly r, f into F_q^s with
    span dimension exactly k, every edge condition satisfied."""
    if s < 0 or r < 0 or k < 0:
        raise BadParams(f"parameters must be nonnegative, got s={s} r={r} k={k}")
    if r > s or k > min(s, g.n):
        return 0
    if r == 0:
        return _zero_form(g, s, q, g.n, k)
    if g.n > _EXACT_BITS:  # a mask this long is built only once its scan passes
        _check_scan(g.n, s, q, r)
    return _count(g, s, q, r, (((1 << g.n) - 1, k),))


def count_A_slow(g: Graph, s: int, r: int, k: int, q: int) -> int:
    """Reference implementation by direct nested enumeration."""
    if s < 0 or r < 0 or k < 0:
        raise BadParams(f"parameters must be nonnegative, got s={s} r={r} k={k}")
    if r > s or k > min(s, g.n):
        return 0
    edges = sorted(_edge_pairs(g))
    n = g.n
    stats.charge(q ** (s * (s + 1) // 2 + s * n), "incidence scan")
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


def count_J(g: Graph, s: int, q: int) -> int:
    """Pairs (Q, f) with Q invertible and f unrestricted (any span)."""
    return _count(g, s, q, s, ())


def count_J_partial(g: Graph, s: int, pi: PartialRank, q: int) -> int:
    """Invertible-Q pairs whose map satisfies required span dimensions on
    the given vertex subsets.  Unsatisfiable requirements give zero."""
    if pi.ground != g.n:
        raise BadParams(
            f"requirements are over {pi.ground} elements, graph has {g.n} vertices"
        )
    return _count(g, s, q, s, pi.pairs)


def count_K(g: Graph, s: int, q: int) -> int:
    """Pairs with Q invertible and f of full span."""
    return count_A(g, s, s, s, q)


def count_H(g: Graph, s: int, q: int) -> int:
    """Pairs in ambient dimension n (the vertex count) with Q of rank s and
    f of full span n."""
    if s < 0:
        raise BadParams(f"rank must be nonnegative, got s={s}")
    return count_A(g, g.n, s, g.n, q)


def count_L(s: int, pi: PartialRank, q: int) -> int:
    """Maps from the ground set into F_q^s with required span dimensions on
    the given subsets (no form, no edges)."""
    return _count(Graph(pi.ground, ()), s, q, 0, pi.pairs)


# ---------------------------------------------------------------------------
# forest pair counts


def forest_J(forest: Graph, s: int, q: int) -> int:
    """Nondegenerate pair count on a forest, one pass per tree from the
    leaves up: the invertible symmetric forms times, per tree, its maps.
    zero[v] counts the maps of v's subtree with f(v) = 0 and fixed[v] those
    with f(v) one given nonzero vector.  As Q is nondegenerate, the vectors
    orthogonal to any nonzero vector form an (s-1)-space, so a child c
    takes zero[c] + (q^s - 1) fixed[c] maps under a zero vector and
    zero[c] + (q^(s-1) - 1) fixed[c] under a nonzero one.  Never
    enumerates."""
    if not forest.is_forest():
        raise NotAForest(f"graph has a cycle: {forest!r}")
    total = count_symmetric_rank(s, s, q)
    # at s = 0 no vector is nonzero, and q^(s-1) would be a float
    nonzero, orthogonal = q**s - 1, q ** max(s - 1, 0) - 1
    nbrs = [[] for _ in range(forest.n)]
    for u, v in forest.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    zero, fixed, parent = [1] * forest.n, [1] * forest.n, [None] * forest.n
    for root in range(forest.n):
        if parent[root] is not None:
            continue
        parent[root], order = root, [root]  # breadth first: parents first
        for v in order:
            for w in nbrs[v]:
                if parent[w] is None:
                    parent[w] = v
                    order.append(w)
        for v in reversed(order[1:]):
            zero[parent[v]] *= zero[v] + nonzero * fixed[v]
            fixed[parent[v]] *= zero[v] + orthogonal * fixed[v]
        total *= zero[root] + nonzero * fixed[root]
    return total


# ---------------------------------------------------------------------------
# identity verification


# Every identity verify_identity checks, in gm verify's order, with the
# input it reads: "graph" or "matroid".
IDENTITIES = {
    "firstred": "graph",
    "secondred": "graph",
    "cor-secondred": "graph",
    "Dreduction": "graph",
    "yuck": "graph",
    "Jyuck": "graph",
    "pi-strat": "graph",
    "stanley-iso": "graph",
    "free-vertex": "graph",
    "signed-sums": "graph",
    "grassmann-factor": "matroid",
}


@dataclass
class IdentityReport:
    name: str
    q: int
    lhs: int | None
    rhs: int | None
    equal: bool

    def __bool__(self) -> bool:
        return self.equal


def verify_identity(name: str, params: dict, q: int) -> IdentityReport:
    """Evaluate both sides of a named counting identity by enumeration plus
    closed-form factors and report the comparison.  The structural checks
    stanley-iso, free-vertex and signed-sums compare inside counting and
    report only the verdict, with lhs = rhs = None.

    The reductions' right-hand sides open with a Grassmannian factor that
    vanishes when r or k exceeds s; the rest is then left unevaluated, since
    its factors need r, k <= s."""
    p = dict(params)

    def need(*keys):
        missing = [k for k in keys if k not in p]
        if missing:
            raise BadParams(f"identity {name!r} needs parameters {missing}")
        return [p[k] for k in keys]

    def checked(verify):  # a structural check: its verdict, no sides
        (g,) = need("graph")
        return IdentityReport(name, q, None, None, verify(g, q))

    if name == "firstred":
        g, s, r, k = need("graph", "s", "r", "k")
        lhs = count_A(g, s, r, k, q)
        rhs = (grass := count_subspaces(k, s, q)) and grass * sum(
            count_symmetric_extensions(s, r, k, j, q) * count_A(g, k, j, k, q)
            for j in range(k + 1)
        )
    elif name == "secondred":
        g, s, r, k = need("graph", "s", "r", "k")
        n = g.n
        lhs = count_A(g, s, r, k, q)
        rhs = (grass := count_subspaces(r, s, q)) and grass * sum(
            count_subspaces(n - k, n - l, q)
            * count_subspaces(k - l, s - r, q)
            * count_invertible(k - l, q)
            * q ** (l * (s - r))
            * count_A(g, r, r, l, q)
            for l in range(k + 1)
        )
    elif name == "cor-secondred":
        g, s, r = need("graph", "s", "r")
        n = g.n
        lhs = count_A(g, s, r, s, q)
        rhs = (grass := count_subspaces(r, s, q)) and (
            grass
            * count_subspaces(n - s, n - r, q)
            * count_invertible(s - r, q)
            * q ** (r * (s - r))
            * count_A(g, r, r, r, q)
        )
    elif name == "Dreduction":
        g, s, r, k = need("graph", "s", "r", "k")
        extended = g.add_disjoint_vertex()
        lhs = count_A(extended, s, r, k, q)
        rhs = q**k * count_A(g, s, r, k, q)
        if k >= 1:
            rhs += (q**s - q ** (k - 1)) * count_A(g, s, r, k - 1, q)
    elif name == "yuck":
        g, r = need("graph", "r")
        n = g.n
        if not 0 <= r <= n + 1:
            raise BadParams(f"rank parameter must lie in 0..{n + 1}, got {r}")
        extended = g.add_disjoint_vertex()
        lhs = count_H(extended, r, q)
        rhs = q ** (n + r) * (q ** (n + 1) - 1) * count_H(g, r, q)
        if r >= 1:
            rhs += (
                q ** (n + r - 1)
                * (q ** (n + 1) - 1)
                * (q - 1)
                * count_H(g, r - 1, q)
            )
        if r >= 2:
            rhs += (
                q**n
                * (q ** (n + 1) - 1)
                * (q ** (n + 1) - q ** (r - 1))
                * count_H(g, r - 2, q)
            )
    elif name == "Jyuck":
        g, s = need("graph", "s")
        lhs = count_J(g.add_disjoint_vertex(), s, q)
        rhs = q**s * count_J(g, s, q)
    elif name == "pi-strat":
        g, s, subset = need("graph", "s", "subset")
        t = p.get("t", 1)
        base: PartialRank = p.get("base") or PartialRank(g.n, ())
        if any(mask == subset for mask, _ in base.pairs):
            raise BadParams("base requirements already constrain the subset")
        if subset < 0 or subset >> g.n:
            raise BadParams(f"vertex subset mask {subset} out of range")
        if t < 0:
            raise BadParams(f"number of new vertices must be nonnegative, got {t}")
        if s >= 0 and not _unsatisfiable(s, base.pairs):
            # the left side scans n + t vertices: refuse before building them
            _check_scan(g.n + t, s, q, s)
        # t new vertices, each joined to every vertex of the subset
        hooks = indices_from_mask(subset)
        new_edges = tuple((h, g.n + j) for j in range(t) for h in hooks)
        extended = Graph(g.n + t, tuple(g.edges) + new_edges)
        lifted = PartialRank(extended.n, base.pairs)
        lhs = count_J_partial(extended, s, lifted, q)
        rhs = 0
        for i in range(s + 1):
            pi_i = PartialRank(g.n, base.pairs + ((subset, s - i),))
            rhs += q ** (t * i) * count_J_partial(g, s, pi_i, q)
    elif name == "grassmann-factor":
        matroid: Matroid
        matroid, s = need("matroid", "s")
        lhs = count_X(matroid, s, q)
        rhs = count_subspaces(matroid.rank, s, q) * count_X(matroid, matroid.rank, q)
    # each check is looked up on counting per call, so a replaced one runs
    elif name == "stanley-iso":
        return checked(counting.verify_apex_support_iso)
    elif name == "free-vertex":
        return checked(counting.verify_free_vertex_extension)
    elif name == "signed-sums":
        return checked(counting.verify_contract_delete_sums)
    else:
        raise BadParams(f"unknown identity {name!r}")
    return IdentityReport(name, q, lhs, rhs, lhs == rhs)
