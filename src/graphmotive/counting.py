"""Point counts over F_q: hypersurface complements, vanishing strata,
constrained symmetric matrices, and the classical closed-form counts.

All counts are exact integers obtained either by explicit enumeration over a
finite field or by closed formulas whose divisions are asserted exact.  One
ledger per run, `stats`, holds the evaluation budget, the work charged
against it and every count memoized within the run.  A scan is charged in
what it decodes (the rows `_scan` yields, times the work per row) and is
refused when that exceeds the budget, so callers can also prove that cached
paths do no counting at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from .errors import BadArgs, BudgetExceeded, NotSimple, TooLarge
from .ffield import FieldSpec, make_field, rank_from_index_rows
from .graphs import Graph, _UnionFind, indices_from_mask, mask_from_indices
from .polys import MultilinearPoly, spanning_tree_poly, tree_complement_poly

DEFAULT_BUDGET = 10**8

_VECTOR_CHUNK = 1 << 18


class Ledger:
    """One run's budget, the evaluations charged against it, and its memo.
    The budget caps each scan on its own, not the run's total."""

    def __init__(self) -> None:
        self.reset()

    def reset(self, budget=None) -> None:
        """Start a new run under the given budget (None for DEFAULT_BUDGET):
        zero the counter and forget every memoized count, so a run's
        evaluations cover all the work it needed."""
        self.budget = DEFAULT_BUDGET if budget is None else budget
        self.evaluations = 0
        self.memo: dict[tuple, object] = {}

    def check(self, units: int, what: str) -> None:
        if units > self.budget:
            raise BudgetExceeded(units, self.budget, what)

    def charge(self, units: int, what: str) -> None:
        self.check(units, what)
        self.evaluations += units

    def memoized(self, key: tuple, compute):
        """compute() once per key until the next reset()."""
        if key not in self.memo:
            self.memo[key] = compute()
        return self.memo[key]


stats = Ledger()


def _scan(positions: int, q, what: str, per_row=1, chunk=_VECTOR_CHUNK):
    """Charges rows * per_row for the assignments of digits 0 .. q-1 (F_q
    indices, or any other radix) to the positions, then lazily yields them
    as decode_assignments chunks of at most `chunk` rows.  q is one radix
    for every position or, as in decode_assignments, one per position."""
    from .vecops import decode_assignments

    total = q**positions if isinstance(q, int) else math.prod(q)
    stats.charge(total * per_row, what)
    return (
        decode_assignments(start, min(start + chunk, total), positions, q)
        for start in range(0, total, chunk)
    )


# ---------------------------------------------------------------------------
# zero counting for multilinear polynomials


def _index_terms(field: FieldSpec, terms) -> list[tuple[int, tuple[int, ...]]]:
    """(coefficient index, variables) per monomial, dropping the monomials
    whose coefficient vanishes in the field."""
    out = []
    for mask, coeff in terms:
        cidx = coeff % field.p
        if cidx:
            out.append((cidx, tuple(indices_from_mask(mask))))
    return out


def _evaluate(vf, terms, cols):
    """Values of the polynomial with the given index terms at each row of
    cols, a (B, n) array of variable assignments as field indices."""
    import numpy as np

    acc = np.zeros(len(cols), dtype=np.uint8)
    for cidx, tvars in terms:
        t = cidx
        if cidx == 1 and tvars:  # index 1 is the unit: no multiplication by it
            t, tvars = cols[:, tvars[0]], tvars[1:]
        for v in tvars:
            t = vf.mul(cols[:, v], t)
        acc = vf.add(acc, t)
    return acc


def _bilinear_zeros(vf, a, b, c, e, q: int):
    """Per row, the number of (x, y) in F_q^2 with a*x*y + b*x + c*y + e = 0.

      a != 0: substitute X = a x + c, Y = a y + b -> X Y = b c - a e,
              so q - 1 zeros, or 2q - 1 when b c = a e;
      a == 0, (b, c) != 0: a line, q zeros;
      all of a, b, c zero: q^2 zeros iff e == 0.
    """
    import numpy as np

    crit = vf.sub(vf.mul(b, c), vf.mul(a, e))
    return np.where(
        a != 0,
        (q - 1) + (crit == 0).astype(np.int64) * q,
        np.where((b != 0) | (c != 0), q, np.where(e == 0, q * q, 0)),
    ).astype(np.int64)


def _multilinear_zeros(vf, coef, q: int):
    """Zeros in F_q^k, as one int64 count per row, of the multilinear
    polynomials whose coefficients (field indices) are the rows of the
    (B, 2^k) array coef, column S holding the coefficient of the monomial
    with variable set S (bit v for variable v), k >= 2.

    The first k - 2 variables are substituted one at a time: for each of
    the q values d of variable 0, coef'[S] = coef[S] + d * coef[S | 1]
    over the S without it, so each step multiplies the rows by q and halves
    the terms.  _bilinear_zeros counts the last two variables.
    """
    import numpy as np

    rows, spread = len(coef), 1
    values = np.arange(q, dtype=np.uint8)[None, :, None]
    while coef.shape[1] > 4:
        terms = coef.shape[1] // 2
        without, with_v = coef[:, None, 0::2], coef[:, None, 1::2]
        coef = vf.add(without, vf.mul(with_v, values)).reshape(-1, terms)
        spread *= q
    e, b, c, a = coef.T
    return _bilinear_zeros(vf, a, b, c, e, q).reshape(rows, spread).sum(axis=1)


def count_zeros(poly: MultilinearPoly, q: int) -> int:
    """Number of points of F_q^nvars where the polynomial vanishes.

    The polynomial is multilinear, so in its last two variables x, y it reads
    a*x*y + b*x + c*y + e with a, b, c, e polynomials in the others: only the
    other variables are scanned, and _multilinear_zeros counts the (x, y)
    pairs.  Fewer than two variables are padded with unused ones, which
    multiply the count by q each.  The scan, q^(max(nvars, 2) - 2) rows, is
    what the ledger charges.
    """
    import numpy as np

    from .vecops import VecField

    field = make_field(q)
    nvars = poly.nvars
    n = max(nvars, 2)
    x, y = n - 2, n - 1
    # monomials by which of x (bit 0) and y (bit 1) they hold: the
    # coefficients of 1, x, y and xy
    split = [[] for _ in range(4)]
    for mask, coeff in poly.terms.items():
        held = mask >> x & 1 | (mask >> y & 1) << 1
        split[held].append((mask & ~(1 << x | 1 << y), coeff))
    parts = [_index_terms(field, part) for part in split]

    vf = VecField(field)
    zeros = 0
    for cols in _scan(n - 2, q, "polynomial zero scan"):
        coef = np.stack([_evaluate(vf, part, cols) for part in parts], axis=1)
        zeros += int(_multilinear_zeros(vf, coef, q).sum())
    pad = q ** (n - nvars)
    assert zeros % pad == 0
    return zeros // pad


# ---------------------------------------------------------------------------
# graph hypersurface counts


def _tree_count(g: Graph, q: int, kind: str) -> int:
    """X(G) (kind "X", the spanning-tree polynomial) or Y(G) (kind "Y", the
    tree-complement polynomial): the points of F_q^E where it is nonzero.

    A recurrence memoized on g's labels, each rule applied to every edge it
    fits at once, so the recursion is as deep as the rounds of rules:
      loops L:           X(G) = q^|L| X(G - L),      Y(G) = (q-1)^|L| Y(G - L);
      bridges B:         X(G) = (q-1)^|B| X(G / B),  Y(G) = q^|B| Y(G / B);
      X only, twins P:   X(G) = q^|P| X(G - P), P every edge parallel to an
                         earlier one, as T_G(x) = T_{G-f}(x_e + x_f).
    A graph with no vertex or with two components has no spanning tree and
    counts 0; a single vertex counts 1.  Any other graph is scanned, the
    scan checked against the budget before the polynomial is built:
    enumerating the spanning trees of a dense graph costs more than the
    refusal."""

    def compute():
        make_field(q)  # an order with no field fails here, closed form or not
        if not g.is_connected():
            return 0
        loop, bridge = (q, q - 1) if kind == "X" else (q - 1, q)
        loops = mask_from_indices(i for i, (u, v) in enumerate(g.edges) if u == v)
        if loops:
            return loop ** loops.bit_count() * _tree_count(g.delete_edges(loops), q, kind)
        bridges = g.bridges()
        if bridges:
            return bridge ** bridges.bit_count() * _tree_count(g.contract(bridges), q, kind)
        if kind == "X":
            pairs = [(min(u, v), max(u, v)) for u, v in g.edges]
            twins = mask_from_indices(i for i, p in enumerate(pairs) if p in pairs[:i])
            if twins:
                return q ** twins.bit_count() * _tree_count(g.delete_edges(twins), q, kind)
        if g.n == 1:
            return 1
        stats.check(q ** (max(g.m, 2) - 2), "polynomial zero scan")
        poly = spanning_tree_poly if kind == "X" else tree_complement_poly
        return q**g.m - count_zeros(poly(g), q)

    return stats.memoized((kind, g.key(), q), compute)


def count_tree_complement(g: Graph, q: int) -> int:
    """Points of F_q^E avoiding the zero locus of the tree-complement
    polynomial (the sum over spanning trees of the product of the
    off-tree variables)."""
    return _tree_count(g, q, "Y")


def count_tree_support(g: Graph, q: int) -> int:
    """Points of F_q^E avoiding the zero locus of the spanning-tree
    polynomial (the sum over spanning trees of the product of the
    on-tree variables)."""
    return _tree_count(g, q, "X")


@dataclass
class Strata:
    """Counts of vanishing strata inside the spanning-tree hypersurface.

    zero_on[S]       -- points with the S-coordinates zero (others free)
    zero_exactly_on[S] -- points whose zero coordinate set is exactly S
    """

    zero_on: dict[int, int]
    zero_exactly_on: dict[int, int]


def strata_counts(g: Graph, q: int) -> Strata:
    """Stratify the zero locus of the spanning-tree polynomial by which
    coordinates vanish, and cross-check the two subset-sum identities
    relating the closed and exact strata.  Every point is scanned, no
    variable held back, because each point's zero set is needed."""
    import numpy as np

    from .vecops import VecField

    m = g.m
    if m > 20:
        raise TooLarge(f"stratification capped at 20 edges, got {m}")
    field = make_field(q)
    terms = _index_terms(field, spanning_tree_poly(g).terms.items())
    vf = VecField(field)
    weights = np.int64(1) << np.arange(m, dtype=np.int64)
    counts = np.zeros(1 << m, dtype=np.int64)
    for cols in _scan(m, q, "stratum scan"):
        hits = cols[_evaluate(vf, terms, cols) == 0]
        zero_sets = (hits == 0).astype(np.int64) @ weights
        counts += np.bincount(zero_sets, minlength=1 << m)

    def superset_sums(values, sign):
        # one edge e at a time, every S without e adds sign * values[S | e]
        out = values.copy()
        for e in range(m):
            halves = out.reshape(-1, 2, 1 << e)
            halves[:, 0] += sign * halves[:, 1]
        return out

    closed = superset_sums(counts, 1)
    # inclusion-exclusion back from closed strata to exact strata
    back = superset_sums(closed, -1)
    wrong = np.flatnonzero(back != counts)
    if len(wrong):
        s = int(wrong[0])
        raise AssertionError(
            f"stratum identities disagree at subset {s:b}: {back[s]} != {counts[s]}"
        )
    return Strata(
        zero_on=dict(enumerate(closed.tolist())),
        zero_exactly_on=dict(enumerate(counts.tolist())),
    )


def verify_contract_delete_sums(g: Graph, q: int) -> bool:
    """Check the two signed contraction/deletion sums that express each of
    the two hypersurface-complement counts through the other one.

    First sum: over forest subsets A (contracted) and arbitrary subsets B of
    the contraction (deleted), signed by |B|, of tree-support counts; equals
    the tree-complement count.  Second sum: over arbitrary subsets B
    (deleted) and forest subsets A of the remainder (contracted), signed by
    |A|, of tree-complement counts; equals the tree-support count.  Both
    range over the same pairs, since A is a forest of G - B iff of G, and
    G - B / A is G / A - B.

    The minors come from one pass over the edges, memoized for the run.  A
    state is the vertex partition A makes, each vertex named by its block's
    least vertex, with the sorted block pairs of the kept edges, and it
    carries its sums of (-1)^|B| and of (-1)^|A|.  Each edge is kept (its
    block pair joins the state), deleted (the B sum changes sign) or, when
    it joins two blocks, contracted (they merge and the A sum changes sign):
    joining two blocks is exactly "A stays a forest".  Equal states merge.
    Before each edge 3 units per state are charged, so the budget bounds a
    level before it is built.  No sum cancels: every (A, B) reaching a
    state has |A| = n - blocks and |B| = edges so far - |A| - kept.  The
    final states, blocks renamed 0..k-1, are grouped by Graph.iso_key, and
    each class counts once, on the graph its key names.
    """
    m = g.m
    if m > 16:
        raise TooLarge(f"signed sums capped at 16 edges, got {m}")

    def signed_minors():
        def tally(table, key, by_b, by_a):
            sums = table.setdefault(key, [0, 0])
            sums[0] += by_b
            sums[1] += by_a

        states = {(tuple(range(g.n)), ()): (1, 1)}
        for u, v in g.edges:
            stats.charge(3 * len(states), "signed minor recursion")
            level = {}
            for (blocks, kept), (by_b, by_a) in states.items():
                lo, hi = sorted((blocks[u], blocks[v]))
                tally(level, (blocks, tuple(sorted(kept + ((lo, hi),)))), by_b, by_a)
                tally(level, (blocks, kept), -by_b, by_a)
                if lo != hi:
                    merged = tuple(lo if b == hi else b for b in blocks)
                    pairs = (tuple(merged[w] for w in pair) for pair in kept)
                    joined = tuple(sorted((min(pair), max(pair)) for pair in pairs))
                    tally(level, (merged, joined), by_b, -by_a)
            states = level
        minors, classes = {}, {}
        for (blocks, kept), (by_b, by_a) in states.items():
            name = {b: i for i, b in enumerate(sorted(set(blocks)))}
            # renaming the blocks in order keeps the pairs sorted: a key()
            edges = tuple((name[a], name[b]) for a, b in kept)
            tally(minors, (len(name), edges), by_b, by_a)
        for (n, edges), (by_b, by_a) in minors.items():
            tally(classes, Graph(n, edges).iso_key(), by_b, by_a)
        return [(Graph(*key), by_b, by_a) for key, (by_b, by_a) in classes.items()]

    first = second = 0
    minors = stats.memoized(("signed minors", g.key()), signed_minors)
    for minor, by_deleted, by_contracted in minors:
        first += by_deleted * count_tree_support(minor, q)
        second += by_contracted * count_tree_complement(minor, q)
    return first == count_tree_complement(g, q) and second == count_tree_support(g, q)


# ---------------------------------------------------------------------------
# constrained symmetric matrices


def _pattern_cells(n: int, zero_pairs: frozenset[tuple[int, int]]):
    """Free upper-triangle cells (diagonal included) after forcing the
    given off-diagonal pairs to zero."""
    cells = []
    for i in range(n):
        for j in range(i, n):
            if i != j and (i, j) in zero_pairs:
                continue
            cells.append((i, j))
    return cells


def _symmetric_batches(
    d: int, q: int, cells, what: str, per_row=1, chunk=_VECTOR_CHUNK
):
    """The symmetric d x d matrices over F_q with the given upper-triangle
    cells free and every other cell zero, normalized under the diagonal
    torus as below, in (mats, nonzero) chunks: mats (B, d, d) uint8 and
    nonzero the number of nonzero forest cells per matrix; charged as one
    _scan, with its per_row and chunk.

    M -> D M D, D an invertible diagonal matrix, keeps every zero cell and
    the rank.  The free off-diagonal cells are the edges of a graph on the
    d indices; take a spanning forest F of it, rooted in each component.
    The D with d_root = 1 scale the F cells by each element of (F_q^*)^F
    exactly once, so a matrix whose nonzero F cells are a set J is D N for
    exactly one N with 1 on J and 0 on the rest of F and one such D that
    scales the F cells off J by 1: a decoded N with j nonzero F cells
    stands for (q-1)^j matrices of its rank.  The F cells are radix-2
    digits below the radix-q digits of the other cells, so
    2^|F| q^(cells - |F|) rows are decoded in all."""
    import numpy as np

    uf = _UnionFind(d)
    forest, rest = [], []
    for i, j in cells:
        # a diagonal cell, or one that closes a cycle, is not a forest cell
        (forest if uf.union(i, j) else rest).append((i, j))
    order = forest + rest
    radices = (2,) * len(forest) + (q,) * len(rest)

    def fill(cols):
        mats = np.zeros((len(cols), d, d), dtype=np.uint8)
        for pos, (i, j) in enumerate(order):  # digit 1 is index 1, the unit
            mats[:, i, j] = cols[:, pos]
            mats[:, j, i] = cols[:, pos]
        return mats, cols[:, : len(forest)].sum(axis=1, dtype=np.intp)

    return map(fill, _scan(len(order), radices, what, per_row, chunk))


def _head_tail_order(n: int, zero_pairs: frozenset[tuple[int, int]]):
    """Vertices touched by a forced zero first, fully free vertices last."""
    touched = sorted({v for pair in zero_pairs for v in pair})
    rest = [v for v in range(n) if v not in set(touched)]
    order = touched + rest
    pos = {v: i for i, v in enumerate(order)}
    mapped = frozenset(
        (min(pos[a], pos[b]), max(pos[a], pos[b])) for a, b in zero_pairs
    )
    return len(touched), mapped


def _census_pattern(
    d: int, q: int, zero_pairs: frozenset[tuple[int, int]]
) -> dict[int, int]:
    """Rank histogram of all symmetric d x d matrices over F_q with zeros
    at the given off-diagonal pairs."""
    import numpy as np

    from .vecops import VecField

    vf = VecField(make_field(q))
    cells = _pattern_cells(d, zero_pairs)
    # one histogram cell per (rank, nonzero forest cells), both at most d
    side = d + 1
    hist = np.zeros(side * side, dtype=np.int64)
    for mats, nonzero in _symmetric_batches(d, q, cells, "symmetric pattern scan"):
        ranks = vf.rank(mats).astype(np.intp)
        hist += np.bincount(ranks * side + nonzero, minlength=side * side)
    counts: dict[int, int] = {}
    for r, by_nonzero in enumerate(hist.reshape(side, side).tolist()):
        if any(by_nonzero):
            counts[r] = sum(c * (q - 1) ** j for j, c in enumerate(by_nonzero))
    return counts


def _count_full_rank(n: int, q: int, zero_pairs: frozenset[tuple[int, int]]) -> int:
    """Nondegenerate symmetric n x n matrices over F_q (n >= 2) with the
    given off-diagonal zero pattern.

    Write the matrix as D + N, D its diagonal d_0..d_{n-1} and N the rest.
    The determinant is multilinear in the d_i:
    det(D + N) = sum over S of prod_{i in S} d_i * det(N[complement of S]).
    So only N's free cells are scanned, one N per diagonal-torus class
    (_symmetric_batches); the 2^n principal minors of each N are the
    coefficients of a polynomial in every diagonal cell, and
    _multilinear_zeros counts the diagonals where it vanishes.  An N with
    j nonzero forest cells weighs (q-1)^j.  The unit is q^(n-2) folded
    diagonal values per decoded N.
    """
    import numpy as np

    from .vecops import VecField

    cells = [(i, j) for i, j in _pattern_cells(n, zero_pairs) if i != j]
    full = (1 << n) - 1
    vf = VecField(make_field(q))
    fold = q ** (n - 2)
    batches = _symmetric_batches(
        n, q, cells, "nondegenerate pattern scan",
        per_row=fold, chunk=max(1, _VECTOR_CHUNK // fold),
    )
    result = 0
    for mats, nonzero in batches:
        coef = np.empty((len(mats), 1 << n), dtype=np.uint8)
        for keep in range(1 << n):
            rows = indices_from_mask(keep)
            coef[:, full ^ keep] = vf.det(mats[:, rows][:, :, rows])
        good = q**n - _multilinear_zeros(vf, coef, q)
        # a forest has at most n - 1 cells; the weights stay Python ints
        for j in range(n):
            result += (q - 1) ** j * int(good[nonzero == j].sum())
    return result


def symmetric_rank_census(n: int, q: int, zero_pairs=()) -> dict[int, int]:
    """Exhaustive rank histogram of symmetric n x n matrices over F_q with
    the given off-diagonal positions forced to zero.  Pure enumeration;
    serves as the oracle for every closed-form or split computation."""
    field = make_field(q)
    pairs = frozenset((min(a, b), max(a, b)) for a, b in zero_pairs)
    for a, b in pairs:
        if a == b or not (0 <= a < n and 0 <= b < n):
            raise BadArgs(f"invalid zero position ({a}, {b}) for size {n}")
    cells = _pattern_cells(n, pairs)
    stats.charge(q ** len(cells), "symmetric census")
    counts: dict[int, int] = {}
    for assignment in product(range(q), repeat=len(cells)):
        rows = [[0] * n for _ in range(n)]
        for pos, (i, j) in enumerate(cells):
            rows[i][j] = assignment[pos]
            rows[j][i] = assignment[pos]
        r = rank_from_index_rows(field, rows)
        counts[r] = counts.get(r, 0) + 1
    return counts


def _count_pattern_rank(
    n: int,
    q: int,
    zero_pairs: frozenset[tuple[int, int]],
    target: int,
) -> int:
    """Symmetric n x n matrices over F_q, zeros at the given off-diagonal
    pairs, rank exactly `target`.

    Vertices untouched by any forced zero are completely free, so the count
    splits: enumerate the touched block, then finish each block rank with
    the closed symmetric-extension count.  When every vertex is touched, a
    full-rank count scans the off-diagonal cells and holds every diagonal
    cell back (_count_full_rank)."""
    if target < 0:
        raise BadArgs(f"rank must be nonnegative, got r={target}")
    if target > n:
        return 0
    d, mapped = _head_tail_order(n, zero_pairs)
    if target == d == n > 0:
        return _count_full_rank(n, q, mapped)
    # a head rank above target extends to none of rank target
    head = _census_pattern(d, q, mapped)
    return sum(
        cnt * count_symmetric_extensions(n, target, d, head_rank, q)
        for head_rank, cnt in head.items()
    )


def _edge_pairs(g: Graph) -> frozenset[tuple[int, int]]:
    if not g.is_simple():
        raise NotSimple("this count needs a simple graph")
    return frozenset((min(u, v), max(u, v)) for u, v in g.edges)


def count_blocked_rank(g: Graph, r: int, q: int) -> int:
    """Symmetric matrices indexed by the vertices, vanishing at every edge
    position, of rank exactly r."""
    return _count_pattern_rank(g.n, q, _edge_pairs(g), r)


def count_blocked_nondegenerate(g: Graph, q: int) -> int:
    """Invertible symmetric matrices vanishing at every edge position."""
    return count_blocked_rank(g, g.n, q)


def count_supported_nondegenerate(g: Graph, q: int) -> int:
    """Invertible symmetric matrices vanishing at every non-edge position
    (off the diagonal); entries at edges and on the diagonal are free."""
    return _count_pattern_rank(g.n, q, _edge_pairs(g.complement()), g.n)


def verify_free_vertex_extension(g: Graph, q: int) -> bool:
    """Adding an isolated vertex (one free symmetric row/column) scales the
    blocked-pattern counts in a fixed way: the new nondegenerate count is
    (q^(n+1) - q^n) times the sum of the old counts in ranks n and n-1 —
    the two one-step rank jumps that land on full rank."""
    extended = g.add_disjoint_vertex()
    lhs = count_blocked_nondegenerate(extended, q)
    n = g.n
    rhs = (q ** (n + 1) - q**n) * (
        count_blocked_rank(g, n, q) + (count_blocked_rank(g, n - 1, q) if n else 0)
    )
    return lhs == rhs


def verify_apex_support_iso(g: Graph, q: int) -> bool:
    """The tree-support count of the apex extension equals the count of
    invertible symmetric matrices supported on the original graph."""
    apex = count_tree_support(g.apex_extension(), q)
    return apex == count_supported_nondegenerate(g, q)


# ---------------------------------------------------------------------------
# closed-form counts


def count_invertible(n: int, q: int) -> int:
    """Invertible n x n matrices over F_q."""
    if n < 0:
        raise BadArgs(f"matrix size must be nonnegative, got {n}")
    total = 1
    for i in range(n):
        total *= q**n - q**i
    return total


def count_subspaces(k: int, n: int, q: int) -> int:
    """k-dimensional subspaces of F_q^n; zero when no such subspace exists
    (either dimension negative, or k above n)."""
    if k < 0 or n < 0 or k > n:
        return 0
    if k in (0, n):
        return 1
    num = count_invertible(n, q)
    den = count_invertible(k, q) * count_invertible(n - k, q) * q ** (k * (n - k))
    assert num % den == 0
    return num // den


def count_rank_maps(e: int, f: int, r: int, q: int) -> int:
    """e x f matrices over F_q of rank exactly r."""
    if r < 0:
        raise BadArgs(f"rank must be nonnegative, got {r}")
    return count_subspaces(r, e, q) * count_subspaces(r, f, q) * count_invertible(r, q)


def count_symmetric_rank(n: int, r: int, q: int) -> int:
    """Symmetric n x n matrices over F_q of rank exactly r."""
    if n < 0 or r < 0:
        raise BadArgs(f"arguments must be nonnegative, got ({n}, {r})")
    if r > n:
        return 0
    num = 1
    den = 1
    for i in range(1, r // 2 + 1):
        num *= q ** (2 * i)
        den *= q ** (2 * i) - 1
    for i in range(r):
        num *= q ** (n - i) - 1
    assert num % den == 0
    return num // den


# ---------------------------------------------------------------------------
# symmetric extension counts


def extension_support(d2: int, r2: int, d1: int, r1: int) -> bool:
    """Whether a symmetric d1 x d1 matrix of rank r1 admits any symmetric
    d2 x d2 extension of rank r2."""
    return (
        0 <= r1 <= d1
        and 0 <= r2 <= d2
        and d1 <= d2
        and r1 <= r2 <= r1 + 2 * (d2 - d1)
    )


def count_symmetric_extensions(d2: int, r2: int, d1: int, r1: int, q: int) -> int:
    """Symmetric d2 x d2 matrices over F_q of rank exactly r2 whose leading
    d1 x d1 block is a fixed symmetric matrix of rank r1.

    The block is congruent to diag(A0, 0), A0 invertible r1 x r1.  A Schur
    complement against A0 clears the border rows facing A0: q^(r1 e) free
    choices, e = d2 - d1.  When the other d1 - r1 border rows B have rank k,
    [[0, B], [B^T, C]] has rank 2k plus that of C's trailing (e - k) block,
    whose other k(e - k) + k(k + 1)/2 cells are free."""
    if d1 < 0 or d2 < d1:
        raise BadArgs(f"need 0 <= d1 <= d2, got ({d1}, {d2})")
    if not (0 <= r1 <= d1 and r1 <= r2 <= d2):
        return 0
    e = d2 - d1
    return q ** (r1 * e) * sum(
        count_rank_maps(d1 - r1, e, k, q)
        * q ** (k * (e - k) + k * (k + 1) // 2)
        * count_symmetric_rank(e - k, r2 - r1 - 2 * k, q)
        for k in range(min(d1 - r1, e, (r2 - r1) // 2) + 1)
    )


# ---------------------------------------------------------------------------
# count tables


@dataclass
class CountTable:
    """A labelled map from field order q to an exact integer count."""

    label: str
    counts: dict[int, int]

    def to_dict(self) -> dict:
        """The table as JSON-ready data: label, and counts keyed by str(q)."""
        return {"label": self.label, "counts": {str(k): v for k, v in self.counts.items()}}

    def qs(self) -> list[int]:
        return sorted(self.counts)
