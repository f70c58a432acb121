"""Point counts over F_q: hypersurface complements, vanishing strata,
constrained symmetric matrices, and the classical closed-form counts.

All counts are exact integers obtained either by explicit enumeration over a
finite field (guarded by an evaluation budget) or by closed formulas whose
divisions are asserted exact.  Enumeration work is tracked in a module-level
counter so callers can prove that cached paths do no counting at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .errors import BadArgs, BudgetExceeded, NotSimple, TooLarge
from .ffield import FieldSpec, make_field, rank_from_index_rows
from .graphs import Graph, indices_from_mask
from .polys import MultilinearPoly, spanning_tree_poly, tree_complement_poly

DEFAULT_BUDGET = 10**8

_VECTOR_CHUNK = 1 << 18


class EnumerationStats:
    """Running total of field-assignment evaluations performed."""

    def __init__(self) -> None:
        self.evaluations = 0

    def add(self, n: int) -> None:
        self.evaluations += n

    def reset(self) -> None:
        """Start a new run: zero the counter and forget every memoized
        count, so a run's evaluations cover all the work it needed."""
        self.evaluations = 0
        _memo.clear()


stats = EnumerationStats()

# every count memoized within a run, keyed by (kind, ...) tuples
_memo: dict[tuple, object] = {}


def _memoized(key: tuple, compute):
    """compute() once per key until the next stats.reset()."""
    if key not in _memo:
        _memo[key] = compute()
    return _memo[key]


def _require_budget(required: int, budget: int | None, what: str) -> None:
    limit = DEFAULT_BUDGET if budget is None else budget
    if required > limit:
        raise BudgetExceeded(required, limit, what)


def _const_index(field: FieldSpec, c: int) -> int:
    """Index of the image of the integer c in the field."""
    return field.index(field.element_from_int(c))


# ---------------------------------------------------------------------------
# zero counting for multilinear polynomials


def _index_terms(field: FieldSpec, terms) -> list[tuple[int, tuple[int, ...]]]:
    """(coefficient index, variables) per monomial, dropping the monomials
    whose coefficient vanishes in the field."""
    out = []
    for mask, coeff in terms:
        cidx = _const_index(field, coeff)
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


def count_zeros(poly: MultilinearPoly, q: int, budget: int | None = None) -> int:
    """Number of points of F_q^nvars where the polynomial vanishes.

    The polynomial is multilinear, so in its last two variables x, y it reads
    a*x*y + b*x + c*y + e with a, b, c, e polynomials in the others: only the
    other variables are scanned, and _bilinear_zeros counts the (x, y) pairs.
    Fewer than two variables are padded with unused ones, which multiply the
    count by q each.  Budget and stats count every point of F_q^nvars.
    """
    from .vecops import VecField, decode_assignments

    field = make_field(q)
    nvars = poly.nvars
    total_points = q**nvars
    _require_budget(total_points, budget, "polynomial zero scan")
    stats.add(total_points)

    n = max(nvars, 2)
    x, y = n - 2, n - 1
    # monomials by whether they hold x and y: coefficients of xy, x, y, 1
    parts = {key: [] for key in ((1, 1), (1, 0), (0, 1), (0, 0))}
    for mask, coeff in poly.terms.items():
        key = (mask >> x & 1, mask >> y & 1)
        parts[key].append((mask & ~(1 << x | 1 << y), coeff))
    a, b, c, e = (_index_terms(field, part) for part in parts.values())

    vf = VecField(field)
    zeros = 0
    scan = q ** (n - 2)
    for start in range(0, scan, _VECTOR_CHUNK):
        cols = decode_assignments(start, min(start + _VECTOR_CHUNK, scan), n - 2, q)
        zeros += int(
            _bilinear_zeros(
                vf, *(_evaluate(vf, part, cols) for part in (a, b, c, e)), q
            ).sum()
        )
    pad = q ** (n - nvars)
    assert zeros % pad == 0
    return zeros // pad


# ---------------------------------------------------------------------------
# graph hypersurface counts


def _hypersurface_complement(g: Graph, q: int, poly, budget: int | None) -> int:
    """Points of F_q^E off the zero locus of poly(g).  The scan's budget is
    checked before poly(g) is built: enumerating the spanning trees of a
    dense graph costs more than the refusal."""
    _require_budget(q**g.m, budget, "polynomial zero scan")
    return q**g.m - count_zeros(poly(g), q, budget=budget)


def count_tree_complement(g: Graph, q: int, budget: int | None = None) -> int:
    """Points of F_q^E avoiding the zero locus of the tree-complement
    polynomial (the sum over spanning trees of the product of the
    off-tree variables)."""
    return _memoized(
        ("Y", g.key(), q),
        lambda: _hypersurface_complement(g, q, tree_complement_poly, budget),
    )


def count_tree_support(g: Graph, q: int, budget: int | None = None) -> int:
    """Points of F_q^E avoiding the zero locus of the spanning-tree
    polynomial (the sum over spanning trees of the product of the
    on-tree variables)."""
    return _memoized(
        ("X", g.key(), q),
        lambda: _hypersurface_complement(g, q, spanning_tree_poly, budget),
    )


@dataclass
class Strata:
    """Counts of vanishing strata inside the spanning-tree hypersurface.

    zero_on[S]       -- points with the S-coordinates zero (others free)
    zero_exactly_on[S] -- points whose zero coordinate set is exactly S
    """

    zero_on: dict[int, int]
    zero_exactly_on: dict[int, int]


def strata_counts(g: Graph, q: int, budget: int | None = None) -> Strata:
    """Stratify the zero locus of the spanning-tree polynomial by which
    coordinates vanish, and cross-check the two subset-sum identities
    relating the closed and exact strata.  Every point is scanned, no
    variable held back, because each point's zero set is needed."""
    import numpy as np

    from .vecops import VecField, decode_assignments

    m = g.m
    if m > 20:
        raise TooLarge(f"stratification capped at 20 edges, got {m}")
    field = make_field(q)
    total_points = q**m
    _require_budget(total_points, budget, "stratum scan")
    stats.add(total_points)

    terms = _index_terms(field, spanning_tree_poly(g).terms.items())
    vf = VecField(field)
    weights = np.int64(1) << np.arange(m, dtype=np.int64)
    counts = np.zeros(1 << m, dtype=np.int64)
    for start in range(0, total_points, _VECTOR_CHUNK):
        cols = decode_assignments(start, min(start + _VECTOR_CHUNK, total_points), m, q)
        hits = cols[_evaluate(vf, terms, cols) == 0]
        zero_sets = (hits == 0).astype(np.int64) @ weights
        counts += np.bincount(zero_sets, minlength=1 << m)
    exact = dict(enumerate(counts.tolist()))

    full = (1 << m) - 1
    closed = {}
    for s in range(1 << m):
        total = 0
        free = full & ~s
        t = free
        while True:
            total += exact[s | t]
            if t == 0:
                break
            t = (t - 1) & free
        closed[s] = total

    # inclusion-exclusion back from closed strata to exact strata
    for s in range(1 << m):
        alt = 0
        free = full & ~s
        t = free
        while True:
            term = closed[s | t]
            alt += -term if bin(t).count("1") % 2 else term
            if t == 0:
                break
            t = (t - 1) & free
        if alt != exact[s]:
            raise AssertionError(
                f"stratum identities disagree at subset {s:b}: {alt} != {exact[s]}"
            )
    return Strata(zero_on=closed, zero_exactly_on=exact)


def verify_contract_delete_sums(g: Graph, q: int, budget: int | None = None) -> bool:
    """Check the two signed contraction/deletion sums that express each of
    the two hypersurface-complement counts through the other one.

    First sum: over forest subsets S (contracted) and arbitrary subsets T of
    the contraction (deleted), signed by |T|, of tree-support counts; equals
    the tree-complement count.  Second sum: over arbitrary subsets S
    (deleted) and forest subsets T of the remainder (contracted), signed by
    |T|, of tree-complement counts; equals the tree-support count.
    """
    m = g.m
    if m > 16:
        raise TooLarge(f"signed sums capped at 16 edges, got {m}")

    first = 0
    for s in range(1 << m):
        if not g.subset_is_forest(s):
            continue
        gc = g.contract(s)
        for t in range(1 << gc.m):
            val = count_tree_support(gc.delete_edges(t), q, budget=budget)
            first += -val if bin(t).count("1") % 2 else val
    ok_first = first == count_tree_complement(g, q, budget=budget)

    second = 0
    for s in range(1 << m):
        gd = g.delete_edges(s)
        for t in range(1 << gd.m):
            if not gd.subset_is_forest(t):
                continue
            val = count_tree_complement(gd.contract(t), q, budget=budget)
            second += -val if bin(t).count("1") % 2 else val
    ok_second = second == count_tree_support(g, q, budget=budget)
    return ok_first and ok_second


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


def _symmetric_batches(d: int, q: int, cells):
    """Every assignment of F_q indices to the given upper-triangle cells, as
    (B, d, d) uint8 chunks of symmetric matrices with every other cell zero,
    in the digit order of decode_assignments."""
    import numpy as np

    from .vecops import decode_assignments

    total = q ** len(cells)
    for start in range(0, total, _VECTOR_CHUNK):
        stop = min(start + _VECTOR_CHUNK, total)
        cols = decode_assignments(start, stop, len(cells), q)
        mats = np.zeros((stop - start, d, d), dtype=np.uint8)
        for pos, (i, j) in enumerate(cells):
            mats[:, i, j] = cols[:, pos]
            mats[:, j, i] = cols[:, pos]
        yield mats


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
    d: int,
    q: int,
    zero_pairs: frozenset[tuple[int, int]],
    budget: int | None,
    rank_cap: int | None = None,
) -> dict[int, int]:
    """Rank histogram of all symmetric d x d matrices over F_q with zeros
    at the given off-diagonal pairs.  Ranks above rank_cap are clamped to
    rank_cap + 1 (callers that only need 'rank == target' use this)."""
    field = make_field(q)
    cells = _pattern_cells(d, zero_pairs)
    total = q ** len(cells)
    _require_budget(total, budget, "symmetric pattern scan")
    stats.add(total)

    import numpy as np

    from .vecops import VecField

    vf = VecField(field)
    cap = None if rank_cap is None else rank_cap + 1
    counts: dict[int, int] = {}
    for mats in _symmetric_batches(d, q, cells):
        vals, freq = np.unique(vf.rank(mats, cap=cap), return_counts=True)
        for r, c in zip(vals.tolist(), freq.tolist()):
            counts[r] = counts.get(r, 0) + int(c)
    return counts


def _count_full_rank_corner(
    d: int,
    q: int,
    zero_pairs: frozenset[tuple[int, int]],
    budget: int | None,
) -> int:
    """Nondegenerate symmetric d x d matrices over F_q with the given
    off-diagonal zero pattern.

    The determinant is linear in each diagonal entry (a diagonal cell meets
    its row and column in one place), so two diagonal cells x, y are held
    back from the scan: evaluating the determinant at their four 0/1
    corners recovers det = a*x*y + b*x + c*y + e exactly, and the number of
    (x, y) pairs with a*x*y + b*x + c*y + e != 0 has a closed form
    (_bilinear_zeros).  This cuts the scan by a factor of q^2/4 against
    enumerating every free cell, which is what makes degree-8 count tables
    reachable in the budget.
    """
    from .vecops import VecField

    field = make_field(q)
    u, w = d - 2, d - 1
    held = ((u, u), (w, w))
    cells = [c for c in _pattern_cells(d, zero_pairs) if c not in held]
    total = q ** len(cells)
    _require_budget(4 * total, budget, "nondegenerate pattern scan")
    stats.add(4 * total)

    vf = VecField(field)
    one = field.index(field.one)
    result = 0
    for mats in _symmetric_batches(d, q, cells):
        d00 = vf.det(mats)
        mats[:, u, u] = one
        d10 = vf.det(mats)
        mats[:, w, w] = one
        d11 = vf.det(mats)
        mats[:, u, u] = 0
        d01 = vf.det(mats)
        gamma = vf.sub(d01, d00)
        alpha = vf.sub(vf.sub(d11, d10), gamma)
        zeros = _bilinear_zeros(vf, alpha, vf.sub(d10, d00), gamma, d00, q)
        result += int((q * q - zeros).sum())
    return result


def symmetric_rank_census(
    n: int,
    q: int,
    zero_pairs=(),
    budget: int | None = None,
) -> dict[int, int]:
    """Exhaustive rank histogram of symmetric n x n matrices over F_q with
    the given off-diagonal positions forced to zero.  Pure enumeration;
    serves as the oracle for every closed-form or split computation."""
    field = make_field(q)
    pairs = frozenset((min(a, b), max(a, b)) for a, b in zero_pairs)
    for a, b in pairs:
        if a == b or not (0 <= a < n and 0 <= b < n):
            raise BadArgs(f"invalid zero position ({a}, {b}) for size {n}")
    cells = _pattern_cells(n, pairs)
    total = q ** len(cells)
    _require_budget(total, budget, "symmetric census")
    stats.add(total)
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
    budget: int | None,
) -> int:
    """Symmetric n x n matrices over F_q, zeros at the given off-diagonal
    pairs, rank exactly `target`.

    Vertices untouched by any forced zero are completely free, so the count
    splits: enumerate the touched block, then finish each block rank with
    the closed symmetric-extension count."""
    if target < 0:
        raise BadArgs(f"rank must be nonnegative, got r={target}")
    if target > n:
        return 0
    d, mapped = _head_tail_order(n, zero_pairs)
    if d == n:
        # the corner scan holds back two diagonal cells, so n >= 2; above
        # n = 4 it has not been timed against the rank census
        if target == n and 2 <= n <= 4:
            return _count_full_rank_corner(n, q, mapped, budget)
        counts = _census_pattern(n, q, mapped, budget, rank_cap=target)
        return counts.get(target, 0)
    head = _census_pattern(d, q, mapped, budget)
    total = 0
    for head_rank, cnt in head.items():
        total += cnt * count_symmetric_extensions(n, target, d, head_rank, q)
    return total


def _edge_pairs(g: Graph) -> frozenset[tuple[int, int]]:
    if not g.is_simple():
        raise NotSimple("symmetric-matrix patterns need a simple graph")
    return frozenset((min(u, v), max(u, v)) for u, v in g.edges)


def _nonedge_pairs(g: Graph) -> frozenset[tuple[int, int]]:
    edges = _edge_pairs(g)
    return frozenset(
        (i, j) for i in range(g.n) for j in range(i + 1, g.n)
        if (i, j) not in edges
    )


def count_blocked_rank(g: Graph, r: int, q: int, budget: int | None = None) -> int:
    """Symmetric matrices indexed by the vertices, vanishing at every edge
    position, of rank exactly r."""
    return _count_pattern_rank(g.n, q, _edge_pairs(g), r, budget)


def count_blocked_nondegenerate(g: Graph, q: int, budget: int | None = None) -> int:
    """Invertible symmetric matrices vanishing at every edge position."""
    return count_blocked_rank(g, g.n, q, budget)


def count_supported_nondegenerate(g: Graph, q: int, budget: int | None = None) -> int:
    """Invertible symmetric matrices vanishing at every non-edge position
    (off the diagonal); entries at edges and on the diagonal are free."""
    return _count_pattern_rank(g.n, q, _nonedge_pairs(g), g.n, budget)


def verify_free_vertex_extension(g: Graph, q: int, budget: int | None = None) -> bool:
    """Adding an isolated vertex (one free symmetric row/column) scales the
    blocked-pattern counts in a fixed way: the new nondegenerate count is
    (q^(n+1) - q^n) times the sum of the old counts in ranks n and n-1 —
    the two one-step rank jumps that land on full rank."""
    extended = g.add_disjoint_vertex()
    lhs = count_blocked_nondegenerate(extended, q, budget)
    n = g.n
    rhs = (q ** (n + 1) - q**n) * (
        count_blocked_rank(g, n, q, budget)
        + (count_blocked_rank(g, n - 1, q, budget) if n else 0)
    )
    return lhs == rhs


def verify_apex_support_iso(g: Graph, q: int, budget: int | None = None) -> bool:
    """The tree-support count of the apex extension equals the count of
    invertible symmetric matrices supported on the original graph."""
    return count_tree_support(
        g.apex_extension(), q, budget=budget
    ) == count_supported_nondegenerate(g, q, budget=budget)


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

    The count depends only on (d2, r2, d1, r1): one bordering step has four
    explicit cases and larger gaps compose step by step.
    """
    if d1 < 0 or d2 < d1:
        raise BadArgs(f"need 0 <= d1 <= d2, got ({d1}, {d2})")
    return _extensions_cached(d2, r2, d1, r1, q)


def _extensions_cached(d2: int, r2: int, d1: int, r1: int, q: int) -> int:
    if r1 < 0 or r1 > d1 or r2 < 0 or r2 > d2:
        return 0
    if d2 == d1:
        return 1 if r2 == r1 else 0
    if d2 == d1 + 1:
        if r2 == r1:
            return q**r1
        if r2 == r1 + 1:
            return q ** (r1 + 1) - q**r1
        if r2 == r1 + 2:
            return q ** (d1 + 1) - q ** (r1 + 1)
        return 0
    return _memoized(
        ("ext", d2, r2, d1, r1, q),
        lambda: sum(
            _extensions_cached(d2, r2, d1 + 1, r1 + j, q)
            * _extensions_cached(d1 + 1, r1 + j, d1, r1, q)
            for j in range(3)
        ),
    )


def symmetric_extension_census(
    d2: int,
    d1: int,
    r1: int,
    q: int,
    base_rows: list[list[int]] | None = None,
    budget: int | None = None,
) -> dict[int, int]:
    """Exhaustive rank histogram of all symmetric d2 x d2 extensions of a
    fixed symmetric d1 x d1 base of rank r1 (entries as field indices).

    With no base given, the diagonal matrix with r1 unit entries is used.
    """
    if not (0 <= r1 <= d1 <= d2):
        raise BadArgs(f"need 0 <= r1 <= d1 <= d2, got ({r1}, {d1}, {d2})")
    field = make_field(q)
    one = field.index(field.one)
    if base_rows is None:
        base_rows = [
            [one if (i == j and i < r1) else 0 for j in range(d1)]
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
    total = q ** len(new_cells)
    _require_budget(total, budget, "extension census")
    stats.add(total)
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


# ---------------------------------------------------------------------------
# matrix rank census (oracle for the closed forms)


def rank_census(e: int, f: int, q: int, budget: int | None = None) -> dict[int, int]:
    """Rank histogram of all e x f matrices over F_q by enumeration."""
    if e < 0 or f < 0:
        raise BadArgs(f"shape must be nonnegative, got ({e}, {f})")
    field = make_field(q)
    total = q ** (e * f)
    _require_budget(total, budget, "matrix rank census")
    stats.add(total)
    counts: dict[int, int] = {}
    for assignment in product(range(q), repeat=e * f):
        rows = [list(assignment[i * f : (i + 1) * f]) for i in range(e)]
        r = rank_from_index_rows(field, rows)
        counts[r] = counts.get(r, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# count tables


@dataclass
class CountTable:
    """A labelled map from field order q to an exact integer count."""

    label: str
    counts: dict[int, int]

    def to_json(self) -> str:
        import json

        return json.dumps(
            {"label": self.label, "counts": {str(k): v for k, v in self.counts.items()}}
        )

    @staticmethod
    def from_json(text: str) -> "CountTable":
        import json

        data = json.loads(text)
        return CountTable(
            label=data["label"],
            counts={int(k): int(v) for k, v in data["counts"].items()},
        )

    def qs(self) -> list[int]:
        return sorted(self.counts)
