"""Matroids as explicit rank tables over a small ground set.

Provides axiom validation, matroids of vector configurations, exact counts of
the maps into F_q^s whose span dimensions realize a given rank table, and the
projective-plane constructions that encode field addition and multiplication
as incidence conditions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .counting import CountTable, DEFAULT_BUDGET, count_invertible, stats
from .errors import BadParams, BudgetExceeded, ParseError, TooLarge
from .ffield import FieldSpec, make_field, rank_from_index_rows
from .graphs import indices_from_mask


@dataclass(frozen=True)
class Matroid:
    """Ground set {0..m-1} with the rank of every subset tabulated.

    ranks[mask] is the rank of the subset with that bitmask; the table is
    structural data only — use validate_axioms to test that it is actually
    a matroid rank function.
    """

    m: int
    ranks: tuple[int, ...]

    def __post_init__(self):
        if self.m < 0:
            raise BadParams(f"ground set size must be nonnegative, got {self.m}")
        if len(self.ranks) != 1 << self.m:
            raise BadParams(
                f"rank table needs {1 << self.m} entries, got {len(self.ranks)}"
            )
        for v in self.ranks:
            if not isinstance(v, int) or v < 0:
                raise BadParams(f"ranks must be nonnegative integers, got {v!r}")

    @property
    def rank(self) -> int:
        return self.ranks[-1] if self.ranks else 0

    def rank_of(self, subset: int) -> int:
        if not 0 <= subset < (1 << self.m):
            raise BadParams(f"subset mask {subset} out of range for m={self.m}")
        return self.ranks[subset]

    def closure(self, subset: int) -> int:
        """All elements whose addition leaves the rank unchanged."""
        r = self.rank_of(subset)
        out = subset
        for e in range(self.m):
            bit = 1 << e
            if not subset & bit and self.ranks[subset | bit] == r:
                out |= bit
        return out

    def relabel(self, perm: list[int]) -> "Matroid":
        """Matroid with ground element perm[e] playing the role of e."""
        if sorted(perm) != list(range(self.m)):
            raise BadParams(f"not a permutation of 0..{self.m - 1}: {perm}")
        new = [0] * (1 << self.m)
        for mask in range(1 << self.m):
            img = 0
            for e in range(self.m):
                if mask & (1 << e):
                    img |= 1 << perm[e]
            new[img] = self.ranks[mask]
        return Matroid(self.m, tuple(new))


@dataclass(frozen=True)
class PartialRank:
    """Required span dimensions on selected subsets of a ground set.

    pairs maps subset bitmasks to required dimensions; no matroid axioms are
    imposed — an unsatisfiable requirement just means an empty count.
    """

    ground: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.ground < 0:
            raise BadParams(f"ground set size must be nonnegative, got {self.ground}")
        seen = set()
        for mask, need in self.pairs:
            if not 0 <= mask < (1 << self.ground):
                raise BadParams(f"subset mask {mask} out of range")
            if need < 0:
                raise BadParams(f"required dimension must be nonnegative, got {need}")
            if mask in seen:
                raise BadParams(f"duplicate subset mask {mask}")
            seen.add(mask)

    @staticmethod
    def total(matroid: Matroid) -> "PartialRank":
        """The fully specified rank table of a matroid as requirements."""
        return PartialRank(
            matroid.m,
            tuple((mask, matroid.ranks[mask]) for mask in range(1 << matroid.m)),
        )


def validate_axioms(matroid: Matroid) -> bool:
    """Check of the rank axioms in their local form, equivalent to the usual
    ones for integer functions (Oxley, Matroid Theory, section 1.3): the
    empty set has rank 0, adding one element raises the rank by 0 or 1, and
    if adding x and adding y each leave the rank of X unchanged, so does
    adding both."""
    if matroid.m > 12:
        raise TooLarge(f"axiom validation capped at 12 elements, got {matroid.m}")
    r = matroid.ranks
    m = matroid.m
    if r[0] != 0:
        return False
    for x in range(1 << m):
        flat = []  # elements outside x that leave its rank unchanged
        for e in range(m):
            bit = 1 << e
            if x & bit:
                continue
            step = r[x | bit] - r[x]
            if step not in (0, 1):
                return False
            if step == 0:
                flat.append(bit)
        for i, a in enumerate(flat):
            for b in flat[i + 1 :]:
                if r[x | a | b] != r[x]:
                    return False
    return True


def vector_matroid(field: FieldSpec, columns: list[list[int]]) -> Matroid:
    """Matroid of a list of vectors (entries are field element indices):
    the rank of a subset is the dimension of its span."""
    m = len(columns)
    if m > 16:
        raise TooLarge(f"vector matroid capped at 16 columns, got {m}")
    dims = {len(c) for c in columns}
    if len(dims) > 1:
        raise BadParams(f"columns must share a dimension, got lengths {sorted(dims)}")
    ranks = []
    for mask in range(1 << m):
        rows = [list(columns[e]) for e in range(m) if mask & (1 << e)]
        ranks.append(rank_from_index_rows(field, rows) if rows else 0)
    return Matroid(m, tuple(ranks))


def fano() -> Matroid:
    """The seven-element rank-3 matroid of the projective plane over F_2:
    element e represents the nonzero vector with binary digits of e+1."""
    cols = [[(i >> 0) & 1, (i >> 1) & 1, (i >> 2) & 1] for i in range(1, 8)]
    return vector_matroid(make_field(2), cols)


def uniform(r: int, m: int) -> Matroid:
    """Every set of size up to r independent, nothing bigger."""
    if not 0 <= r <= m:
        raise BadParams(f"need 0 <= r <= m, got ({r}, {m})")
    return Matroid(m, tuple(min(r, bin(x).count("1")) for x in range(1 << m)))


# ---------------------------------------------------------------------------
# incremental span tracking


class Span:
    """Forward-eliminated basis over a tabled field; vectors are lists of
    element indices."""

    def __init__(self, field: FieldSpec):
        self._f = field
        self.rows: list[tuple[int, list[int]]] = []  # (pivot, normalized row)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def residual(self, v: list[int]) -> list[int]:
        f = self._f
        mul = f.mul_table
        add = f.add_table
        neg = f.neg_table
        v = list(v)
        for piv, row in self.rows:
            c = v[piv]
            if c == 0:
                continue
            for i in range(piv, len(v)):
                v[i] = add[v[i]][neg[mul[c][row[i]]]]
        return v

    def contains(self, v: list[int]) -> bool:
        return not any(self.residual(v))

    def add(self, v: list[int]) -> bool:
        """Insert a vector; True if the dimension grew."""
        res = self.residual(v)
        for piv, c in enumerate(res):
            if c != 0:
                mul = self._f.mul_table[self._f.inv_table[c]]
                row = [mul[x] for x in res]
                self.rows.append((piv, row))
                self.rows.sort(key=lambda t: t[0])
                return True
        return False


def _span_of(field: FieldSpec, vectors: list[list[int]]) -> Span:
    sp = Span(field)
    for v in vectors:
        sp.add(v)
    return sp


def _combos(field: FieldSpec, basis_rows: list[list[int]], s: int):
    """One vector on every line through the origin in the span of the basis
    rows: the combinations whose first nonzero coefficient is one, in a fixed
    order.  With no rows the span is {0}, and its zero vector is yielded."""
    q = field.q
    mul = field.mul_table
    add = field.add_table
    if not basis_rows:
        yield [0] * s
        return
    for lead, first in enumerate(basis_rows):
        rest = basis_rows[lead + 1 :]
        for coeffs in product(range(q), repeat=len(rest)):
            v = list(first)
            for c, row in zip(coeffs, rest):
                if c == 0:
                    continue
                for i in range(s):
                    v[i] = add[v[i]][mul[c][row[i]]]
            yield v


# ---------------------------------------------------------------------------
# counting rank-table representations


def _level_constraints(matroid: Matroid, order: list[int]):
    """For each position t, the deduplicated constraint sets for element
    order[t] against the prefix order[:t].

    Every subset X of the prefix imposes: the new vector lies in the span of
    the X-vectors iff the element lies in the closure of X.  The closure of X
    intersected with the prefix spans the same space and has the same
    closure, so only those intersections need checking.  Returns per level a
    list of (rep mask, must_be_inside) plus the in-rep of smallest rank (the
    candidate generator), or None if the element is free.
    """
    levels = []
    prefix = 0
    for t, e in enumerate(order):
        reps: dict[int, bool] = {}
        sub = prefix
        while True:
            rep = matroid.closure(sub) & prefix
            if rep not in reps:
                reps[rep] = bool(matroid.closure(rep) & (1 << e))
            if sub == 0:
                break
            sub = (sub - 1) & prefix
        gen = None
        for rep, inside in reps.items():
            if inside and (gen is None or matroid.ranks[rep] < matroid.ranks[gen]):
                gen = rep
        levels.append((e, sorted(reps.items()), gen))
        prefix |= 1 << e
    return levels


def _greedy_basis(matroid: Matroid) -> list[int]:
    basis = []
    cur = 0
    for e in range(matroid.m):
        if matroid.ranks[cur | (1 << e)] > matroid.ranks[cur]:
            basis.append(e)
            cur |= 1 << e
    return basis


def count_X(
    matroid: Matroid,
    s: int | None = None,
    q: int = 2,
    budget: int | None = None,
) -> int:
    """Maps f from the ground set to F_q^s whose span dimension on every
    subset equals the tabulated rank.

    With s equal to the matroid rank the invertible s x s matrices act
    freely on the solutions and every orbit contains exactly one map sending
    the greedy basis to the standard basis, so only pinned maps are
    enumerated and the total is the pinned count times the number of
    invertible matrices.  For other s a direct pruned scan is used.

    Either way each non-loop element outside the pinned basis is searched
    one projective point at a time.  Scaling its vector by a nonzero scalar
    leaves every span unchanged, so all q - 1 vectors on a line have the
    same number of completions: only the vector whose first nonzero
    coefficient over the rows generating its candidate space is one is
    tried, and the result is multiplied by q - 1 per such element.  A loop
    takes the zero vector, which no other element can.  The budget and the
    evaluation counter count these normalized candidates.
    """
    if s is None:
        s = matroid.rank
    if s < 0:
        raise BadParams(f"ambient dimension must be nonnegative, got {s}")
    if matroid.rank > s:
        return 0
    if matroid.m == 0:
        return 1
    field = make_field(q)
    limit = DEFAULT_BUDGET if budget is None else budget

    pinned = s == matroid.rank
    if pinned:
        basis = _greedy_basis(matroid)
        order = basis + [e for e in range(matroid.m) if e not in set(basis)]
    else:
        basis = []
        order = list(range(matroid.m))
    levels = _level_constraints(matroid, order)
    one = field.index(field.one)
    units = [[one if i == j else 0 for i in range(s)] for j in range(s)]
    scaled = sum(1 for e in order[len(basis) :] if matroid.ranks[1 << e])

    visited = 0
    assigned: dict[int, list[int]] = {}

    def dfs(t: int) -> int:
        nonlocal visited
        if t == len(order):
            return 1
        e, reps, gen = levels[t]
        if pinned and t < len(basis):
            # standard basis vector: independence from every prefix subset
            # holds automatically, and no closure membership can be required
            # of a rank-raising element
            assigned[e] = units[t]
            total = dfs(t + 1)
            del assigned[e]
            return total

        spans = [
            (_span_of(field, [assigned[x] for x in indices_from_mask(rep)]), inside)
            for rep, inside in reps
        ]
        if gen is not None:
            gen_rows = [
                row
                for _, row in _span_of(
                    field, [assigned[x] for x in indices_from_mask(gen)]
                ).rows
            ]
        else:
            gen_rows = units
        total = 0
        for vec in _combos(field, gen_rows, s):
            visited += 1
            if visited > limit:
                raise BudgetExceeded(visited, limit, "representation scan")
            ok = True
            for span, inside in spans:
                if span.contains(vec) != inside:
                    ok = False
                    break
            if not ok:
                continue
            assigned[e] = vec
            total += dfs(t + 1)
            del assigned[e]
        return total

    try:
        count = dfs(0) * (q - 1) ** scaled
    finally:
        stats.add(visited)
    if pinned:
        count *= count_invertible(s, q)
    return count


def count_X_oracle(
    matroid: Matroid, s: int | None = None, q: int = 2, budget: int | None = None
) -> int:
    """Independent reference count: depth-first over all vectors for each
    element in ground order, checking the span dimension of every subset of
    the assigned prefix directly."""
    if s is None:
        s = matroid.rank
    field = make_field(q)
    m = matroid.m
    limit = DEFAULT_BUDGET if budget is None else budget
    visited = 0
    vecs: list[list[int]] = []

    def check_new(t: int) -> bool:
        # every subset containing element t; smaller subsets were checked
        for sub in range(1 << t):
            mask = sub | (1 << t)
            rows = [vecs[x] for x in indices_from_mask(mask)]
            if _span_of(field, rows).dim != matroid.ranks[mask]:
                return False
        return True

    def dfs(t: int) -> int:
        nonlocal visited
        if t == m:
            return 1
        total = 0
        for vals in product(range(q), repeat=s):
            visited += 1
            if visited > limit:
                raise BudgetExceeded(visited, limit, "reference scan")
            vecs.append(list(vals))
            if check_new(t):
                total += dfs(t + 1)
            vecs.pop()
        return total

    try:
        return dfs(0)
    finally:
        stats.add(visited)


def fano_demo(q_list, budget: int | None = None) -> CountTable:
    """Representation counts of the seven-point plane over each field."""
    allowed = {2, 3, 4, 5, 7, 8, 9}
    qs = list(q_list)
    bad = [q for q in qs if q not in allowed]
    if bad:
        raise BadParams(f"field orders outside the demo range: {bad}")
    M = fano()
    return CountTable(
        label="XM:fano:s=3",
        counts={q: count_X(M, 3, q, budget=budget) for q in qs},
    )


# ---------------------------------------------------------------------------
# projective-plane arithmetic gadgets


@dataclass
class VonStaudtReport:
    q: int
    pairs_checked: int
    failures: list
    skipped: list

    def __bool__(self) -> bool:
        return not self.failures


def von_staudt_check(field: FieldSpec) -> VonStaudtReport:
    """Run the ruler constructions for addition, negation, and
    multiplication in the projective plane over the field and compare
    against the field's own arithmetic for every pair of scalars.

    Points and lines are index triples; joins and meets are cross products.
    A degenerate instance (coincident points or lines, which the
    constructions never produce from a proper frame) is recorded as skipped
    rather than failed.
    """
    if field.q > 9:
        raise TooLarge(f"gadget check capped at q = 9, got {field.q}")
    add = field.add_table
    mul = field.mul_table
    neg = field.neg_table

    def sub(a: int, b: int) -> int:
        return add[a][neg[b]]

    def cross(a, b):
        return (
            sub(mul[a[1]][b[2]], mul[a[2]][b[1]]),
            sub(mul[a[2]][b[0]], mul[a[0]][b[2]]),
            sub(mul[a[0]][b[1]], mul[a[1]][b[0]]),
        )

    def normalize(p):
        # scale so the last nonzero coordinate becomes 1; affine points
        # (x, 0, 1) then compare literally against embed()
        for c in reversed(p):
            if c != 0:
                scale = mul[field.inv_table[c]]
                return tuple(scale[x] for x in p)
        return None

    one = field.index(field.one)
    e1 = (one, 0, 0)
    e2 = (0, one, 0)
    e3 = (0, 0, one)
    u = (one, one, one)

    skipped: list = []
    failures: list = []

    def join(p, pp, tag):
        if p == pp:
            skipped.append((tag, "coincident points"))
            return None
        out = cross(p, pp)
        if out == (0, 0, 0):
            skipped.append((tag, "dependent points"))
            return None
        return out

    meet = join  # same cross product, lines for points

    xaxis = join(e3, e1, "frame")
    horizon = join(u, e1, "frame")
    yaxis = join(e3, e2, "frame")
    infline = join(e1, e2, "frame")
    a1 = normalize(meet(horizon, yaxis, "frame"))
    unitx = normalize(meet(xaxis, join(u, e2, "frame"), "frame"))
    assert a1 == (0, one, one) and unitx == (one, 0, one)

    def embed(x: int):
        return (x, 0, one)

    def run_add(x: int, xp: int):
        tag = ("add", x, xp)
        p, pp = embed(x), embed(xp)
        vert = join(pp, e2, tag)
        if vert is None:
            return None
        b = meet(horizon, vert, tag)
        line_m = join(a1, p, tag)
        if b is None or line_m is None:
            return None
        minf = meet(line_m, infline, tag)
        if minf is None:
            return None
        bp = normalize(b)
        minfp = normalize(minf)
        line_mp = join(bp, minfp, tag)
        if line_mp is None:
            return None
        out = meet(line_mp, xaxis, tag)
        return None if out is None else normalize(out)

    def run_neg(x: int):
        tag = ("neg", x)
        p = embed(x)
        d = join(p, a1, tag)
        if d is None:
            return None
        dinf = meet(d, infline, tag)
        if dinf is None:
            return None
        g = join(e3, normalize(dinf), tag)
        if g is None:
            return None
        h = meet(g, horizon, tag)
        if h is None:
            return None
        vert = join(normalize(h), e2, tag)
        if vert is None:
            return None
        out = meet(vert, xaxis, tag)
        return None if out is None else normalize(out)

    def run_mul(x: int, xp: int):
        tag = ("mul", x, xp)
        j = join(unitx, a1, tag)
        if j is None:
            return None
        jinf = meet(j, infline, tag)
        if jinf is None:
            return None
        through = join(embed(xp), normalize(jinf), tag)
        if through is None:
            return None
        yp = meet(through, yaxis, tag)
        if yp is None:
            return None
        k = join(a1, embed(x), tag)
        if k is None:
            return None
        kinf = meet(k, infline, tag)
        if kinf is None:
            return None
        final = join(normalize(yp), normalize(kinf), tag)
        if final is None:
            return None
        out = meet(final, xaxis, tag)
        return None if out is None else normalize(out)

    pairs = 0
    for x in range(field.q):
        got = run_neg(x)
        if got is not None and got != embed(neg[x]):
            failures.append((("neg", x), got, embed(neg[x])))
        for xp in range(field.q):
            pairs += 1
            got = run_add(x, xp)
            if got is not None and got != embed(add[x][xp]):
                failures.append((("add", x, xp), got, embed(add[x][xp])))
            got = run_mul(x, xp)
            if got is not None and got != embed(mul[x][xp]):
                failures.append((("mul", x, xp), got, embed(mul[x][xp])))
    return VonStaudtReport(
        q=field.q, pairs_checked=pairs, failures=failures, skipped=skipped
    )


# ---------------------------------------------------------------------------
# text formats


def matroid_to_text(matroid: Matroid) -> str:
    lines = [str(matroid.m)]
    lines += [str(matroid.ranks[mask]) for mask in range(1 << matroid.m)]
    return "\n".join(lines) + "\n"


def matroid_from_text(text: str) -> Matroid:
    rows = [ln.strip() for ln in text.splitlines()]
    rows = [ln for ln in rows if ln and not ln.startswith("#")]
    if not rows:
        raise ParseError("empty matroid description")
    head = rows[0].split()
    if head[0] == "vector":
        if len(head) != 4:
            raise ParseError("vector header needs: vector q count dim")
        try:
            q, count, dim = (int(t) for t in head[1:])
        except ValueError as exc:
            raise ParseError(f"bad vector header {rows[0]!r}") from exc
        field = make_field(q)
        if len(rows) != 1 + count:
            raise ParseError(f"expected {count} vector lines, got {len(rows) - 1}")
        cols = []
        for ln in rows[1:]:
            try:
                vec = [int(t) for t in ln.split()]
            except ValueError as exc:
                raise ParseError(f"bad vector line {ln!r}") from exc
            if len(vec) != dim:
                raise ParseError(f"vector {ln!r} does not have dimension {dim}")
            for c in vec:
                if not 0 <= c < q:
                    raise ParseError(f"entry {c} is not a field element index")
            cols.append(vec)
        return vector_matroid(field, cols)
    try:
        m = int(head[0])
    except ValueError as exc:
        raise ParseError(f"bad ground-set size {head[0]!r}") from exc
    body = []
    for ln in rows[1:]:
        body.extend(ln.split())
    if len(body) != 1 << m:
        raise ParseError(f"expected {1 << m} rank entries, got {len(body)}")
    try:
        ranks = tuple(int(t) for t in body)
    except ValueError as exc:
        raise ParseError("rank entries must be integers") from exc
    matroid = Matroid(m, ranks)
    if not validate_axioms(matroid):
        raise ParseError("rank table violates the matroid rank axioms")
    return matroid
