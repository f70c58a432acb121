"""Matroids as explicit rank tables over a small ground set.

Provides axiom validation, matroids of vector configurations, exact counts of
the maps into F_q^s whose span dimensions realize a given rank table, and the
projective-plane constructions that encode field addition and multiplication
as incidence conditions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .counting import CountTable, count_invertible, stats
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
            if mask < 0 or mask >> self.ground:
                raise BadParams(f"subset mask {mask} out of range")
            if need < 0:
                raise BadParams(f"required dimension must be nonnegative, got {need}")
            if mask in seen:
                raise BadParams(f"duplicate subset mask {mask}")
            seen.add(mask)


_AXIOM_CAP = 12


def validate_axioms(matroid: Matroid) -> bool:
    """Check of the rank axioms in their local form, equivalent to the usual
    ones for integer functions (Oxley, Matroid Theory, section 1.3): the
    empty set has rank 0, adding one element raises the rank by 0 or 1, and
    if adding x and adding y each leave the rank of X unchanged, so does
    adding both."""
    if matroid.m > _AXIOM_CAP:
        raise TooLarge(
            f"axiom validation capped at {_AXIOM_CAP} elements, got {matroid.m}"
        )
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


def _greedy_basis(matroid: Matroid, mask: int) -> list[int]:
    """Elements of the mask, lowest first, that raise the rank."""
    basis = []
    cur = 0
    for e in indices_from_mask(mask):
        if matroid.ranks[cur | (1 << e)] > matroid.ranks[cur]:
            basis.append(e)
            cur |= 1 << e
    return basis


# field entries one chunk of the representation search holds: per frontier
# row its minors and form coefficients, per candidate row (frontier row times
# candidate line) its form values and grown prefix
_X_CHUNK = 1 << 18


def _membership_plan(matroid: Matroid, reps, gen: int | None, pos: dict[int, int], s: int):
    """One level's constraint sets as linear forms on the candidate vector.

    v in F_q^s lies in the span of k independent rows B exactly when every
    (k+1)-minor of [B; v] vanishes.  Expanded along v, the minor on the
    columns S = (S_0 < ... < S_k) is a linear form in v whose coefficient at
    S_i is (-1)^i times the k-minor of B on S minus S_i.  B is a basis of
    the rep picked greedily by rank, as prefix positions.

    Some sets hold for every candidate and get no forms: a rep of rank 0
    (a candidate is zero exactly when the element is a loop), of rank s
    (it spans everything), or one that must hold the vector and whose
    closure contains the generator (the candidates' span lies in its span); an element with a rep that must
    hold it has a generator.

    Per frontier row the coefficients are slots of one table: slot 0 is
    zero, and each rank-k group of R reps appends its R x M k-minors (one
    per k-column set) and then their negatives.  Returns the groups as
    (k, (R, k) basis positions, (M, k) column sets), the (T, s) slot index
    of every form, the first form of each tested rep, and those reps'
    must-be-inside flags."""
    import numpy as np

    groups: dict[int, tuple[list, list]] = {}
    for rep, inside in reps:
        k = matroid.ranks[rep]
        if k == 0 or k >= s or (inside and gen & ~matroid.closure(rep) == 0):
            continue
        group = groups.setdefault(k, ([], []))
        group[0].append([pos[x] for x in _greedy_basis(matroid, rep)])
        group[1].append(inside)
    minor_groups = []
    slots = 1
    forms: list[list[int]] = []
    first: list[int] = []
    flags: list[bool] = []
    for k, (bases, insides) in sorted(groups.items()):
        cols = list(combinations(range(s), k))
        where = {c: i for i, c in enumerate(cols)}
        R, M = len(bases), len(cols)
        minor_groups.append((k, np.array(bases, dtype=np.intp), np.array(cols, dtype=np.intp)))
        for r, inside in enumerate(insides):
            first.append(len(forms))
            flags.append(inside)
            for S in combinations(range(s), k + 1):
                row = [0] * s
                for i, j in enumerate(S):
                    row[j] = slots + (i % 2) * R * M + r * M + where[S[:i] + S[i + 1 :]]
                forms.append(row)
        slots += 2 * R * M
    return (
        minor_groups,
        np.array(forms, dtype=np.intp).reshape(len(forms), s),
        np.array(first, dtype=np.intp),
        np.array(flags, dtype=bool),
    )


def _frame_element(matroid: Matroid, basis: list[int]) -> int | None:
    """The first element outside the basis B with rank(B - b + f) = |B| for
    every b in B: its coordinates over B are all nonzero, so B and f form a
    projective frame.  None for an empty basis or when no element
    qualifies, as in a direct sum or a matroid with a coloop."""
    if not basis:
        return None
    full = sum(1 << b for b in basis)
    for e in range(matroid.m):
        if not full >> e & 1 and all(
            matroid.ranks[full ^ (1 << b) | (1 << e)] == len(basis) for b in basis
        ):
            return e
    return None


def _search_plan(matroid: Matroid, s: int):
    """Everything count_X needs that does not depend on q.  The search
    order is the greedy basis, the frame element and the rest when s is the
    rank, and ground order otherwise.  Returns the pinned prefix as field
    indices, the exponent of q - 1 in the count (one per scaled element,
    s - 1 more for a frame), and per searched level the prefix positions of
    a basis of the candidate space (None for all of F_q^s), its dimension,
    the field entries a chunk holds per frontier row and per candidate row
    (see _X_CHUNK), and the membership plan of the level's constraint
    sets."""
    import numpy as np

    basis = _greedy_basis(matroid, (1 << matroid.m) - 1) if s == matroid.rank else []
    frame = _frame_element(matroid, basis)
    fixed = basis + ([] if frame is None else [frame])
    order = fixed + [e for e in range(matroid.m) if e not in set(fixed)]
    scaled = sum(1 for e in order[len(basis) :] if matroid.ranks[1 << e])
    if frame is not None:
        scaled += s - 1
    # the unit vectors, then the all-ones vector (index 1 is the unit)
    start = np.ones((1, len(fixed), s), dtype=np.uint8)
    start[0, : len(basis)] = np.eye(s, dtype=np.uint8)[: len(basis)]

    pos = {e: t for t, e in enumerate(order)}
    levels = {}
    for t, (e, reps, gen) in enumerate(_level_constraints(matroid, order)):
        if t < len(fixed):
            # pinned, no node: a basis element is independent of every
            # prefix subset, and the frame element lies in the span of a
            # prefix subset only when that subset is the whole basis
            continue
        gen_rows = None if gen is None else [pos[x] for x in _greedy_basis(matroid, gen)]
        d = s if gen is None else len(gen_rows)
        membership = _membership_plan(matroid, reps, gen, pos, s)
        minor_groups, forms = membership[:2]
        row_cells = forms.size + sum(b.size * len(c) * k for k, b, c in minor_groups)
        cand_cells = max(1, len(forms) + (t + 1) * s)
        levels[t] = (gen_rows, d, row_cells, cand_cells, membership)
    return start, scaled, levels


def count_X(matroid: Matroid, s: int | None = None, q: int = 2) -> int:
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
    coefficient over a basis of its candidate space is one is tried, and
    the result is multiplied by q - 1 per such element.  A loop takes the
    zero vector, which no other element can.

    With s equal to the rank the search is also normalized by a projective
    frame (Oxley, Matroid Theory, section 6.4): when some element f has
    every basis coordinate nonzero (_frame_element), the diagonal matrices
    and the scalings of the basis vectors carry its (q - 1)^s possible
    vectors onto one another, so f is pinned to the all-ones vector and the
    count gains (q - 1)^(s - 1) beside f's own q - 1.  A matroid with no
    such element searches unpinned past the basis, and a scan with s above
    the rank pins nothing.

    The order, the pinned prefix and every level's constraints are built
    once per run and (matroid, s) by _search_plan, through stats.memoized;
    only the number of lines per level depends on q.

    The search goes level by level over a frontier of surviving prefixes,
    depth-first in chunks of at most _X_CHUNK field entries; a frontier row
    whose lines overflow a chunk is split over line slices.  A chunk's
    candidates meet every constraint set of their level at once: the sets
    become the linear forms of _membership_plan, read with one gather from
    a table of minors and evaluated with one VecField.dot.  The ledger
    counts the candidates, one node per (prefix, line) pair.
    """
    if s is None:
        s = matroid.rank
    if s < 0:
        raise BadParams(f"ambient dimension must be nonnegative, got {s}")
    if matroid.rank > s:
        return 0
    if matroid.m == 0:
        return 1
    import numpy as np

    from .vecops import VecField, projective_points

    vf = VecField(make_field(q))
    limit = stats.budget
    # above the rank nothing is pinned, so the first non-loop element visits
    # all (q^s - 1)/(q - 1) lines: refuse that before building the plan
    if s > matroid.rank > 0 and (q**s - 1) // (q - 1) > limit:
        stats.evaluations += limit + 1
        raise BudgetExceeded(limit + 1, limit, "representation scan")
    start, scaled, levels = stats.memoized(
        ("XM plan", matroid.ranks, s), lambda: _search_plan(matroid, s)
    )

    def extend(t: int, rows, c0: int, c1: int):
        """The prefixes rows + one candidate of lines [c0, c1) that meet
        every constraint of level t."""
        gen_rows, d, *_, (minor_groups, forms, first, flags) = levels[t]
        F, C = len(rows), c1 - c0
        if gen_rows is None:
            cand = np.broadcast_to(projective_points(s, q, c0, c1), (F, C, s))
        else:
            cand = np.zeros((F, C, s), dtype=np.uint8)  # d = 0: the zero vector
            coeffs = projective_points(d, q, c0, c1)
            for i, r in enumerate(gen_rows):
                cand = vf.add(cand, vf.mul(coeffs[None, :, i, None], rows[:, None, r, :]))
        ok = np.ones((F, C), dtype=bool)
        if len(first):
            table = [np.zeros((F, 1), dtype=np.uint8)]
            for k, bases, cols in minor_groups:
                sub = rows[:, bases][..., cols].transpose(0, 1, 3, 2, 4)  # (F, R, M, k, k)
                minors = vf.det(sub.reshape(-1, k, k)).reshape(F, -1)
                table += [minors, vf.neg(minors)]
            coef = np.concatenate(table, axis=1)[:, forms]  # (F, T, s)
            vals = vf.dot(coef[:, None], cand[:, :, None])  # (F, C, T)
            outside = np.logical_or.reduceat(vals != 0, first, axis=2)
            ok = (outside != flags).all(axis=2)
        f_idx, c_idx = np.nonzero(ok)
        return np.concatenate([rows[f_idx], cand[f_idx, c_idx][:, None, :]], axis=1)

    stack = [(start.shape[1], start, 0)]
    found = 0
    visited = 0
    try:
        while stack:
            t, rows, c0 = stack.pop()
            if t == matroid.m:
                found += len(rows)
                continue
            d, row_cells, cand_cells = levels[t][1:4]
            lines = (q**d - 1) // (q - 1) if d else 1
            # every node of the entry is visited before the search ends, so
            # an entry over the budget is refused before any of it decodes
            if visited + len(rows) * (lines - c0) > limit:
                visited = limit + 1
                raise BudgetExceeded(visited, limit, "representation scan")
            # all lines per row while one row fits a chunk, else line slices
            per_row = max(1, min(lines, (_X_CHUNK - row_cells) // cand_cells))
            take = max(1, _X_CHUNK // (row_cells + per_row * cand_cells))
            c1 = min(lines, c0 + per_row)
            if c1 < lines:  # more lines of the same (single) row
                stack.append((t, rows, c1))
            elif len(rows) > take:
                stack.append((t, rows[take:], 0))
            rows = rows[:take]
            visited += len(rows) * (c1 - c0)
            grown = extend(t, rows, c0, c1)
            if len(grown):
                stack.append((t + 1, grown, 0))
    finally:
        stats.evaluations += visited
    count = found * (q - 1) ** scaled
    if s == matroid.rank:
        count *= count_invertible(s, q)
    return count


def count_X_oracle(matroid: Matroid, s: int | None = None, q: int = 2) -> int:
    """Independent reference count: depth-first over all vectors for each
    element in ground order, checking the span dimension of every subset of
    the assigned prefix directly."""
    if s is None:
        s = matroid.rank
    field = make_field(q)
    m = matroid.m
    limit = stats.budget
    visited = 0
    vecs: list[list[int]] = []

    def check_new(t: int) -> bool:
        # every subset containing element t; smaller subsets were checked
        for sub in range(1 << t):
            mask = sub | (1 << t)
            rows = [vecs[x] for x in indices_from_mask(mask)]
            if rank_from_index_rows(field, rows) != matroid.ranks[mask]:
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
        stats.evaluations += visited


# the field orders of the counterexample: every prime power up to 9
FANO_DEMO_QS = (2, 3, 4, 5, 7, 8, 9)


def fano_demo(q_list) -> CountTable:
    """Representation counts of the seven-point plane over each field of
    FANO_DEMO_QS asked for."""
    qs = list(q_list)
    bad = [q for q in qs if q not in FANO_DEMO_QS]
    if bad:
        raise BadParams(f"field orders outside the demo range: {bad}")
    M = fano()
    return CountTable(
        label="XM:fano:s=3",
        counts={q: count_X(M, 3, q) for q in qs},
    )


# ---------------------------------------------------------------------------
# projective-plane arithmetic gadgets


@dataclass
class VonStaudtReport:
    q: int
    pairs_checked: int
    failures: list

    def __bool__(self) -> bool:
        return not self.failures


def von_staudt_check(field: FieldSpec) -> VonStaudtReport:
    """Run the ruler constructions for addition, negation, and
    multiplication in the projective plane over the field and compare
    against the field's own arithmetic for every pair of scalars.

    Points and lines are index triples; joins and meets are cross products.
    A frame that the tables break is one recorded failure, ("frame",), and
    no pair is checked.  From a sound frame every join is of two distinct
    points, so a degenerate step (a zero triple) only comes from broken
    field tables, and it ends in a recorded failure like any other wrong
    answer.
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

    join = meet = cross  # the line through two points, the point on two lines

    def normalize(p):
        # scale so the last nonzero coordinate becomes 1; affine points
        # (x, 0, 1) then compare literally against embed(); the zero triple
        # stays as it is
        for c in reversed(p):
            if c != 0:
                scale = mul[field.inv_table[c]]
                return tuple(scale[x] for x in p)
        return p

    e1 = (1, 0, 0)
    e2 = (0, 1, 0)
    e3 = (0, 0, 1)
    u = (1, 1, 1)

    xaxis = join(e3, e1)
    horizon = join(u, e1)
    yaxis = join(e3, e2)
    infline = join(e1, e2)
    a1 = normalize(meet(horizon, yaxis))
    unitx = normalize(meet(xaxis, join(u, e2)))
    frame = ((0, 1, 1), (1, 0, 1))
    if (a1, unitx) != frame:
        return VonStaudtReport(
            q=field.q, pairs_checked=0, failures=[(("frame",), (a1, unitx), frame)]
        )

    def embed(x: int):
        return (x, 0, 1)

    def run_add(x: int, xp: int):
        b = meet(horizon, join(embed(xp), e2))
        minf = meet(join(a1, embed(x)), infline)
        line_mp = join(normalize(b), normalize(minf))
        return normalize(meet(line_mp, xaxis))

    def run_neg(x: int):
        dinf = meet(join(embed(x), a1), infline)
        h = meet(join(e3, normalize(dinf)), horizon)
        return normalize(meet(join(normalize(h), e2), xaxis))

    def run_mul(x: int, xp: int):
        jinf = meet(join(unitx, a1), infline)
        yp = meet(join(embed(xp), normalize(jinf)), yaxis)
        kinf = meet(join(a1, embed(x)), infline)
        final = join(normalize(yp), normalize(kinf))
        return normalize(meet(final, xaxis))

    failures: list = []
    pairs = 0
    for x in range(field.q):
        got = run_neg(x)
        if got != embed(neg[x]):
            failures.append((("neg", x), got, embed(neg[x])))
        for xp in range(field.q):
            pairs += 1
            got = run_add(x, xp)
            if got != embed(add[x][xp]):
                failures.append((("add", x, xp), got, embed(add[x][xp])))
            got = run_mul(x, xp)
            if got != embed(mul[x][xp]):
                failures.append((("mul", x, xp), got, embed(mul[x][xp])))
    return VonStaudtReport(q=field.q, pairs_checked=pairs, failures=failures)


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
    # checked before the table's 2^m length is computed
    if m < 0:
        raise ParseError(f"ground-set size must be nonnegative, got {m}")
    if m > _AXIOM_CAP:
        raise TooLarge(f"axiom validation capped at {_AXIOM_CAP} elements, got {m}")
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
