"""Multilinear polynomials in edge variables, and symbolic Laplacians.

Monomials are edge bitmasks, coefficients are integers.  Every polynomial a
graph produces here (spanning-tree sums, Laplacian minors) is multilinear, so
products annihilate squares: multiplication is performed in the quotient ring
Z[x_e]/(x_e^2).  The quotient map is a ring homomorphism and matrix entries
have degree <= 1 in each variable, so a determinant whose true value is
multilinear (the only kind built here) is computed exactly.
"""

from __future__ import annotations

import functools
import itertools

from .errors import BadParams, LengthMismatch, TooLarge
from .graphs import Graph

DET_LIMIT = 8


class MultilinearPoly:
    """Immutable by convention: terms maps edge bitmask -> nonzero int."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[int, int] | None = None):
        self.nvars = nvars
        clean = {}
        if terms:
            limit = 1 << nvars
            for mask, coeff in terms.items():
                if coeff == 0:
                    continue
                if not 0 <= mask < limit:
                    raise BadParams(f"monomial {mask:#x} outside {nvars} variables")
                clean[mask] = coeff
        self.terms = clean

    @classmethod
    def zero(cls, nvars: int) -> "MultilinearPoly":
        return cls(nvars, {})

    @classmethod
    def const(cls, nvars: int, c: int) -> "MultilinearPoly":
        return cls(nvars, {0: c})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "MultilinearPoly":
        if not 0 <= i < nvars:
            raise BadParams(f"variable {i} outside 0..{nvars - 1}")
        return cls(nvars, {1 << i: 1})

    # -- ring operations -------------------------------------------------

    def _same_ring(self, other: "MultilinearPoly") -> None:
        if self.nvars != other.nvars:
            raise LengthMismatch(
                f"mixing polynomials in {self.nvars} and {other.nvars} variables"
            )

    def __add__(self, other: "MultilinearPoly") -> "MultilinearPoly":
        self._same_ring(other)
        out = dict(self.terms)
        for mask, coeff in other.terms.items():
            new = out.get(mask, 0) + coeff
            if new:
                out[mask] = new
            else:
                out.pop(mask, None)
        return MultilinearPoly(self.nvars, out)

    def __neg__(self) -> "MultilinearPoly":
        return MultilinearPoly(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "MultilinearPoly") -> "MultilinearPoly":
        return self + (-other)

    def __mul__(self, other: "MultilinearPoly") -> "MultilinearPoly":
        self._same_ring(other)
        out: dict[int, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                if m1 & m2:
                    continue  # square of a variable: zero in the quotient
                mask = m1 | m2
                new = out.get(mask, 0) + c1 * c2
                if new:
                    out[mask] = new
                else:
                    out.pop(mask, None)
        return MultilinearPoly(self.nvars, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultilinearPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- inspection -------------------------------------------------------

    def __repr__(self) -> str:
        return f"MultilinearPoly({self.nvars}, {self.format()})"

    def format(self, var: str = "x") -> str:
        if not self.terms:
            return "0"
        parts = []
        for mask in sorted(self.terms, key=lambda m: (m.bit_count(), m)):
            coeff = self.terms[mask]
            names = "*".join(
                f"{var}_{i}" for i in range(self.nvars) if mask >> i & 1
            )
            if not names:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = names
            else:
                body = f"{abs(coeff)}*{names}"
            sign = "-" if coeff < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


# -- graph polynomials -------------------------------------------------------


def _spanning_trees(g: Graph) -> list[int]:
    """g.spanning_trees(), listed once per run: keyed on g itself, whose
    edge order the tree bitmasks depend on."""
    from .counting import stats  # counting imports this module

    return stats.memoized(("spanning trees", g), g.spanning_trees)


def spanning_tree_poly(g: Graph) -> MultilinearPoly:
    """Sum over spanning trees of the product of the tree's edge variables.

    Zero when the graph is disconnected; the constant 1 for a single vertex.
    """
    return MultilinearPoly(g.m, {tree: 1 for tree in _spanning_trees(g)})


def tree_complement_poly(g: Graph) -> MultilinearPoly:
    """Sum over spanning trees of the product of the non-tree edge variables."""
    full = (1 << g.m) - 1
    return MultilinearPoly(g.m, {full ^ tree: 1 for tree in _spanning_trees(g)})


def laplacian(g: Graph) -> list[list[MultilinearPoly]]:
    """Weighted Laplacian rows in the edge variables; loops contribute nothing."""
    nvars = g.m
    rows = [[MultilinearPoly.zero(nvars) for _ in range(g.n)] for _ in range(g.n)]
    for i, (u, v) in enumerate(g.edges):
        if u == v:
            continue
        x = MultilinearPoly.variable(nvars, i)
        rows[u][u] = rows[u][u] + x
        rows[v][v] = rows[v][v] + x
        rows[u][v] = rows[u][v] - x
        rows[v][u] = rows[v][u] - x
    return rows


def reduced_laplacian(g: Graph) -> list[list[MultilinearPoly]]:
    """Laplacian with vertex 0's row and column struck out."""
    if g.n == 0:
        raise BadParams("reduced Laplacian needs at least one vertex")
    return [row[1:] for row in laplacian(g)[1:]]


@functools.cache
def _laplace_plan(n: int):
    """Laplace expansion steps for n x n determinants down the rows,
    smaller column sets first: (column mask, the row it expands along, its
    (column, remaining mask) terms of sign + and of sign -).  The minor on
    the last k rows and a k-column mask expands along its top row into
    minors on the last k - 1 rows; masks of one column are the last row's
    entries themselves and need no step."""
    steps = []
    for k in range(2, n + 1):
        for cols in itertools.combinations(range(n), k):
            mask = sum(1 << j for j in cols)
            terms = [(j, mask & ~(1 << j)) for j in cols]
            steps.append((mask, n - k, tuple(terms[0::2]), tuple(terms[1::2])))
    return tuple(steps)


def symbolic_det(rows: list[list[MultilinearPoly]], nvars: int) -> MultilinearPoly:
    """Exact determinant of a square matrix of polynomials in nvars
    variables, by walking _laplace_plan."""
    dim = len(rows)
    if dim > DET_LIMIT:
        raise TooLarge(f"symbolic determinant capped at dimension {DET_LIMIT}")
    if dim == 0:
        return MultilinearPoly.const(nvars, 1)
    minors = {1 << j: rows[dim - 1][j] for j in range(dim)}
    for mask, row, plus, minus in _laplace_plan(dim):
        total = MultilinearPoly.zero(nvars)
        for j, rest in plus:
            total = total + rows[row][j] * minors[rest]
        for j, rest in minus:
            total = total - rows[row][j] * minors[rest]
        minors[mask] = total
    return minors[(1 << dim) - 1]


def matrix_tree_check(g: Graph) -> bool:
    """det of the reduced Laplacian == spanning-tree polynomial, symbolically.
    The determinant's cap is checked first, then the (n - 1)-subsets of the
    non-loop edges that the tree listing tries are checked, not charged,
    against the budget, and only then are the trees and the Laplacian built."""
    from math import comb

    from .counting import stats  # counting imports this module

    if g.n - 1 > DET_LIMIT:
        raise TooLarge(f"symbolic determinant capped at dimension {DET_LIMIT}")
    candidates = sum(u != v for u, v in g.edges)
    stats.check(comb(candidates, max(g.n - 1, 0)), "spanning tree enumeration")
    trees = spanning_tree_poly(g)
    return symbolic_det(reduced_laplacian(g), g.m) == trees


def duality_check(g: Graph) -> bool:
    """Term-for-term complement duality between the two tree polynomials.

    Substituting 1/x_e and clearing the product of all edge variables maps
    one onto the other; on monomials that is complementation of the edge set.
    """
    p = tree_complement_poly(g)
    q = spanning_tree_poly(g)
    full = (1 << g.m) - 1
    flipped = {full ^ mask: coeff for mask, coeff in p.terms.items()}
    return flipped == q.terms
