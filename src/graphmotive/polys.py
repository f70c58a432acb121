"""Multilinear polynomials in edge variables, and symbolic Laplacians.

Monomials are edge bitmasks, coefficients are integers.  Every polynomial a
graph produces here (spanning-tree sums, Laplacian minors) is multilinear, so
products annihilate squares: multiplication is performed in the quotient ring
Z[x_e]/(x_e^2).  The quotient map is a ring homomorphism and matrix entries
have degree <= 1 in each variable, so a determinant whose true value is
multilinear (the only kind built here) is computed exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import BadParams, LengthMismatch, TooLarge
from .ffield import FieldElem, FieldSpec
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

    def scale(self, c: int) -> "MultilinearPoly":
        return MultilinearPoly(self.nvars, {m: c * v for m, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultilinearPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- inspection -------------------------------------------------------

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(mask.bit_count() for mask in self.terms)

    def homogeneous_degree(self) -> int | None:
        degs = {mask.bit_count() for mask in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

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


def evaluate(
    poly: MultilinearPoly, field: FieldSpec, point: list[FieldElem]
) -> FieldElem:
    """Exact evaluation at a point of F_q^nvars."""
    if len(point) != poly.nvars:
        raise LengthMismatch(
            f"point has {len(point)} coordinates, polynomial has {poly.nvars}"
        )
    total = field.zero
    for mask, coeff in poly.terms.items():
        term = field.element_from_int(coeff)
        i = 0
        m = mask
        while m:
            if m & 1:
                term = field.mul(term, point[i])
            m >>= 1
            i += 1
        total = field.add(total, term)
    return total


# -- graph polynomials -------------------------------------------------------


def spanning_tree_poly(g: Graph) -> MultilinearPoly:
    """Sum over spanning trees of the product of the tree's edge variables.

    Zero when the graph is disconnected; the constant 1 for a single vertex.
    """
    return MultilinearPoly(g.m, {tree: 1 for tree in g.spanning_trees()})


def tree_complement_poly(g: Graph) -> MultilinearPoly:
    """Sum over spanning trees of the product of the non-tree edge variables."""
    full = (1 << g.m) - 1
    return MultilinearPoly(g.m, {full ^ tree: 1 for tree in g.spanning_trees()})


@dataclass
class SymbolicMatrix:
    dim: int
    entries: list[list[MultilinearPoly]] = field(repr=False)

    def at(self, i: int, j: int) -> MultilinearPoly:
        return self.entries[i][j]


def laplacian(g: Graph) -> SymbolicMatrix:
    """Weighted Laplacian in the edge variables; loops contribute nothing."""
    nvars = g.m
    entries = [
        [MultilinearPoly.zero(nvars) for _ in range(g.n)] for _ in range(g.n)
    ]
    for i, (u, v) in enumerate(g.edges):
        if u == v:
            continue
        x = MultilinearPoly.variable(nvars, i)
        entries[u][u] = entries[u][u] + x
        entries[v][v] = entries[v][v] + x
        entries[u][v] = entries[u][v] - x
        entries[v][u] = entries[v][u] - x
    return SymbolicMatrix(g.n, entries)


def reduced_laplacian(g: Graph, strike: int = 0) -> SymbolicMatrix:
    """Laplacian with one vertex's row and column removed (vertex 0 by default)."""
    if g.n == 0:
        raise BadParams("reduced Laplacian needs at least one vertex")
    if not 0 <= strike < g.n:
        raise BadParams(f"vertex {strike} outside 0..{g.n - 1}")
    lap = laplacian(g)
    keep = [v for v in range(g.n) if v != strike]
    entries = [[lap.at(i, j) for j in keep] for i in keep]
    return SymbolicMatrix(g.n - 1, entries)


def symbolic_det(m: SymbolicMatrix) -> MultilinearPoly:
    """Exact determinant by Laplace expansion, memoized on column subsets."""
    dim = m.dim
    if dim > DET_LIMIT:
        raise TooLarge(f"symbolic determinant capped at dimension {DET_LIMIT}")
    if dim == 0:
        return MultilinearPoly.const(0, 1)
    nvars = m.entries[0][0].nvars
    memo: dict[int, MultilinearPoly] = {}

    def expand(colmask: int) -> MultilinearPoly:
        # determinant of the submatrix on the last k rows and the columns
        # in colmask, where k = popcount(colmask)
        if colmask == 0:
            return MultilinearPoly.const(nvars, 1)
        cached = memo.get(colmask)
        if cached is not None:
            return cached
        row = dim - colmask.bit_count()
        total = MultilinearPoly.zero(nvars)
        sign = 1
        for j in range(dim):
            if not colmask >> j & 1:
                continue
            entry = m.entries[row][j]
            if entry:
                sub = expand(colmask & ~(1 << j))
                piece = entry * sub
                total = total + (piece if sign > 0 else -piece)
            sign = -sign
        memo[colmask] = total
        return total

    return expand((1 << dim) - 1)


def matrix_tree_check(g: Graph) -> bool:
    """det of the reduced Laplacian == spanning-tree polynomial, symbolically."""
    return symbolic_det(reduced_laplacian(g)) == spanning_tree_poly(g)


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
