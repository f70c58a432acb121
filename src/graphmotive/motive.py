"""Exact bookkeeping for counts as functions of the field order q: integer
polynomials and Lagrange fitting of count tables.

A count table fits when the interpolant of its first points has integer
coefficients and reproduces every remaining point; otherwise the fit says
which of the two failed.  Everything is exact integer / rational
arithmetic; floating point never appears.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .counting import CountTable
from .errors import BadParams, InsufficientPoints


@dataclass(frozen=True)
class IntPoly:
    """Integer polynomial, coefficients low degree first, canonical (no
    trailing zeros; the zero polynomial is the empty tuple)."""

    coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        trimmed = list(self.coeffs)
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        for c in trimmed:
            if not isinstance(c, int):
                raise BadParams(f"coefficients must be integers, got {c!r}")
        object.__setattr__(self, "coeffs", tuple(trimmed))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def evaluate(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "IntPoly") -> "IntPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly(
            tuple(
                (self.coeffs[i] if i < len(self.coeffs) else 0)
                + (other.coeffs[i] if i < len(other.coeffs) else 0)
                for i in range(n)
            )
        )

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        if self.is_zero() or other.is_zero():
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPoly(tuple(out))

    def format(self, var: str = "q") -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                body = str(abs(c))
            else:
                head = "" if abs(c) == 1 else f"{abs(c)}*"
                body = f"{head}{var}" + (f"^{i}" if i > 1 else "")
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def to_json(self) -> str:
        return json.dumps({"coeffs": list(self.coeffs)})

    @staticmethod
    def from_json(text: str) -> "IntPoly":
        data = json.loads(text)
        return IntPoly(tuple(int(c) for c in data["coeffs"]))

    @staticmethod
    def constant(c: int) -> "IntPoly":
        return IntPoly((c,))

    @staticmethod
    def variable() -> "IntPoly":
        return IntPoly((0, 1))


# ---------------------------------------------------------------------------
# fitting count tables


@dataclass(frozen=True)
class NoFit:
    """Fit failure: either a non-integer interpolant or a holdout point the
    interpolant misses; witness_q is the first failing field order when one
    exists."""

    reason: str
    witness_q: int | None
    detail: str

    def __bool__(self) -> bool:
        return False


def _lagrange(points: list[tuple[int, int]]) -> list[Fraction]:
    """Interpolating polynomial through the points, coefficients low-first."""
    coeffs = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        # basis polynomial for node i, expanded incrementally
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            denom *= xi - xj
            new = [Fraction(0)] * (len(basis) + 1)
            for d, c in enumerate(basis):
                new[d] -= c * xj
                new[d + 1] += c
            basis = new
        scale = Fraction(yi) / denom
        for d, c in enumerate(basis):
            coeffs[d] += c * scale
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def fit_polynomial(table: CountTable, max_deg: int):
    """Interpolate the table's first max_deg+1 points exactly; accept only
    an integer-coefficient polynomial that also reproduces every remaining
    point.  Returns IntPoly or NoFit."""
    if max_deg < 0:
        raise BadParams(f"degree bound must be nonnegative, got {max_deg}")
    qs = table.qs()
    if len(qs) < max_deg + 2:
        raise InsufficientPoints(
            f"need at least {max_deg + 2} field orders, have {len(qs)}"
        )
    nodes = qs[: max_deg + 1]
    holdout = qs[max_deg + 1 :]
    coeffs = _lagrange([(x, table.counts[x]) for x in nodes])
    if any(c.denominator != 1 for c in coeffs):
        return NoFit(
            reason="coefficients",
            witness_q=holdout[0] if holdout else None,
            detail="interpolant has non-integer coefficients",
        )
    poly = IntPoly(tuple(int(c) for c in coeffs))
    for x in holdout:
        if poly.evaluate(x) != table.counts[x]:
            return NoFit(
                reason="mismatch",
                witness_q=x,
                detail=(
                    f"interpolant of the first {max_deg + 1} points predicts "
                    f"{poly.evaluate(x)} at q={x}, table has {table.counts[x]}"
                ),
            )
    return poly
