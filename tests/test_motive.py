"""Integer polynomials and exact fitting of count tables."""

from __future__ import annotations

import pytest

from graphmotive import (
    BadParams,
    CountTable,
    InsufficientPoints,
    IntPoly,
    NoFit,
    fit_polynomial,
)


def test_intpoly_construction_and_normalization():
    assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPoly(()).coeffs == ()
    assert IntPoly((0,)).coeffs == ()
    assert IntPoly((0, 0, 1)) == IntPoly((0, 0, 1, 0))
    assert IntPoly((5,)).coeffs == (5,)
    assert IntPoly((1, -2, 0, 1)).evaluate(3) == 22
    with pytest.raises(BadParams):
        IntPoly((1.5,))
    with pytest.raises(BadParams):
        IntPoly((1, None))


def test_intpoly_format():
    assert IntPoly((0, 0, -1, 1)).format() == "q^3 - q^2"
    assert IntPoly((0,)).format() == "0"
    assert IntPoly((0, -1)).format() == "-q"
    assert IntPoly((-2, 0, 1)).format() == "q^2 - 2"
    assert IntPoly((1,)).format() == "1"
    assert IntPoly((0, 0, -1, 1)).format(var="t") == "t^3 - t^2"


def test_fit_recovers_polynomial_counts():
    table = CountTable("cycle", {q: q**3 - q**2 for q in (2, 3, 4, 5, 7, 8)})
    fitted = fit_polynomial(table, 3)
    assert isinstance(fitted, IntPoly)
    assert fitted == IntPoly((0, 0, -1, 1))
    # a constant table fits at degree zero
    const = CountTable("c", {2: 7, 3: 7, 4: 7})
    assert fit_polynomial(const, 0) == IntPoly((7,))
    # extra degrees of freedom do not change an exact fit
    assert fit_polynomial(table, 4) == IntPoly((0, 0, -1, 1))


def test_fit_failure_modes():
    # holdout disagreement: floor(q/2) is not a polynomial
    bad = CountTable("floor", {2: 1, 3: 2, 4: 2, 5: 3, 7: 4})
    r = fit_polynomial(bad, 1)
    assert isinstance(r, NoFit) and not r
    assert r.reason == "mismatch" and r.witness_q == 4
    assert "predicts 3 at q=4" in r.detail
    # interpolant with fractional coefficients, caught before any holdout
    frac = CountTable("half", {2: 1, 3: 2, 4: 4, 5: 7})
    r2 = fit_polynomial(frac, 2)
    assert isinstance(r2, NoFit)
    assert r2.reason == "coefficients" and r2.witness_q == 5
    with pytest.raises(InsufficientPoints):
        fit_polynomial(CountTable("tiny", {2: 1, 3: 2}), 1)
    with pytest.raises(BadParams):
        fit_polynomial(bad, -1)
