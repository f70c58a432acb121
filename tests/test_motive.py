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

Q = IntPoly.variable()
ONE = IntPoly.constant(1)
TWO = IntPoly.constant(2)


def test_intpoly_construction_and_normalization():
    assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPoly(()).is_zero()
    assert IntPoly((0,)).is_zero()
    assert IntPoly(()).degree == -1
    assert (Q * Q).degree == 2
    assert IntPoly.constant(5).coeffs == (5,)
    assert Q.coeffs == (0, 1)
    with pytest.raises(BadParams):
        IntPoly((1.5,))
    with pytest.raises(BadParams):
        IntPoly((1, None))


def test_intpoly_arithmetic_against_evaluation():
    a = Q * Q * Q - TWO * Q + ONE
    b = Q * Q + Q
    for x in range(-5, 6):
        assert (a + b).evaluate(x) == a.evaluate(x) + b.evaluate(x)
        assert (a - b).evaluate(x) == a.evaluate(x) - b.evaluate(x)
        assert (a * b).evaluate(x) == a.evaluate(x) * b.evaluate(x)
        assert (-a).evaluate(x) == -a.evaluate(x)


def test_intpoly_format():
    assert (Q * Q * Q - Q * Q).format() == "q^3 - q^2"
    assert IntPoly.constant(0).format() == "0"
    assert (-Q).format() == "-q"
    assert (Q * Q - IntPoly.constant(2)).format() == "q^2 - 2"
    assert ONE.format() == "1"
    assert (Q * Q * Q - Q * Q).format(var="t") == "t^3 - t^2"


def test_fit_recovers_polynomial_counts():
    table = CountTable("cycle", {q: q**3 - q**2 for q in (2, 3, 4, 5, 7, 8)})
    fitted = fit_polynomial(table, 3)
    assert isinstance(fitted, IntPoly)
    assert fitted == Q * Q * Q - Q * Q
    # a constant table fits at degree zero
    const = CountTable("c", {2: 7, 3: 7, 4: 7})
    assert fit_polynomial(const, 0) == IntPoly.constant(7)
    # extra degrees of freedom do not change an exact fit
    assert fit_polynomial(table, 4) == Q * Q * Q - Q * Q


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
