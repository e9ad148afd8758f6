"""Shifted Legendre tables against sympy's exact Legendre polynomials."""

import numpy as np
import pytest
import sympy as sp
from numpy.testing import assert_allclose

from stmfem.basis1d import shifted_legendre, shifted_legendre_deriv

MAX_K = 6
X = np.concatenate([[0.0, 1.0], np.linspace(0.0, 1.0, 23)[1:-1], [0.123, 0.777]])


def exact_tables(k):
    """P~_j(x) = P_j(2x - 1) and its derivative at X for j <= k, evaluated
    exactly at the binary values of X and rounded once."""
    x = sp.Symbol("x")
    polys = [sp.Poly(sp.legendre(j, 2 * x - 1), x) for j in range(k + 1)]

    def table(ps):
        return np.array([[float(p.eval(sp.Rational(xi))) for p in ps]
                         for xi in X])

    return table(polys), table([p.diff(x) for p in polys])


@pytest.mark.parametrize("k", range(MAX_K + 1))
def test_values_and_derivatives_match_sympy(k):
    vals, ders = exact_tables(k)
    assert shifted_legendre(k, X).shape == (len(X), k + 1)
    assert shifted_legendre_deriv(k, X).shape == (len(X), k + 1)
    assert_allclose(shifted_legendre(k, X), vals, rtol=0, atol=1e-14)
    # P~_k' reaches 2 k (k + 1) / 2 = k (k + 1) at the endpoints
    assert_allclose(shifted_legendre_deriv(k, X), ders, rtol=0,
                    atol=1e-14 * max(1, k * (k + 1)))


@pytest.mark.parametrize("k", range(MAX_K + 1))
def test_reflection_is_a_sign_flip(k):
    # P~_j(1 - x) = (-1)^j P~_j(x): the flux space's edge reversal
    signs = (-1.0) ** np.arange(k + 1)
    assert_allclose(shifted_legendre(k, 1.0 - X), signs * shifted_legendre(k, X),
                    rtol=0, atol=1e-14)
    assert_allclose(shifted_legendre_deriv(k, 1.0 - X),
                    -signs * shifted_legendre_deriv(k, X),
                    rtol=0, atol=1e-14 * max(1, k * (k + 1)))
