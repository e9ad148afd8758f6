"""Gauss-Legendre quadrature rules and their 2D tensor products.

Rules are exact by construction for polynomials of degree <= 2n - 1 and are
the single source of quadrature points for temporal and spatial integrals.
"""

from dataclasses import dataclass

import numpy as np

MAX_POINTS = 10


@dataclass(frozen=True)
class GaussRule1D:
    """An n-point Gauss-Legendre rule on [-1, 1] or [0, 1]."""

    points: np.ndarray
    weights: np.ndarray
    interval: tuple


@dataclass(frozen=True)
class TensorRule2D:
    """Tensor product of two unit-interval rules on [0, 1]^2.

    Point k = iy * nx + ix runs with the x index fastest.
    """

    points: np.ndarray   # (nx * ny, 2)
    weights: np.ndarray  # (nx * ny,)


def _legendre_and_deriv(n, x):
    """P_n(x) and P_n'(x) by the three-term recurrence."""
    p0 = np.ones_like(x)
    p1 = x.copy()
    for k in range(1, n):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
    pn = p1 if n >= 1 else p0
    pprev = p0 if n >= 1 else np.zeros_like(x)
    dpn = n * (x * pn - pprev) / (x * x - 1.0) if n >= 1 else np.zeros_like(x)
    return pn, dpn


def gauss_legendre(n):
    """n-point Gauss-Legendre rule on [-1, 1].

    Roots of the degree-n Legendre polynomial found by Newton iteration from
    Chebyshev initial guesses; weights w_i = 2 / ((1 - x_i^2) P_n'(x_i)^2).
    """
    if not isinstance(n, (int, np.integer)) or n < 1 or n > MAX_POINTS:
        raise ValueError(f"rule size must be an integer in 1..{MAX_POINTS}, got {n!r}")
    i = np.arange(1, n + 1)
    x = np.cos(np.pi * (i - 0.25) / (n + 0.5))
    for _ in range(100):
        pn, dpn = _legendre_and_deriv(n, x)
        dx = pn / dpn
        x -= dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    _, dpn = _legendre_and_deriv(n, x)
    w = 2.0 / ((1.0 - x * x) * dpn * dpn)
    order = np.argsort(x)
    x, w = x[order], w[order]
    if n % 2 == 1:  # middle root is exactly zero by symmetry
        x[n // 2] = 0.0
    # enforce exact symmetry of the computed rule about the midpoint
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    return GaussRule1D(points=x, weights=w, interval=(-1.0, 1.0))


def map_to_unit(rule):
    """Affinely map a rule from [-1, 1] to [0, 1]: t_i = (x_i + 1)/2, w_i /= 2."""
    if rule.interval != (-1.0, 1.0):
        raise ValueError("expected a rule on [-1, 1]")
    return GaussRule1D(
        points=(rule.points + 1.0) / 2.0,
        weights=rule.weights / 2.0,
        interval=(0.0, 1.0),
    )


def gauss_legendre_unit(n):
    """n-point Gauss-Legendre rule on [0, 1]."""
    return map_to_unit(gauss_legendre(n))


def tensor(rule_x, rule_y):
    """Tensor-product rule on [0, 1]^2 from two unit-interval rules."""
    for r in (rule_x, rule_y):
        if r.interval != (0.0, 1.0):
            raise ValueError("tensor rules require factors on [0, 1]")
    X, Y = np.meshgrid(rule_x.points, rule_y.points)
    pts = np.column_stack([X.ravel(), Y.ravel()])
    wts = np.outer(rule_y.weights, rule_x.weights).ravel()
    return TensorRule2D(points=pts, weights=wts)


def tensor_unit(n):
    """Convenience n x n tensor rule on [0, 1]^2."""
    r = gauss_legendre_unit(n)
    return tensor(r, r)
