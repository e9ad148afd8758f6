"""Gauss-Legendre rules on [0, 1] and their 2D tensor products on [0, 1]^2.

The n-point rule is numpy's `leggauss(n)` (the Golub-Welsch eigenvalue
method) mapped affinely to [0, 1]; it is exact for polynomials of degree
<= 2n - 1 and is the single source of quadrature points for temporal and
spatial integrals.
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

MAX_POINTS = 10


@dataclass(frozen=True)
class GaussRule1D:
    """An n-point Gauss-Legendre rule on [0, 1], points ascending."""

    points: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class TensorRule2D:
    """Tensor product of two rules on [0, 1]^2.

    Point k = iy * nx + ix runs with the x index fastest.
    """

    points: np.ndarray   # (nx * ny, 2)
    weights: np.ndarray  # (nx * ny,)


def gauss_legendre_unit(n):
    """n-point Gauss-Legendre rule on [0, 1]: t_i = (x_i + 1)/2, w_i / 2."""
    if not isinstance(n, (int, np.integer)) or n < 1 or n > MAX_POINTS:
        raise ValueError(f"rule size must be an integer in 1..{MAX_POINTS}, got {n!r}")
    x, w = leggauss(n)
    return GaussRule1D(points=(x + 1.0) / 2.0, weights=w / 2.0)


def tensor(rule_x, rule_y):
    """Tensor-product rule on [0, 1]^2 from two rules on [0, 1]."""
    X, Y = np.meshgrid(rule_x.points, rule_y.points)
    pts = np.column_stack([X.ravel(), Y.ravel()])
    wts = np.outer(rule_y.weights, rule_x.weights).ravel()
    return TensorRule2D(points=pts, weights=wts)


def tensor_unit(n):
    """Convenience n x n tensor rule on [0, 1]^2."""
    r = gauss_legendre_unit(n)
    return tensor(r, r)
