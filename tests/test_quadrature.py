import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from stmfem.quadrature import gauss_legendre_unit, tensor, tensor_unit


def test_one_point_rule_is_midpoint():
    rule = gauss_legendre_unit(1)
    assert_allclose(rule.points, [0.5], rtol=1e-15)
    assert_allclose(rule.weights, [1.0], rtol=1e-15)


def test_two_point_rule_closed_form():
    rule = gauss_legendre_unit(2)
    assert_allclose(rule.points, [(3 - np.sqrt(3)) / 6, (3 + np.sqrt(3)) / 6],
                    rtol=1e-15)
    assert_allclose(rule.weights, [0.5, 0.5], rtol=1e-15)


def test_three_point_rule_closed_form():
    rule = gauss_legendre_unit(3)
    assert_allclose(rule.points,
                    [0.5 - np.sqrt(15) / 10, 0.5, 0.5 + np.sqrt(15) / 10],
                    rtol=1e-15, atol=1e-15)
    assert_allclose(rule.weights, [5 / 18, 4 / 9, 5 / 18], rtol=1e-14)


@pytest.mark.parametrize("n", range(1, 11))
def test_monomial_exactness(n):
    # exactness up to degree 2n - 1 characterises the n-point Gauss rule
    rule = gauss_legendre_unit(n)
    for k in range(2 * n):
        value = float(np.dot(rule.weights, rule.points**k))
        assert abs(value - 1.0 / (k + 1)) < 1e-14


@pytest.mark.parametrize("n", range(1, 11))
def test_against_numpy_leggauss(n):
    # the rule is numpy's, mapped to [0, 1]: no other root finder computes it
    x, w = np.polynomial.legendre.leggauss(n)
    rule = gauss_legendre_unit(n)
    assert_array_equal(rule.points, (x + 1.0) / 2.0)
    assert_array_equal(rule.weights, w / 2.0)


@pytest.mark.parametrize("n", range(1, 11))
def test_rule_symmetry(n):
    rule = gauss_legendre_unit(n)
    assert_allclose(rule.points, 1.0 - rule.points[::-1], atol=1e-15)
    assert_allclose(rule.weights, rule.weights[::-1], rtol=1e-15)


@pytest.mark.parametrize("n", range(1, 11))
def test_unit_interval_weights(n):
    rule = gauss_legendre_unit(n)
    assert abs(rule.weights.sum() - 1.0) < 1e-14
    assert np.all(rule.points > 0.0) and np.all(rule.points < 1.0)
    assert np.all(np.diff(rule.points) > 0.0)
    lower = 2.0 / (n * (n + 1)) ** 2
    assert np.all(rule.weights >= lower - 1e-15)
    assert np.all(rule.weights <= 1.0 + 1e-15)


def test_map_to_unit_two_points():
    # numpy's [-1, 1] rule mapped to [0, 1], against its closed form
    rule = gauss_legendre_unit(2)
    assert_allclose(rule.points, [(3 - np.sqrt(3)) / 6, (3 + np.sqrt(3)) / 6],
                    rtol=1e-15)
    assert_allclose(rule.weights, [0.5, 0.5], rtol=1e-15)


def test_map_to_unit_one_and_three_points():
    r1 = gauss_legendre_unit(1)
    assert_allclose(r1.points, [0.5], rtol=1e-15)
    assert_allclose(r1.weights, [1.0], rtol=1e-15)
    r3 = gauss_legendre_unit(3)
    assert_allclose(r3.points[1], 0.5, atol=1e-15)
    assert_allclose(r3.weights[1], 4 / 9, rtol=1e-14)


def test_tensor_single_point():
    rule = tensor_unit(1)
    assert_allclose(rule.points, [[0.5, 0.5]])
    assert_allclose(rule.weights, [1.0])


def test_tensor_two_by_two():
    rule = tensor_unit(2)
    assert len(rule.weights) == 4
    assert_allclose(rule.weights, 0.25 * np.ones(4), rtol=1e-15)


def test_tensor_exactness_x3y():
    rule = tensor_unit(2)
    value = float(np.dot(rule.weights, rule.points[:, 0] ** 3 * rule.points[:, 1]))
    assert abs(value - 1 / 8) < 1e-15


def test_tensor_mixed_sizes():
    rule = tensor(gauss_legendre_unit(2), gauss_legendre_unit(3))
    assert len(rule.weights) == 6
    # exact for x^3 y^5
    val = float(np.dot(rule.weights, rule.points[:, 0] ** 3 * rule.points[:, 1] ** 5))
    assert abs(val - (1 / 4) * (1 / 6)) < 1e-15


@pytest.mark.parametrize("n", [0, -1, 11, 2.5])
def test_invalid_order_rejected(n):
    with pytest.raises(ValueError):
        gauss_legendre_unit(n)


def test_integrate_helper():
    rule = gauss_legendre_unit(4)
    assert abs(rule.weights @ rule.points**6 - 1 / 7) < 1e-14
