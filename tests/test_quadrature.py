import numpy as np
import pytest
from math import factorial

from msflow.quadrature import (
    EDGE_G2_S,
    EDGE_G2_W,
    TRI_D4_BARY,
    TRI_D4_W,
)


def bary_monomial_integral(p, q, r, area=0.5):
    """Exact integral of lambda0^p lambda1^q lambda2^r over a triangle."""
    return (
        factorial(p) * factorial(q) * factorial(r)
        / factorial(p + q + r + 2)
        * 2.0
        * area
    )


def test_degree4_rule_exact_for_barycentric_monomials():
    bary, weights, area = TRI_D4_BARY, TRI_D4_W, 0.5
    for total in range(5):
        for p in range(total + 1):
            for q in range(total - p + 1):
                r = total - p - q
                vals = bary[:, 0] ** p * bary[:, 1] ** q * bary[:, 2] ** r
                approx = area * np.dot(weights, vals)
                exact = bary_monomial_integral(p, q, r, area)
                assert approx == pytest.approx(exact, rel=1e-14, abs=1e-16)


def test_edge_rule_exact_to_degree_three():
    for k in range(4):
        approx = np.dot(EDGE_G2_W, EDGE_G2_S**k)
        assert approx == pytest.approx(1.0 / (k + 1), rel=1e-14)


def test_weights_normalized():
    assert TRI_D4_W.sum() == pytest.approx(1.0, abs=1e-15)
    assert EDGE_G2_W.sum() == pytest.approx(1.0, abs=1e-15)
