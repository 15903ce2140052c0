"""Scalar special functions used by the estimators and tests.

The chi-square upper tail is computed through the regularized incomplete
gamma function, evaluated with a series expansion on the left of the
transition point and a continued fraction on the right. Both iterations
run to a relative tolerance of ~1e-15, comfortably below the documented
1e-10 accuracy contract.
"""

from __future__ import annotations

import math

try:
    # The C routine behind ``statistics.NormalDist.inv_cdf``, without loading
    # ``statistics`` and, with it, ``fractions`` and ``decimal``.
    from _statistics import _normal_dist_inv_cdf
except ImportError:
    from statistics import _normal_dist_inv_cdf

_MAX_ITER = 10_000
_REL_EPS = 1e-15


def _gamma_p_series(a: float, x: float) -> float:
    # P(a, x) = x^a e^-x / Gamma(a) * sum_n x^n / (a (a+1) ... (a+n))
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _REL_EPS:
            return total * math.exp(a * math.log(x) - x - math.lgamma(a))
    raise ArithmeticError(f"series for P({a}, {x}) did not converge")


def _gamma_q_continued_fraction(a: float, x: float) -> float:
    # Modified Lentz evaluation of the continued fraction for Q(a, x).
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _REL_EPS:
            return math.exp(a * math.log(x) - x - math.lgamma(a)) * h
    raise ArithmeticError(f"continued fraction for Q({a}, {x}) did not converge")


def regularized_gamma_p(a: float, x: float) -> float:
    """Regularized lower incomplete gamma function P(a, x)."""
    return 1.0 - regularized_gamma_q(a, x)


def regularized_gamma_q(a: float, x: float) -> float:
    """Regularized upper incomplete gamma function Q(a, x)."""
    if a <= 0.0:
        raise ValueError(f"shape parameter must be positive, got {a}")
    if x < 0.0:
        raise ValueError(f"argument must be nonnegative, got {x}")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _gamma_p_series(a, x)
    return _gamma_q_continued_fraction(a, x)


def chi2_sf(x: float, df: float) -> float:
    """Upper tail probability of a chi-square distribution with ``df`` d.o.f.;
    NaN for a NaN statistic and 0 for an infinite one."""
    if df <= 0:
        raise ValueError(f"degrees of freedom must be positive, got {df}")
    if math.isnan(x):
        return math.nan
    if x == math.inf:
        return 0.0
    if x <= 0.0:
        return 1.0
    return regularized_gamma_q(df / 2.0, x / 2.0)


def normal_quantile(p: float) -> float:
    """Quantile of the standard normal distribution, bit for bit
    ``statistics.NormalDist().inv_cdf(p)``; ``ValueError`` outside (0, 1)."""
    return _normal_dist_inv_cdf(p, 0.0, 1.0)


def expit(x):
    """Standard logistic function, elementwise on arrays or scalars."""
    import numpy as np

    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))
