"""Scalar special functions used by the estimators.

The chi-square tail functions live in :mod:`jointpo.overid`, which only the
overidentification test loads; this module forwards their names there.
"""

from __future__ import annotations

from . import _relocated

try:
    # The C routine behind ``statistics.NormalDist.inv_cdf``, without loading
    # ``statistics`` and, with it, ``fractions`` and ``decimal``.
    from _statistics import _normal_dist_inv_cdf
except ImportError:
    from statistics import _normal_dist_inv_cdf


def normal_quantile(p: float) -> float:
    """Quantile of the standard normal distribution, bit for bit
    ``statistics.NormalDist().inv_cdf(p)``; ``ValueError`` outside (0, 1)."""
    return _normal_dist_inv_cdf(p, 0.0, 1.0)


def expit(x):
    """Standard logistic function, elementwise on arrays or scalars."""
    import numpy as np

    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))


__getattr__ = _relocated(
    __name__,
    dict.fromkeys(("chi2_sf", "regularized_gamma_p", "regularized_gamma_q"), "overid"),
)
