"""The overidentification test of transportability and its chi-square
reference distribution.

The test's statistic exists once, in batch form: :func:`_j_statistics`
serves :func:`overid_result` (one dataset: the ``test`` command and the
library's :func:`~jointpo.summaries.overid_test`) and
:func:`jointpo.simulate.overid_size_study` (a chunk of study replicates), so
the size study measures the test that ships. Only these load this module.

The chi-square upper tail is computed through the regularized incomplete
gamma function, evaluated with a series expansion on the left of the
transition point and a continued fraction on the right. Both iterations
run to a relative tolerance of ~1e-15, comfortably below the documented
1e-10 accuracy contract.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InferenceError, ValidationError

#: Residuals below this magnitude count as an exact fit (a just-identified
#: solve is exact up to rounding, so its test statistic must vanish), and a
#: residual standard error below it as zero (a trial whose residual is the same
#: in every resample has no noise scale, whatever rounding leaves of its spread).
_EXACT_FIT_TOL = 1e-12

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


class OveridTestResult(NamedTuple):
    """Result of the overidentification test of transportability.

    ``statistic`` is the sigma-normalized sum of squared per-trial
    residuals; under the null it is asymptotically chi-square with
    ``m - k`` degrees of freedom. ``p_value`` is None when the system is
    just identified (df = 0).
    """

    statistic: float
    df: int
    p_value: float | None
    per_trial_residuals: tuple[tuple[str, float, float], ...]

    def recompute_statistic(self) -> float:
        return float(
            sum((r / s) ** 2 for _, r, s in self.per_trial_residuals)
        )


def _j_statistics(residuals: np.ndarray, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The J statistic ``sum((r / sigma) ** 2)`` over the trials (last axis) of
    ``(..., m)`` residuals and their standard errors, and the residuals it
    used: those below :data:`_EXACT_FIT_TOL` count as an exact fit (zero). A
    member with a standard error below it has no residual scale and gets NaN.
    """
    effective = np.where(np.abs(residuals) < _EXACT_FIT_TOL, 0.0, residuals)
    with np.errstate(divide="ignore", invalid="ignore"):
        stat = ((effective / sigma) ** 2).sum(axis=-1)
    return np.where((sigma < _EXACT_FIT_TOL).any(axis=-1), np.nan, stat), effective


def overid_result(
    trial_ids: Sequence[str], residuals: np.ndarray, sigma_g: np.ndarray
) -> OveridTestResult:
    """:func:`~jointpo.summaries.overid_test` of the trials' residuals from the fitted two-state
    transition and their noise scales ``sigma_g``."""
    sigma = np.asarray(sigma_g, dtype=float)
    if sigma.shape != residuals.shape:
        raise ValidationError("sigma_g must provide one value per trial")
    df = residuals.size - 2
    if df == 0:
        # Just identified: the fit is exact by construction, so no residual
        # scale exists. Record unit sigmas to keep the statistic reproducible
        # from the residual list.
        sigma = np.ones_like(residuals)
    elif (sigma < _EXACT_FIT_TOL).any():
        bad = [tid for tid, s in zip(trial_ids, sigma) if s < _EXACT_FIT_TOL]
        raise InferenceError(
            f"zero residual standard error for trial(s) {', '.join(bad)}; "
            "the test statistic is undefined"
        )
    stat, effective = _j_statistics(residuals, sigma)
    per_trial = tuple(
        (tid, float(r), float(s)) for tid, r, s in zip(trial_ids, effective, sigma)
    )
    return OveridTestResult(
        statistic=float(stat),
        df=df,
        p_value=chi2_sf(float(stat), df) if df else None,
        per_trial_residuals=per_trial,
    )
