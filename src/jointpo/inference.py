"""Uncertainty quantification and the overidentification test.

Bootstrap resampling is stratified: within every trial the cell counts
are redrawn as a multinomial over that trial's cells with the original
trial total, which is equivalent to resampling units within the trial.
The resampler :class:`_Draws` and the redraw loop :func:`_redraw` also
serve the Monte Carlo studies of :mod:`jointpo.simulate`, which draw all of
a study replicate's resamples from one generator.

:func:`bootstrap` draws the replicates into a ``(B, n_trials, cells)``
count tensor and fits them in one batched call when the estimator is a
:class:`BatchEstimator` (every CLI command's is); its point estimate is
member 0 of the same batch form fitted on the observed counts, so the
statistic exists in one form only. A plain dataset-to-vector estimator
is evaluated on the dataset for the point and fitted one resampled
dataset at a time. Either way replicate ``i`` comes from
``replicate_rng(seed, i)``, so a seed always gives the same resamples
however replicates are grouped. The bootstrap runs in one thread;
:data:`_CHUNK` bounds the members fitted together, here and in the studies.

The overidentification test's statistic exists once, in batch form:
:func:`_j_statistics` serves :func:`overid_test` (one dataset, the ``test``
command) and :func:`jointpo.simulate.overid_size_study` (a chunk of study
replicates), so the size study measures the test that ships.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .data import MultiTrialDataset, Summaries
from .errors import (
    EstimationError,
    ForcedSolveWarning,
    IdentificationError,
    InferenceError,
    JointpoError,
    JointpoWarning,
    ValidationError,
)
from .special import chi2_sf, normal_quantile
from .transition import build_system, least_squares

_MAX_REDRAWS = 100
_MAX_FAILURE_FRACTION = 0.10
#: Stack members drawn and fitted together; bounds the count tensor's
#: memory (a Monte Carlo study chunk holds ``_CHUNK // (1 + B)`` replicates).
_CHUNK = 256
#: Residuals below this magnitude count as an exact fit (a just-identified
#: solve is exact up to rounding, so its test statistic must vanish), and a
#: residual standard error below it as zero (a trial whose residual is the same
#: in every resample has no noise scale, whatever rounding leaves of its spread).
_EXACT_FIT_TOL = 1e-12


def replicate_rng(seed: int, index: int) -> np.random.Generator:
    """Generator for one replicate, derived from the master seed and the
    replicate index via a splittable seed sequence."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def check_seed(seed: int) -> None:
    """Reject a seed that :class:`numpy.random.SeedSequence` cannot take."""
    if seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed}")


@dataclass(frozen=True)
class BootstrapConfig:
    """Settings for stratified multinomial bootstrap inference."""

    replicates: int = 500
    seed: int = 0
    ci_level: float = 0.95
    ci_method: str = "normal"

    def __post_init__(self):
        check_seed(self.seed)
        if self.replicates < 2:
            raise ValidationError("bootstrap needs at least 2 replicates")
        if not 0.0 < self.ci_level < 1.0:
            raise ValidationError("ci_level must lie in (0, 1)")
        if self.ci_method not in ("normal", "percentile"):
            raise ValidationError("ci_method must be 'normal' or 'percentile'")


class VarianceEstimate(NamedTuple):
    """Point estimates with standard errors and confidence intervals.

    For a bootstrap, ``n_failed`` counts replicates that failed every
    redraw, ``n_redrawn`` replicates whose first resample was rejected, and
    ``n_forced`` kept replicates fitted minimum-norm despite a failed rank
    check.
    """

    point: np.ndarray
    se: np.ndarray
    ci_lower: np.ndarray
    ci_upper: np.ndarray
    source: str
    names: tuple[str, ...] | None = None
    replicates: np.ndarray | None = None
    n_failed: int = 0
    n_forced: int = 0
    n_redrawn: int = 0


class BatchFit(NamedTuple):
    """A statistic on a stack of B count tensors: ``values`` ``(B, w)``,
    ``ok`` ``(B,)`` (False where the statistic is undefined, so the
    replicate is redrawn) and ``forced`` ``(B,)`` (fitted despite a failed
    rank check)."""

    values: np.ndarray
    ok: np.ndarray
    forced: np.ndarray


class BatchEstimator(NamedTuple):
    """A statistic in batch form: ``fit`` evaluates it on a whole
    ``(B, n_trials, cells)`` stack of count tensors laid out like
    ``dataset.counts_tensor()``. Its point estimate is member 0 of ``fit``
    on ``dataset.counts_tensor()[None]``."""

    fit: Callable[[np.ndarray], BatchFit]


class _Draws:
    """Stratified multinomial resamples of one count tensor: per trial, the
    cells are redrawn with the trial's total; trials with no units are left
    at zero and use no randomness."""

    def __init__(self, tensor: np.ndarray):
        self.shape = tensor.shape
        totals = tensor.sum(axis=1)
        self.live = totals > 0
        # Shaped (trials, 1) and (trials, 1, cells) to broadcast over n draws.
        self.totals = totals[self.live, None]
        self.probs = (tensor[self.live] / self.totals)[:, None, :]

    def draw(self, rng: np.random.Generator, out: np.ndarray) -> None:
        """Fill the zeroed ``(n, trials, cells)`` ``out`` with ``n`` resamples
        from one ``rng`` call, trial-major (at ``n = 1``, the stream of
        ``rng.multinomial(totals, probs)``)."""
        out[:, self.live] = rng.multinomial(
            self.totals, self.probs, size=(len(self.totals), len(out))
        ).swapaxes(0, 1)


def _redraw(
    samplers: Sequence[_Draws], rngs: Sequence[np.random.Generator], n: int, accept, max_draws: int
) -> np.ndarray:
    """Draw ``n`` members from each stream ``samplers[s]``, ``rngs[s]`` (member
    ``s * n + j`` is its ``j``-th), then redraw from its own stream each member
    that ``accept(members, draws)`` rejects, up to ``max_draws`` draws in all.
    A round calls ``accept`` once, on the sorted pending members and their
    resamples. Returns the draws each member took to be accepted (0: never)."""
    pending = np.arange(len(rngs) * n)
    tries = np.zeros(pending.size, dtype=np.int64)
    for attempt in range(max_draws):
        draws = np.zeros((pending.size,) + samplers[0].shape, dtype=np.int64)
        # Stream s's pending members are rows bounds[s]:bounds[s + 1].
        bounds = np.searchsorted(pending, np.arange(len(rngs) + 1) * n).tolist()
        for s, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            if hi > lo:
                samplers[s].draw(rngs[s], draws[lo:hi])
        ok = accept(pending, draws)
        tries[pending[ok]] = attempt + 1
        pending = pending[~ok]
        if pending.size == 0:
            break
    return tries


def resample_dataset(
    dataset: MultiTrialDataset, rng: np.random.Generator
) -> MultiTrialDataset:
    """One stratified resample: per-trial multinomial redraw of all cells."""
    counts = dataset.counts_tensor()
    out = np.zeros((1,) + counts.shape, dtype=np.int64)
    _Draws(counts).draw(rng, out)
    return dataset.with_counts(out[0])


def _per_dataset(
    dataset: MultiTrialDataset,
    estimator: Callable[[MultiTrialDataset], np.ndarray],
    shape: tuple[int, ...],
) -> Callable[[np.ndarray], BatchFit]:
    """Batch adapter of a dataset-to-vector estimator: one rebuilt dataset
    per member. An estimator error, or a result of another shape than
    ``shape``, makes the member undefined; a :class:`ForcedSolveWarning`
    marks it forced. Other package warnings are ignored, as for any
    resample."""

    def fit(tensor: np.ndarray) -> BatchFit:
        values = np.full((len(tensor), int(np.prod(shape))), np.nan)
        ok = np.zeros(len(tensor), dtype=bool)
        forced = np.zeros(len(tensor), dtype=bool)
        for b, counts in enumerate(tensor):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("ignore", JointpoWarning)
                warnings.simplefilter("always", ForcedSolveWarning)
                try:
                    value = np.asarray(estimator(dataset.with_counts(counts)), dtype=float)
                except (JointpoError, np.linalg.LinAlgError):
                    value = None
            for w in caught:
                if not issubclass(w.category, JointpoWarning):
                    warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            if value is not None and value.shape == shape:
                values[b] = value.reshape(-1)
                ok[b] = True
                forced[b] = any(issubclass(w.category, ForcedSolveWarning) for w in caught)
        return BatchFit(values, ok, forced)

    return fit


def _normal_ci(
    point: np.ndarray, se: np.ndarray, level: float
) -> tuple[np.ndarray, np.ndarray]:
    z = normal_quantile(0.5 + level / 2.0)
    return point - z * se, point + z * se


def bootstrap(
    dataset: MultiTrialDataset,
    estimator: BatchEstimator | Callable[[MultiTrialDataset], np.ndarray],
    config: BootstrapConfig,
    *,
    names: Sequence[str] | None = None,
) -> VarianceEstimate:
    """Stratified bootstrap of a :class:`BatchEstimator` or of a plain
    dataset-to-vector estimator.

    The point estimate of a :class:`BatchEstimator` is member 0 of its fit
    on the observed counts (an :class:`EstimationError` if that member is
    undefined); a plain estimator is called on ``dataset``.
    Replicate ``i`` is drawn from ``replicate_rng(seed, i)``. Replicates are
    drawn and fitted in chunks; one whose resample breaks the estimator (an
    empty arm, a rank failure) is redrawn from its own generator, up to 100
    draws in all, and counted as failed afterwards; more than 10% failed
    replicates abort with :class:`InferenceError`. Fixed
    ``(seed, replicates)`` give bit-identical results.
    """
    # NaN coordinates are legitimate results (undefined quantities); only
    # estimator exceptions count as a failed resample.
    if isinstance(estimator, BatchEstimator):
        fit = estimator.fit
        observed = fit(dataset.counts_tensor()[None])
        if not observed.ok[0]:
            raise EstimationError("the statistic is undefined on the observed counts")
        point = observed.values[0]
    else:
        point = np.asarray(estimator(dataset), dtype=float)
        fit = _per_dataset(dataset, estimator, point.shape)

    n = config.replicates
    draws = np.full((n, point.size), np.nan)
    forced = np.zeros(n, dtype=bool)
    tries = np.zeros(n, dtype=np.int64)
    sampler = _Draws(dataset.counts_tensor())
    for start in range(0, n, _CHUNK):
        index = np.arange(start, min(start + _CHUNK, n))

        def accept(members: np.ndarray, tensor: np.ndarray) -> np.ndarray:
            result = fit(tensor)
            done = index[members[result.ok]]
            draws[done] = result.values[result.ok]
            forced[done] = result.forced[result.ok]
            return result.ok

        rngs = [replicate_rng(config.seed, int(i)) for i in index]
        tries[index] = _redraw([sampler] * len(rngs), rngs, 1, accept, _MAX_REDRAWS)

    n_failed = int((tries == 0).sum())
    if n_failed > _MAX_FAILURE_FRACTION * n:
        raise InferenceError(
            f"{n_failed} of {n} bootstrap replicates failed; "
            "the dataset is too fragile for resampling inference"
        )
    kept = draws[tries > 0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        se = np.sqrt(np.nanvar(kept, axis=0, ddof=1))
    if config.ci_method == "normal":
        lower, upper = _normal_ci(point, se, config.ci_level)
    else:
        alpha = (1.0 - config.ci_level) / 2.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            lower = np.nanpercentile(kept, 100 * alpha, axis=0)
            upper = np.nanpercentile(kept, 100 * (1 - alpha), axis=0)
    return VarianceEstimate(
        point=point,
        se=se,
        ci_lower=lower,
        ci_upper=upper,
        source="bootstrap",
        names=None if names is None else tuple(names),
        replicates=kept,
        n_failed=n_failed,
        n_forced=int(forced.sum()),
        n_redrawn=int((tries != 1).sum()),
    )


def _two_state_margins(summaries: Summaries, space: str) -> tuple[np.ndarray, np.ndarray]:
    """The control frequencies ``(m, 2)`` and treated success rates ``(m,)``
    of :func:`~jointpo.transition.build_system`'s two-state system."""
    system = build_system(summaries, space)
    if system.k != 2:
        raise ValidationError("this operation is defined for two-state systems only")
    return system.design, system.response[:, 1]


def plugin_variance(
    summaries: Summaries,
    theta: np.ndarray,
    n: int | None = None,
    *,
    space: str = "outcome",
    ci_level: float = 0.95,
) -> VarianceEstimate:
    """Closed-form asymptotic standard errors for the two-state
    transition estimator.

    The asymptotic variance has sandwich form ``C^-1 V C^-1`` with
    ``C`` the average outer product of the control frequency vectors.
    ``V`` aggregates, per trial, the sampling variance of the treated
    frequency and of the theta-weighted control frequencies; both pieces
    expand in closed form from the multinomial cell probabilities, with
    trial weights taken as ``n_g / n``.

    With ``H`` the pseudo-inverse of the control design ``M`` (``C = M^T M
    / m``), the sandwich is ``H diag(v) H^T`` for the per-trial variances
    ``v``; ``H`` comes from :func:`~jointpo.transition.least_squares`, so the
    rank decision is the estimator's and the Gram matrix is never formed.
    """
    theta = np.asarray(theta, dtype=float)
    M, y = _two_state_margins(summaries, space)
    sizes = summaries.arm_sizes().astype(float)
    if n is None:
        n = int(sizes.sum())
    p_arm = sizes / float(n)  # (m, 2) empirical P(G=g, A=a)
    if (p_arm <= 0).any():
        raise ValidationError("every trial needs units in both arms")

    # Per-trial variance of the linearized residual:
    #   treated-frequency noise plus control-side noise of theta(Y).
    var_treated = y * (1.0 - y) / p_arm[:, 1]
    theta_mean = M @ theta
    theta_sq = M @ (theta**2)
    var_control = (theta_sq - theta_mean**2) / p_arm[:, 0]
    v = var_treated + var_control

    if (v == 0).all():
        # Fully deterministic cells: no sampling noise regardless of the
        # design's conditioning.
        se = np.zeros_like(theta)
    else:
        pinv, identified = least_squares(M, np.eye(len(M)))
        if not identified:
            raise IdentificationError(
                "plug-in variance is undefined: singular design"
            )
        se = np.sqrt(np.clip(pinv**2 @ v, 0.0, None) / n)
    lower, upper = _normal_ci(theta, se, ci_level)
    return VarianceEstimate(
        point=theta,
        se=se,
        ci_lower=lower,
        ci_upper=upper,
        source="plugin",
    )


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


def transition_residuals(
    summaries: Summaries, theta: np.ndarray, *, space: str = "outcome"
) -> np.ndarray:
    """Per-trial residuals of the treated frequency against its fitted
    mixture of control frequencies."""
    M, y = _two_state_margins(summaries, space)
    return y - M @ np.asarray(theta, dtype=float)


def overid_test(
    summaries: Summaries,
    theta: np.ndarray,
    sigma_g: np.ndarray,
    *,
    space: str = "outcome",
) -> OveridTestResult:
    """Chi-square test of the trial-invariance of transition probabilities.

    ``sigma_g`` are per-trial standard errors of the residual noise,
    normally the standard deviations, across the same bootstrap
    replicates that produced ``theta``, of the replicate frequencies'
    deviation from the point fit (the raw noise scale; the reference
    distribution's m - k degrees of freedom already account for the
    fitted parameters). A ``sigma_g`` below :data:`_EXACT_FIT_TOL` raises
    :class:`InferenceError`. Requires more trials than states for a p-value;
    with m == k the statistic is reported (it vanishes up to rounding)
    and the p-value is marked inapplicable.
    """
    residuals = transition_residuals(summaries, theta, space=space)
    return overid_result(summaries.trial_ids, residuals, sigma_g)


def overid_result(
    trial_ids: Sequence[str], residuals: np.ndarray, sigma_g: np.ndarray
) -> OveridTestResult:
    """:func:`overid_test` of the trials' residuals from the fitted two-state
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
