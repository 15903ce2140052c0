"""Bootstrap uncertainty quantification.

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
however replicates are grouped. The bootstrap runs in one thread.
:data:`_CHUNK` bounds the count cells of a stack drawn and fitted together,
here and in the studies, so a chunk's memory does not grow with the table:
a bootstrap chunk holds ``_CHUNK // counts.size`` replicates (at least one).

The overidentification test lives in :mod:`jointpo.overid`, and
:func:`plugin_variance` with the other library-only functions of a
dataset's summaries in :mod:`jointpo.summaries`; this module forwards
their names there.
"""

from __future__ import annotations

import warnings
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import _relocated
from .data import MultiTrialDataset, _Frozen
from .errors import EstimationError, InferenceError, ValidationError
from .special import normal_quantile

_MAX_REDRAWS = 100
_MAX_FAILURE_FRACTION = 0.10
#: Count cells of a stack drawn and fitted together (384 KiB of int64
#: counts): a bootstrap chunk holds ``_CHUNK // counts.size`` replicates and a
#: Monte Carlo study chunk ``_CHUNK // ((1 + B) * cells)``, at least one.
_CHUNK = 49152


def replicate_rng(seed: int, index: int) -> np.random.Generator:
    """Generator for one replicate, derived from the master seed and the
    replicate index via a splittable seed sequence."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def check_integer(name: str, value) -> None:
    """Reject a size, count or seed that is not an integer (a bool is not one;
    a NumPy integer is)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")


def check_seed(seed: int) -> None:
    """Reject a seed that :class:`numpy.random.SeedSequence` cannot take."""
    check_integer("seed", seed)
    if seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed}")


class BootstrapConfig(_Frozen):
    """Settings for stratified multinomial bootstrap inference."""

    __slots__ = _fields = ("replicates", "seed", "ci_level", "ci_method")

    def __init__(
        self,
        replicates: int = 500,
        seed: int = 0,
        ci_level: float = 0.95,
        ci_method: str = "normal",
    ):
        check_seed(seed)
        check_integer("replicates", replicates)
        if replicates < 2:
            raise ValidationError("bootstrap needs at least 2 replicates")
        if not 0.0 < ci_level < 1.0:
            raise ValidationError("ci_level must lie in (0, 1)")
        if ci_method not in ("normal", "percentile"):
            raise ValidationError("ci_method must be 'normal' or 'percentile'")
        self._set(replicates=replicates, seed=seed, ci_level=ci_level, ci_method=ci_method)


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
    drawn and fitted in chunks of at most :data:`_CHUNK` count cells (at
    least one replicate); one whose resample breaks the estimator (an
    empty arm, a rank failure) is redrawn from its own generator, up to 100
    draws in all, and counted as failed afterwards; more than 10% failed
    replicates abort with :class:`InferenceError`. Fixed
    ``(seed, replicates)`` give bit-identical results.
    """
    # NaN coordinates are legitimate results (undefined quantities); only
    # estimator exceptions count as a failed resample.
    counts = dataset.counts_tensor()
    if isinstance(estimator, BatchEstimator):
        fit = estimator.fit
        observed = fit(counts[None])
        if not observed.ok[0]:
            raise EstimationError("the statistic is undefined on the observed counts")
        point = observed.values[0]
    else:
        from .summaries import _per_dataset

        point = np.asarray(estimator(dataset), dtype=float)
        fit = _per_dataset(dataset, estimator, point.shape)

    n = config.replicates
    draws = np.full((n, point.size), np.nan)
    forced = np.zeros(n, dtype=bool)
    tries = np.zeros(n, dtype=np.int64)
    sampler = _Draws(counts)
    size = max(1, _CHUNK // counts.size)
    for start in range(0, n, size):
        index = np.arange(start, min(start + size, n))

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


__getattr__ = _relocated(
    __name__,
    {
        **dict.fromkeys(("plugin_variance", "transition_residuals", "overid_test"), "summaries"),
        **dict.fromkeys(("OveridTestResult", "overid_result"), "overid"),
    },
)
