"""Monte Carlo harness: data-generating processes, dataset simulation
and replication studies with bootstrap-based coverage metrics.

Four named benchmark processes are built in, all with ten trials and a
fair coin treatment:

* ``c1``/``c2``: binary outcome; control success probabilities spread
  evenly from 0.5 to 0.8 across trials and a logistic transition of the
  treated outcome on the control outcome (offset -0.5 or +0.5).
* ``c3``: surrogate and outcome both logistic functions of the control
  pair, estimated through the unconstrained composite system.
* ``c4``: monotone surrogate strata with logistic stratum outcome
  probabilities, estimated through the four-step stratum estimator.

Replicates derive their own generators from the master seed, so studies
are reproducible for any worker count. Coverage uses normal intervals
``point +- 1.96 * se`` with the bootstrap standard error.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .data import MultiTrialDataset, TrialCellCounts
from .errors import InferenceError, ValidationError
from .inference import replicate_rng
from .special import chi2_sf, expit

Z95 = 1.96
_MAX_REDRAWS = 100

CASES = ("c1", "c2", "c3", "c4")
#: Largest trial count of the built-in cases: their control success
#: probabilities ``0.5 + g/30`` reach 1 at g = 15.
MAX_CASE_M = 16


@dataclass(frozen=True)
class Population:
    """Population law of the observed cells, one row per trial.

    ``cell_probs`` follows the dataset cell layout: row-major over
    (arm[, surrogate], outcome). ``truth`` holds the target parameter
    vector aligned with ``param_names``.
    """

    cell_probs: np.ndarray
    truth: np.ndarray
    param_names: tuple[str, ...]
    has_surrogate: bool
    outcome_cardinality: int = 2
    control_marginals: np.ndarray | None = None
    treated_marginals: np.ndarray | None = None
    transition: np.ndarray | None = None


@dataclass(frozen=True)
class DgpSpec:
    """Configuration of a simulated multi-trial experiment."""

    case: str
    n_g: int
    m: int = 10
    treatment_prob: float = 0.5
    custom: Population | None = None

    def __post_init__(self):
        if self.case not in CASES + ("custom",):
            raise ValidationError(f"unknown simulation case {self.case!r}")
        if self.case == "custom" and self.custom is None:
            raise ValidationError("a custom case needs a Population")
        if self.n_g <= 0:
            raise ValidationError(f"per-trial size must be positive, got {self.n_g}")
        if self.m < 2:
            raise ValidationError("at least two trials are required")
        if self.case in CASES and self.m > MAX_CASE_M:
            raise ValidationError(
                f"built-in case {self.case} supports at most m={MAX_CASE_M} trials "
                f"(its control success 0.5 + (m-1)/30 must not exceed 1), got m={self.m}"
            )
        if not 0.0 < self.treatment_prob < 1.0:
            raise ValidationError("treatment probability must lie in (0, 1)")


def _control_success(m: int) -> np.ndarray:
    # Evenly spaced control success probabilities from 0.5 upward in
    # steps of 1/30 (0.5 .. 0.8 for ten trials).
    return 0.5 + np.arange(m) / 30.0


def _binary_population(m: int, t: float, offset: float) -> Population:
    q = _control_success(m)
    theta = np.array([float(expit(offset)), float(expit(1.0 + offset))])
    treated = (1.0 - q) * theta[0] + q * theta[1]
    cells = np.column_stack(
        [(1 - t) * (1 - q), (1 - t) * q, t * (1 - treated), t * treated]
    )
    return Population(
        cell_probs=cells,
        truth=theta,
        param_names=("P(Y1=1|Y0=0)", "P(Y1=1|Y0=1)"),
        has_surrogate=False,
        control_marginals=np.column_stack([1 - q, q]),
        treated_marginals=np.column_stack([1 - treated, treated]),
        transition=np.array([[1 - theta[0], theta[0]], [1 - theta[1], theta[1]]]),
    )


def _c3_population(m: int, t: float) -> Population:
    q = _control_success(m)
    # Control composite law: surrogate and outcome independent within arm 0.
    control = np.empty((m, 4))
    for i, (s, y) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        ps = q if s else 1 - q
        py = q if y else 1 - q
        control[:, i] = ps * py
    # Trial-invariant composite transition, conditionally independent
    # surrogate and outcome moves given the control pair.
    trans = np.empty((4, 4))
    s_rate = {}
    y_rate = {}
    for i, (a, c) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        ps1 = float(expit((a + c - 1) / 2.0))
        py1 = float(expit((a + c + 1) / 2.0))
        s_rate[(a, c)] = ps1
        y_rate[(a, c)] = py1
        for j, (b, d) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
            trans[i, j] = (ps1 if b else 1 - ps1) * (py1 if d else 1 - py1)
    treated = control @ trans
    cells = np.concatenate([(1 - t) * control, t * treated], axis=1)
    order = ((0, 0), (0, 1), (1, 0), (1, 1))
    truth = np.array([s_rate[ac] for ac in order] + [y_rate[ac] for ac in order])
    names = tuple(f"P(S1=1|S0={a},Y0={c})" for a, c in order) + tuple(
        f"P(Y1=1|S0={a},Y0={c})" for a, c in order
    )
    return Population(
        cell_probs=cells,
        truth=truth,
        param_names=names,
        has_surrogate=True,
        control_marginals=control,
        treated_marginals=treated,
        transition=trans,
    )


def _c4_population(m: int, t: float) -> Population:
    p = 0.3 + np.arange(m) / 30.0
    q = _control_success(m)
    # Monotone stratum scores: independent draws adjusted so S0 = 0
    # whenever S1 = 0, applied at the level of the joint law.
    d00 = 1.0 - q
    d01 = (1.0 - p) * q
    d11 = p * q
    treated_y = {ab: float(expit((ab[0] + ab[1] + 1) / 2.0)) for ab in
                 ((0, 0), (0, 1), (1, 1))}
    control_y = {ab: float(expit((ab[0] + ab[1] - 1) / 2.0)) for ab in
                 ((0, 0), (0, 1), (1, 1))}
    control = np.empty((m, 4))  # (S0, Y0) composite, order (s, y)
    control[:, 0] = d00 * (1 - control_y[(0, 0)]) + d01 * (1 - control_y[(0, 1)])
    control[:, 1] = d00 * control_y[(0, 0)] + d01 * control_y[(0, 1)]
    control[:, 2] = d11 * (1 - control_y[(1, 1)])
    control[:, 3] = d11 * control_y[(1, 1)]
    treated = np.empty((m, 4))  # (S1, Y1) composite
    treated[:, 0] = d00 * (1 - treated_y[(0, 0)])
    treated[:, 1] = d00 * treated_y[(0, 0)]
    treated[:, 2] = d01 * (1 - treated_y[(0, 1)]) + d11 * (1 - treated_y[(1, 1)])
    treated[:, 3] = d01 * treated_y[(0, 1)] + d11 * treated_y[(1, 1)]
    cells = np.concatenate([(1 - t) * control, t * treated], axis=1)
    strata = ((0, 0), (0, 1), (1, 1))
    truth = np.array(
        [treated_y[ab] for ab in strata]
        + [control_y[ab] for ab in strata]
        + [treated_y[ab] - control_y[ab] for ab in strata]
    )
    names = (
        tuple(f"P(Y1=1|S0={a},S1={b})" for a, b in strata)
        + tuple(f"P(Y0=1|S0={a},S1={b})" for a, b in strata)
        + tuple(f"PSACE[{a}{b}]" for a, b in strata)
    )
    return Population(
        cell_probs=cells,
        truth=truth,
        param_names=names,
        has_surrogate=True,
        control_marginals=control,
        treated_marginals=treated,
    )


def dgp_population(spec: DgpSpec) -> Population:
    """Population probability tables and true parameters for a case."""
    if spec.case == "custom":
        return spec.custom
    if spec.case == "c1":
        return _binary_population(spec.m, spec.treatment_prob, -0.5)
    if spec.case == "c2":
        return _binary_population(spec.m, spec.treatment_prob, 0.5)
    if spec.case == "c3":
        return _c3_population(spec.m, spec.treatment_prob)
    return _c4_population(spec.m, spec.treatment_prob)


def _draw_counts(
    cell_probs: np.ndarray, n_g: int, rng: np.random.Generator
) -> np.ndarray:
    counts = np.empty_like(cell_probs, dtype=np.int64)
    for g in range(cell_probs.shape[0]):
        counts[g] = rng.multinomial(n_g, cell_probs[g])
    return counts


def simulate_dataset(spec: DgpSpec, seed: int) -> MultiTrialDataset:
    """Draw one dataset from the process: per trial, n_g units assigned
    by a coin flip, outcomes drawn from the population law of the
    observed cells. Deterministic per seed."""
    pop = dgp_population(spec)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    counts = _draw_counts(pop.cell_probs, spec.n_g, rng)
    half = counts.shape[1] // 2
    trials = []
    for g in range(counts.shape[0]):
        if pop.has_surrogate:
            arr = counts[g].reshape(2, 2, pop.outcome_cardinality)
        else:
            arr = counts[g].reshape(2, pop.outcome_cardinality)
        trials.append(TrialCellCounts(trial_id=str(g + 1), counts=arr))
    return MultiTrialDataset(trials=tuple(trials))


def _batched_ls(design: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """QR least squares over leading batch dimensions.

    ``design`` is (..., m, p), ``rhs`` (..., m, q). Returns coefficients
    (..., p, q) and a validity mask for batch members whose triangular
    factor is numerically nonsingular (others come back NaN).
    """
    q_mat, r_mat = np.linalg.qr(design)
    diag = np.abs(np.diagonal(r_mat, axis1=-2, axis2=-1))
    ok = (diag.min(axis=-1) > diag.max(axis=-1) * 1e-12) & (diag.max(axis=-1) > 0)
    rhs_proj = np.swapaxes(q_mat, -1, -2) @ rhs
    coef = np.full(r_mat.shape[:-2] + (design.shape[-1], rhs.shape[-1]), np.nan)
    if ok.all():
        coef = np.linalg.solve(r_mat, rhs_proj)
    elif ok.any():
        coef[ok] = np.linalg.solve(r_mat[ok], rhs_proj[ok])
    return coef, ok


def _resample_counts(
    counts: np.ndarray,
    n_draws: int,
    rng: np.random.Generator,
    valid: Callable[[np.ndarray], np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Stratified multinomial resamples of a count matrix.

    Returns a (n_draws, m, cells) batch plus a keep mask; batch members
    failing ``valid`` are redrawn up to 100 rounds and dropped after.
    """
    m, c = counts.shape
    totals = counts.sum(axis=1)
    probs = counts / totals[:, None]
    batch = np.empty((n_draws, m, c), dtype=np.int64)
    for g in range(m):
        batch[:, g, :] = rng.multinomial(int(totals[g]), probs[g], size=n_draws)
    keep = valid(batch)
    for _ in range(_MAX_REDRAWS):
        if keep.all():
            break
        bad = np.flatnonzero(~keep)
        for g in range(m):
            batch[bad, g, :] = rng.multinomial(
                int(totals[g]), probs[g], size=bad.size
            )
        keep[bad] = valid(batch[bad])
    return batch, keep


def _arms_positive(batch: np.ndarray) -> np.ndarray:
    half = batch.shape[-1] // 2
    return (batch[..., :half].sum(axis=-1) > 0).all(axis=-1) & (
        batch[..., half:].sum(axis=-1) > 0
    ).all(axis=-1)


class BinaryTransitionPipeline:
    """Transition parameters of a binary outcome from (m, 4) cell counts."""

    name = "binary-transition"

    def __init__(self, population: Population):
        self.param_names = population.param_names
        self.truth = population.truth

    @staticmethod
    def _margins(batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        control = batch[..., :2]
        treated = batch[..., 2:]
        n0 = control.sum(axis=-1, keepdims=True)
        n1 = treated.sum(axis=-1)
        design = control / n0
        response = treated[..., 1] / n1
        return design, response

    def point(self, counts: np.ndarray) -> np.ndarray:
        design, response = self._margins(counts[None])
        coef, ok = _batched_ls(design, response[..., None])
        if not ok.all():
            raise InferenceError("singular design in point estimation")
        return coef[0, :, 0]

    def point_with_residuals(self, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        design, response = self._margins(counts[None])
        coef, ok = _batched_ls(design, response[..., None])
        if not ok.all():
            raise InferenceError("singular design in point estimation")
        fitted = (design @ coef)[0, :, 0]
        return coef[0, :, 0], response[0] - fitted

    def bootstrap(
        self, counts: np.ndarray, n_draws: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        batch, keep = _resample_counts(counts, n_draws, rng, _arms_positive)
        design, response = self._margins(batch)
        coef, ok = _batched_ls(design, response[..., None])
        return coef[..., 0], keep & ok

    def bootstrap_with_residuals(
        self,
        counts: np.ndarray,
        n_draws: int,
        rng: np.random.Generator,
        fixed_theta: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Bootstrap coefficients plus per-trial deviations.

        With ``fixed_theta`` the deviations are taken against that fixed
        fit (the raw per-trial noise scale, which is what the chi-square
        reference of the overidentification test normalizes by);
        otherwise each replicate's own fit is used.
        """
        batch, keep = _resample_counts(counts, n_draws, rng, _arms_positive)
        design, response = self._margins(batch)
        coef, ok = _batched_ls(design, response[..., None])
        if fixed_theta is None:
            residuals = response - (design @ coef)[..., 0]
        else:
            residuals = response - design @ np.asarray(fixed_theta, dtype=float)
        return coef[..., 0], residuals, keep & ok


class CompositeTransitionPipeline:
    """Composite 4-state transition margins from (m, 8) cell counts.

    Estimates the unconstrained 16-entry transition matrix and reports
    the per-source-state rates of the surrogate and of the outcome.
    """

    name = "composite-transition"

    def __init__(self, population: Population):
        self.param_names = population.param_names
        self.truth = population.truth

    @staticmethod
    def _margins(batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        control = batch[..., :4]
        treated = batch[..., 4:]
        design = control / control.sum(axis=-1, keepdims=True)
        response = treated / treated.sum(axis=-1, keepdims=True)
        return design, response

    @staticmethod
    def _extract(trans: np.ndarray) -> np.ndarray:
        # Rows are source states (s, y); sum target columns with s=1,
        # then target columns with y=1.
        s_rate = trans[..., :, 2] + trans[..., :, 3]
        y_rate = trans[..., :, 1] + trans[..., :, 3]
        return np.concatenate([s_rate, y_rate], axis=-1)

    def point(self, counts: np.ndarray) -> np.ndarray:
        design, response = self._margins(counts[None])
        coef, ok = _batched_ls(design, response)
        if not ok.all():
            raise InferenceError("singular composite design in point estimation")
        return self._extract(coef)[0]

    def bootstrap(
        self, counts: np.ndarray, n_draws: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        batch, keep = _resample_counts(counts, n_draws, rng, _arms_positive)
        design, response = self._margins(batch)
        coef, ok = _batched_ls(design, response)
        return self._extract(coef), keep & ok


class PrincipalFourStepPipeline:
    """Four-step stratum estimator from (m, 8) cell counts.

    Produces the six stratum outcome probabilities followed by the three
    stratum effects (their pairwise differences).
    """

    name = "principal-four-step"

    def __init__(self, population: Population):
        self.param_names = population.param_names
        self.truth = population.truth

    @staticmethod
    def _valid(batch: np.ndarray) -> np.ndarray:
        ok = _arms_positive(batch)
        # Pooled step-2 denominators must be positive: treated units with
        # s=0 and control units with s=1 somewhere in the batch member.
        treated_s0 = batch[..., 4:6].sum(axis=(-1, -2))
        control_s1 = batch[..., 2:4].sum(axis=(-1, -2))
        return ok & (treated_s0 > 0) & (control_s1 > 0)

    @staticmethod
    def _estimate(batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        control = batch[..., :4]
        treated = batch[..., 4:]
        n0 = control.sum(axis=-1)
        n1 = treated.sum(axis=-1)
        s_control = (control[..., 2] + control[..., 3]) / n0
        s_treated = (treated[..., 2] + treated[..., 3]) / n1
        d11 = s_control
        d01 = s_treated - d11
        d00 = 1.0 - s_treated
        y1 = (treated[..., 1] + treated[..., 3]) / n1
        y0 = (control[..., 1] + control[..., 3]) / n0
        pooled_t00 = treated[..., 1].sum(axis=-1) / (
            treated[..., 0].sum(axis=-1) + treated[..., 1].sum(axis=-1)
        )
        pooled_c11 = control[..., 3].sum(axis=-1) / (
            control[..., 2].sum(axis=-1) + control[..., 3].sum(axis=-1)
        )
        design_t = np.stack([d01, d11], axis=-1)
        rhs_t = (y1 - pooled_t00[..., None] * d00)[..., None]
        coef_t, ok_t = _batched_ls(design_t, rhs_t)
        design_c = np.stack([d00, d01], axis=-1)
        rhs_c = (y0 - pooled_c11[..., None] * d11)[..., None]
        coef_c, ok_c = _batched_ls(design_c, rhs_c)
        treated_probs = np.stack(
            [pooled_t00, coef_t[..., 0, 0], coef_t[..., 1, 0]], axis=-1
        )
        control_probs = np.stack(
            [coef_c[..., 0, 0], coef_c[..., 1, 0], pooled_c11], axis=-1
        )
        effects = treated_probs - control_probs
        params = np.concatenate([treated_probs, control_probs, effects], axis=-1)
        return params, ok_t & ok_c

    def point(self, counts: np.ndarray) -> np.ndarray:
        params, ok = self._estimate(counts[None].astype(float))
        if not ok.all():
            raise InferenceError("singular score design in point estimation")
        return params[0]

    def bootstrap(
        self, counts: np.ndarray, n_draws: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        batch, keep = _resample_counts(counts, n_draws, rng, self._valid)
        params, ok = self._estimate(batch.astype(float))
        return params, keep & ok


def default_pipeline(spec: DgpSpec, population: Population):
    """The estimator used for a case's headline parameters."""
    if spec.case in ("c1", "c2"):
        return BinaryTransitionPipeline(population)
    if spec.case == "c3":
        return CompositeTransitionPipeline(population)
    if spec.case == "c4":
        return PrincipalFourStepPipeline(population)
    if population.has_surrogate:
        return CompositeTransitionPipeline(population)
    return BinaryTransitionPipeline(population)


def compute_metrics(
    estimates: np.ndarray, ses: np.ndarray, truth: np.ndarray
) -> dict[str, np.ndarray]:
    """Bias, SD, ESE and CP95 from a replicate matrix.

    ESE is the square root of the mean estimated variance; CP95 counts
    coverage of ``point +- 1.96 * se`` intervals.
    """
    bias = estimates.mean(axis=0) - truth
    sd = estimates.std(axis=0, ddof=1)
    ese = np.sqrt((ses**2).mean(axis=0))
    covered = np.abs(estimates - truth) <= Z95 * ses
    return {"bias": bias, "sd": sd, "ese": ese, "cp95": covered.mean(axis=0)}


@dataclass(frozen=True)
class StudyResult:
    """Replicated-study output: metrics plus the full replicate matrix."""

    spec: DgpSpec
    pipeline: str
    param_names: tuple[str, ...]
    truth: np.ndarray
    replicates: int
    bootstrap_replicates: int
    seed: int
    estimates: np.ndarray
    ses: np.ndarray
    n_failed: int
    metrics: dict[str, np.ndarray] = field(default_factory=dict)


def run_study(
    spec: DgpSpec,
    replicates: int,
    bootstrap_replicates: int,
    seed: int,
    *,
    pipeline=None,
    workers: int = 1,
) -> StudyResult:
    """Replicate a simulation case and summarize estimator performance.

    Per replicate: draw a dataset, estimate the case parameters, and
    attach bootstrap standard errors from ``bootstrap_replicates``
    stratified resamples. Failed replicates (beyond 5%) abort the study.
    """
    if replicates < 2:
        raise ValidationError("a study needs at least 2 replicates")
    if bootstrap_replicates < 2:
        raise ValidationError("bootstrap needs at least 2 replicates")
    population = dgp_population(spec)
    pipe = pipeline if pipeline is not None else default_pipeline(spec, population)
    width = len(pipe.param_names)
    estimates = np.full((replicates, width), np.nan)
    ses = np.full((replicates, width), np.nan)

    def one(index: int) -> tuple[np.ndarray, np.ndarray]:
        rng = replicate_rng(seed, index)
        counts = _draw_counts(population.cell_probs, spec.n_g, rng)
        try:
            point = pipe.point(counts)
            draws, keep = pipe.bootstrap(counts, bootstrap_replicates, rng)
        except InferenceError:
            return np.full(width, np.nan), np.full(width, np.nan)
        if keep.sum() < 0.9 * bootstrap_replicates:
            return np.full(width, np.nan), np.full(width, np.nan)
        return point, draws[keep].std(axis=0, ddof=1)

    if workers <= 1:
        for i in range(replicates):
            estimates[i], ses[i] = one(i)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for i, (est, se) in enumerate(pool.map(one, range(replicates))):
                estimates[i], ses[i] = est, se

    failed = np.isnan(estimates).any(axis=1) | np.isnan(ses).any(axis=1)
    n_failed = int(failed.sum())
    if n_failed > 0.05 * replicates:
        raise InferenceError(
            f"{n_failed} of {replicates} study replicates failed"
        )
    kept_est = estimates[~failed]
    kept_se = ses[~failed]
    return StudyResult(
        spec=spec,
        pipeline=pipe.name,
        param_names=tuple(pipe.param_names),
        truth=np.asarray(pipe.truth, dtype=float),
        replicates=replicates,
        bootstrap_replicates=bootstrap_replicates,
        seed=seed,
        estimates=kept_est,
        ses=kept_se,
        n_failed=n_failed,
        metrics=compute_metrics(kept_est, kept_se, np.asarray(pipe.truth, float)),
    )


def overid_size_study(
    spec: DgpSpec,
    replicates: int,
    bootstrap_replicates: int,
    seed: int,
    *,
    workers: int = 1,
) -> np.ndarray:
    """P-values of the overidentification test across simulated replicates.

    Each replicate bootstraps the per-trial residual standard errors
    from the same resamples that refit the transition parameters.
    """
    population = dgp_population(spec)
    if population.has_surrogate:
        raise ValidationError("the size study runs on binary-outcome cases")
    pipe = BinaryTransitionPipeline(population)
    m = population.cell_probs.shape[0]
    df = m - 2

    def one(index: int) -> float:
        rng = replicate_rng(seed, index)
        counts = _draw_counts(population.cell_probs, spec.n_g, rng)
        theta, residuals = pipe.point_with_residuals(counts)
        _, boot_resid, keep = pipe.bootstrap_with_residuals(
            counts, bootstrap_replicates, rng, fixed_theta=theta
        )
        sigma = boot_resid[keep].std(axis=0, ddof=1)
        if (sigma == 0).any():
            return np.nan
        stat = float(np.sum((residuals / sigma) ** 2))
        return chi2_sf(stat, df)

    p_values = np.empty(replicates)
    if workers <= 1:
        for i in range(replicates):
            p_values[i] = one(i)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for i, p in enumerate(pool.map(one, range(replicates))):
                p_values[i] = p
    return p_values
