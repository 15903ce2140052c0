"""The per-dataset object path, for library callers.

No command runs this code: every command works on frequency stacks
(:func:`~jointpo.data.observed_frequencies`) and batch statistics. The
library's object entry points live here, on top of the same kernels:
:func:`summarize` gives a dataset's per-trial vectors, :func:`build_system`
their design system, :func:`joint_from_transitions` and
:func:`derived_estimands` one trial's joint table and estimands,
:func:`plugin_variance` the closed-form sandwich standard errors, and
:func:`overid_test` the overidentification test of a point fit. The
bootstrap of a plain dataset-to-vector estimator rebuilds one dataset per
resample with :func:`_per_dataset`.

``data``, ``transition`` and ``inference`` forward these names here, so
``from jointpo.data import summarize`` and the package exports still work;
this module loads at the first use of one of them.
"""

from __future__ import annotations

import warnings
from typing import Callable, NamedTuple

import numpy as np

from .data import STATE_SPACES, FrequencyStack, MultiTrialDataset, observed_frequencies
from .errors import (
    ForcedSolveWarning,
    IdentificationError,
    JointpoError,
    JointpoWarning,
    ValidationError,
)
from .inference import BatchFit, VarianceEstimate, _normal_ci
from .overid import OveridTestResult, overid_result
from .transition import (
    DesignSystem,
    TransitionMatrix,
    design_system,
    estimand_vectors,
    flag_negative_joints,
    joint_tables,
    least_squares,
)


class TrialSummary(NamedTuple):
    """Per-trial conditional frequency vectors.

    Each vector is the exact ratio ``cell count / arm total``. The
    treated-side vectors are ``None`` for the control-only target trial.
    Composite vectors follow :data:`~jointpo.data.COMPOSITE_STATES` ordering.
    """

    trial_id: str
    is_target: bool
    arm_sizes: tuple[int, int]
    control_outcome: np.ndarray
    treated_outcome: np.ndarray | None
    control_surrogate: np.ndarray | None = None
    treated_surrogate: np.ndarray | None = None
    control_composite: np.ndarray | None = None
    treated_composite: np.ndarray | None = None


class Summaries(NamedTuple):
    """Sufficient statistics of a dataset: one :class:`TrialSummary` per
    experimental trial, plus the target trial's control-side summary."""

    trials: tuple[TrialSummary, ...]
    target: TrialSummary | None
    outcome_cardinality: int
    has_surrogate: bool

    @property
    def m(self) -> int:
        return len(self.trials)

    @property
    def trial_ids(self) -> tuple[str, ...]:
        return tuple(t.trial_id for t in self.trials)

    def arm_sizes(self) -> np.ndarray:
        return np.array([t.arm_sizes for t in self.trials], dtype=np.int64)

    def frequencies(self) -> FrequencyStack:
        """The experimental trials' vectors as a :class:`FrequencyStack` of
        one member, the form the estimators take."""

        def arms(space: str):
            if space != "outcome" and not self.has_surrogate:
                return None
            sides = (f"control_{space}", f"treated_{space}")
            return np.array([[getattr(t, side) for side in sides] for t in self.trials])[None]

        empty = np.zeros(1, dtype=bool)
        return FrequencyStack(self.arm_sizes()[None], empty, *map(arms, STATE_SPACES))


def summarize(dataset: MultiTrialDataset) -> Summaries:
    """Compute per-trial conditional frequencies, those of
    :func:`~jointpo.data.observed_frequencies`, which raises on an empty arm.
    For the target trial only control-side vectors are produced.
    """
    freqs = observed_frequencies(dataset)
    out = []
    for g, label in enumerate(dataset._labels):
        is_target = g == dataset.m
        vectors = {}
        for space in STATE_SPACES:
            arms = freqs.space(space)
            if arms is not None:
                vectors[f"control_{space}"] = arms[0, g, 0]
                vectors[f"treated_{space}"] = None if is_target else arms[0, g, 1]
        sizes = tuple(int(n) for n in freqs.sizes[0, g])
        out.append(TrialSummary(label, is_target, sizes, **vectors))
    return Summaries(
        trials=tuple(out[: dataset.m]),
        target=out[dataset.m] if dataset.target_id is not None else None,
        outcome_cardinality=dataset.outcome_cardinality,
        has_surrogate=dataset.has_surrogate,
    )


def build_system(
    summaries: Summaries,
    state_space: str = "outcome",
    *,
    mono_s: bool = False,
    mono_y: bool = False,
) -> DesignSystem:
    """Assemble the stacked linear system of a dataset's summaries for the
    requested state space: :func:`~jointpo.transition.design_system`."""
    return design_system(
        summaries.frequencies(), summaries.trial_ids, state_space, mono_s=mono_s, mono_y=mono_y
    )


class JointTable(NamedTuple):
    """Joint distribution of the control-arm and treated-arm potential
    states for one trial: ``table[a, b] = P(state0 = a, state1 = b)``."""

    trial_id: str
    table: np.ndarray
    negative_mass: bool


def joint_from_transitions(
    trans: TransitionMatrix, control_marginal: np.ndarray, trial_id: str = ""
) -> JointTable:
    """Combine transitions with a control-state marginal into the joint
    table ``J[a, b] = probs[a, b] * marginal[a]``.

    Row sums of the result reproduce the marginal exactly. Slightly
    negative cells (possible for unprojected estimates) are flagged,
    never clipped.
    """
    marginal = np.asarray(control_marginal, dtype=float)
    if marginal.shape != (trans.k,):
        raise ValidationError(
            f"control marginal must have length {trans.k}, got {marginal.shape}"
        )
    table = joint_tables(trans.probs, marginal)
    negative = bool(flag_negative_joints(table, [trial_id]))
    return JointTable(trial_id=trial_id, table=table, negative_mass=negative)


class DerivedEstimands(NamedTuple):
    """Scalar causal quantities derived from a binary joint table.

    ``None`` marks a quantity whose conditioning event has zero mass.
    """

    treatment_harm_rate: float
    treatment_benefit_rate: float
    persuasion_rate: float | None
    prob_sufficient_causation: float | None
    prob_necessary_causation: float | None


def derived_estimands(
    joint: JointTable | np.ndarray, favorable_label: int = 1
) -> DerivedEstimands:
    """Harm/benefit rates, the persuasion rate and attribution
    probabilities for a binary outcome.

    ``favorable_label`` names the outcome value counted as favorable.
    """
    table = joint.table if isinstance(joint, JointTable) else np.asarray(joint, float)
    if table.shape != (2, 2):
        raise ValidationError("derived estimands are defined for binary outcomes only")
    if favorable_label not in (0, 1):
        raise ValidationError("favorable_label must be 0 or 1")
    harm, benefit, persuasion, necessity = (
        float(v) for v in estimand_vectors(table, favorable_label)
    )
    persuasion = None if np.isnan(persuasion) else persuasion
    necessity = None if np.isnan(necessity) else necessity
    return DerivedEstimands(
        treatment_harm_rate=harm,
        treatment_benefit_rate=benefit,
        persuasion_rate=persuasion,
        prob_sufficient_causation=persuasion,
        prob_necessary_causation=necessity,
    )


def _two_state_margins(summaries: Summaries, space: str) -> tuple[np.ndarray, np.ndarray]:
    """The control frequencies ``(m, 2)`` and treated success rates ``(m,)``
    of :func:`build_system`'s two-state system."""
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
    fitted parameters). A ``sigma_g`` below ``1e-12`` raises
    :class:`~jointpo.errors.InferenceError`. Requires more trials than
    states for a p-value; with m == k the statistic is reported (it
    vanishes up to rounding) and the p-value is marked inapplicable.
    """
    residuals = transition_residuals(summaries, theta, space=space)
    return overid_result(summaries.trial_ids, residuals, sigma_g)


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
