"""Principal stratification: scores and stratum-level causal effects.

Strata are defined by the joint potential values (S0, S1) of the binary
post-treatment variable. Two estimation families are provided:

* a four-step estimator assuming stratum membership is monotone
  (S1 >= S0) and stratum-level outcome probabilities are trial
  invariant; transitions of the outcome are not needed (``method 1``);
* composite-state transition estimators that recover the full 16-cell
  joint law of (S0, S1, Y0, Y1) per trial, unconstrained (``method 4``,
  at least four trials) or with monotone structural zeros (``method 2``
  for both orderings, ``method 3`` for the outcome ordering only, where
  only part of the joint law is identified).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import COMPOSITE_STATES, FrequencyStack, Summaries
from .errors import (
    EstimationError,
    IdentificationError,
    MonotonicityWarning,
    OutOfRangeWarning,
    SchemaError,
    ValidationError,
)
from .transition import (
    TransitionMatrix,
    build_system,
    joint_tables,
    least_squares,
    solve_transitions,
)

STRATA = ("00", "01", "10", "11")

#: Cell provenance markers used by partially identified solves.
CELL_IDENTIFIED = "identified"
CELL_STRUCTURAL_ZERO = "structural_zero"
CELL_UNAVAILABLE = "unavailable"


@dataclass(frozen=True)
class PrincipalScores:
    """Stratum membership probabilities per trial.

    Columns follow :data:`STRATA`; under the monotone ordering the
    ``10`` column is identically zero. A negative ``01`` entry signals
    an empirical violation of monotonicity; it is clipped to zero (with
    renormalization of the ``00``/``11`` entries) only on request.
    """

    trial_ids: tuple[str, ...]
    table: np.ndarray
    clipped: bool
    violations: tuple[str, ...]

    def column(self, stratum: str) -> np.ndarray:
        return self.table[:, STRATA.index(stratum)].copy()


def principal_scores(
    summaries: Summaries, *, clip_negative: bool = False
) -> PrincipalScores:
    """Estimate stratum membership probabilities under S1 >= S0.

    Identities: P(11) equals the control-arm surrogate rate, P(01) the
    treated-control difference in surrogate rates, P(10) is zero and
    P(00) the complement.
    """
    if not summaries.has_surrogate:
        raise SchemaError("principal scores require surrogate data")
    table = score_tables(
        np.array([t.control_surrogate[1] for t in summaries.trials]),
        np.array([t.treated_surrogate[1] for t in summaries.trials]),
    )
    violations = [
        tid for tid, d01 in zip(summaries.trial_ids, table[:, 1]) if d01 < 0
    ]
    clipped = False
    if violations:
        warnings.warn(
            "treated surrogate rate below control rate in trial(s) "
            f"{', '.join(violations)}; the monotone ordering looks violated",
            MonotonicityWarning,
            stacklevel=2,
        )
        if clip_negative:
            clipped = True
            table = clip_score_tables(table)
    table.flags.writeable = False
    return PrincipalScores(
        trial_ids=summaries.trial_ids,
        table=table,
        clipped=clipped,
        violations=tuple(violations),
    )


def score_tables(control_rate: np.ndarray, treated_rate: np.ndarray) -> np.ndarray:
    """Stratum scores ``(..., 4)`` over :data:`STRATA` from control and
    treated surrogate rates under S1 >= S0."""
    d11 = control_rate
    d01 = treated_rate - d11
    d00 = 1.0 - treated_rate
    return np.stack([d00, d01, np.zeros_like(d00), d11], axis=-1)


def clip_score_tables(table: np.ndarray) -> np.ndarray:
    """Zero negative ``01`` scores, renormalizing ``00`` and ``11`` of those rows."""
    table = np.array(table)
    bad = table[..., 1] < 0
    rows = table[bad]
    rows[:, [0, 3]] /= (rows[:, 0] + rows[:, 3])[:, None]
    rows[:, 1] = 0.0
    table[bad] = rows
    return table


@dataclass(frozen=True)
class StratumOutcomeParams:
    """Trial-invariant outcome probabilities per principal stratum.

    ``treated_prob[s]`` is P(Y1 = 1 | stratum s) and ``control_prob[s]``
    is P(Y0 = 1 | stratum s) for s in {"00", "01", "11"}; the "10"
    stratum is empty under the monotone ordering.
    """

    treated_prob: dict[str, float]
    control_prob: dict[str, float]
    out_of_range: bool


@dataclass(frozen=True)
class PsaceTable:
    """Average causal effects per (trial, stratum).

    ``estimates`` is (m, 4) over :data:`STRATA` with NaN where
    ``defined`` is False. ``mask_used`` records monotonicity
    assumptions baked into the estimate.
    """

    method: int
    trial_ids: tuple[str, ...]
    estimates: np.ndarray
    defined: np.ndarray
    mask_used: tuple[str, ...]

    def stratum(self, stratum: str) -> np.ndarray:
        return self.estimates[:, STRATA.index(stratum)].copy()


@dataclass(frozen=True)
class FourWayJoint:
    """Per-trial joint law of (S0, S1, Y0, Y1).

    ``probs[g, a, b, c, d]`` estimates P(S0=a, S1=b, Y0=c, Y1=d | trial g).
    ``cell_status`` marks each of the 16 cells as identified, forced to
    zero by a monotone ordering, or unavailable under partial
    identification.
    """

    trial_ids: tuple[str, ...]
    probs: np.ndarray
    cell_status: np.ndarray
    mask_used: tuple[str, ...]
    negative_mass: bool


def _check_binary_outcome(summaries: Summaries):
    if not summaries.has_surrogate:
        raise SchemaError("this estimator requires surrogate data")
    if summaries.outcome_cardinality != 2:
        raise ValidationError("this estimator requires a binary outcome")


def _pooled_rate(composite: np.ndarray, sizes: np.ndarray, s_value: int):
    """P(Y=1 | S=s) of one arm pooled over trials with arm-size weights,
    and its denominator. The sums are running totals over the trials in
    order (``cumsum``), which round the same for any stack size."""
    num = np.cumsum(sizes * composite[..., 2 * s_value + 1], axis=-1)[..., -1]
    den = np.cumsum(
        sizes * (composite[..., 2 * s_value] + composite[..., 2 * s_value + 1]), axis=-1
    )[..., -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        return num / den, den


#: Why method 1 fails, by the status code :func:`method1_arrays` returns.
_METHOD1_FAILURES = (
    (EstimationError, "no units with surrogate=0 in arm 1; a pooled outcome rate is undefined"),
    (EstimationError, "no units with surrogate=1 in arm 0; a pooled outcome rate is undefined"),
    (
        IdentificationError,
        "rank condition failed for the treated-outcome step: the "
        "principal-score design [P(01), P(11)] is not full column rank",
    ),
    (
        IdentificationError,
        "rank condition failed for the control-outcome step: the "
        "principal-score design [P(00), P(01)] is not full column rank",
    ),
)


def method1_arrays(
    scores: np.ndarray, outcome: np.ndarray, composite: np.ndarray, sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Steps 2 and 3 of method 1 on stacks of trial tables.

    Takes ``(..., m, 4)`` scores, ``(..., m, 2, 2)`` arm-by-outcome and
    ``(..., m, 2, 4)`` arm-by-composite frequencies and ``(..., m, 2)`` arm
    sizes. Returns treated and control outcome probabilities ``(..., 3)``
    of strata 00, 01, 11 and a status per stack member: 0 when defined,
    else 1 + the index of the failure in ``_METHOD1_FAILURES``.
    """
    d00, d01, d11 = scores[..., 0], scores[..., 1], scores[..., 3]
    treated_00, den_t = _pooled_rate(composite[..., 1, :], sizes[..., 1], 0)
    control_11, den_c = _pooled_rate(composite[..., 0, :], sizes[..., 0], 1)
    rhs_t = outcome[..., 1, 1] - treated_00[..., None] * d00
    rhs_c = outcome[..., 0, 1] - control_11[..., None] * d11
    coef_t, ok_t = least_squares(np.stack([d01, d11], axis=-1), rhs_t[..., None])
    coef_c, ok_c = least_squares(np.stack([d00, d01], axis=-1), rhs_c[..., None])
    status = np.select([den_t <= 0, den_c <= 0, ~ok_t, ~ok_c], [1, 2, 3, 4], 0)
    treated = np.stack([treated_00, coef_t[..., 0, 0], coef_t[..., 1, 0]], axis=-1)
    control = np.stack([coef_c[..., 0, 0], coef_c[..., 1, 0], control_11], axis=-1)
    return treated, control, status


def method1_stack(freqs: FrequencyStack, m: int, *, clip_scores: bool = False):
    """:func:`method1_arrays` on the first ``m`` trials of a frequency stack,
    scored from its surrogate rates (clipped under ``clip_scores``)."""
    rates = freqs.surrogate[:, :m, :, 1]
    scores = score_tables(rates[:, :, 0], rates[:, :, 1])
    if clip_scores:
        scores = clip_score_tables(scores)
    return method1_arrays(scores, freqs.outcome[:, :m], freqs.composite[:, :m], freqs.sizes[:, :m])


def method1_effects(treated: np.ndarray, control: np.ndarray, m: int) -> np.ndarray:
    """Per-trial effect tables ``(..., m, 4)`` over :data:`STRATA` from the
    stratum probabilities of :func:`method1_arrays`; the ``10`` stratum is
    empty under the monotone ordering and reads NaN."""
    effect = treated - control
    row = np.stack(
        [effect[..., 0], effect[..., 1], np.full(effect.shape[:-1], np.nan), effect[..., 2]],
        axis=-1,
    )
    return np.repeat(row[..., None, :], m, axis=-2)


def method1_estimate(
    summaries: Summaries, *, clip_scores: bool = False
) -> tuple[StratumOutcomeParams, PsaceTable]:
    """Four-step estimator of stratum outcome probabilities and effects.

    Step 1 estimates principal scores and arm-wise outcome rates per
    trial. Step 2 reads the two strata pinned down by the monotone
    ordering from pooled frequencies: P(Y1=1 | "00") from treated units
    with S=0 and P(Y0=1 | "11") from control units with S=1. Step 3
    recovers the remaining stratum probabilities by regressing the
    score-adjusted outcome rates on the scores across trials. Step 4
    differences treated and control probabilities per stratum.
    """
    _check_binary_outcome(summaries)
    return method1_from_scores(
        summaries, principal_scores(summaries, clip_negative=clip_scores)
    )


def method1_from_scores(
    summaries: Summaries, scores: PrincipalScores
) -> tuple[StratumOutcomeParams, PsaceTable]:
    """Steps 2 to 4 of :func:`method1_estimate` on given step-1 scores."""
    _check_binary_outcome(summaries)
    trials = summaries.trials
    outcome = np.array([[t.control_outcome, t.treated_outcome] for t in trials])
    composite = np.array([[t.control_composite, t.treated_composite] for t in trials])
    probs_t, probs_c, status = method1_arrays(
        scores.table[None], outcome[None], composite[None], summaries.arm_sizes()[None]
    )
    if status[0]:
        error, message = _METHOD1_FAILURES[status[0] - 1]
        raise error(message)

    treated = dict(zip(("00", "01", "11"), (float(v) for v in probs_t[0])))
    control = dict(zip(("00", "01", "11"), (float(v) for v in probs_c[0])))
    out_of_range = any(
        not (-1e-12 <= v <= 1 + 1e-12)
        for v in list(treated.values()) + list(control.values())
    )
    if out_of_range:
        warnings.warn(
            "stratum outcome probabilities fall outside [0, 1]; "
            "values reported raw",
            OutOfRangeWarning,
            stacklevel=2,
        )
    params = StratumOutcomeParams(
        treated_prob=treated, control_prob=control, out_of_range=out_of_range
    )
    effects = method1_effects(probs_t[0], probs_c[0], summaries.m)
    table = PsaceTable(
        method=1,
        trial_ids=summaries.trial_ids,
        estimates=effects,
        defined=~np.isnan(effects),
        mask_used=("mono_s",),
    )
    return params, table


def _fourway_from_transitions(
    trans: TransitionMatrix, summaries: Summaries, mask_used: tuple[str, ...]
) -> FourWayJoint:
    control = np.stack([t.control_composite for t in summaries.trials])
    probs = fourway_tables(trans.probs, control)
    status = np.empty((2, 2, 2, 2), dtype=object)
    for i, (a, c) in enumerate(COMPOSITE_STATES):
        for j, (b, d) in enumerate(COMPOSITE_STATES):
            if not trans.support_mask[i, j]:
                status[a, b, c, d] = CELL_STRUCTURAL_ZERO
            elif not trans.determined[i, j]:
                status[a, b, c, d] = CELL_UNAVAILABLE
            else:
                status[a, b, c, d] = CELL_IDENTIFIED
    negative = bool(np.nanmin(probs) < -1e-12)
    if negative:
        warnings.warn(
            "joint stratum-outcome law has negative cells; values reported raw",
            OutOfRangeWarning,
            stacklevel=3,
        )
    return FourWayJoint(
        trial_ids=summaries.trial_ids,
        probs=probs,
        cell_status=status,
        mask_used=mask_used,
        negative_mass=negative,
    )


_MASS_TOL = 1e-12


def fourway_tables(probs: np.ndarray, control: np.ndarray) -> np.ndarray:
    """Per-trial joint laws ``(..., m, 2, 2, 2, 2)`` indexed
    ``[S0, S1, Y0, Y1]``, from ``(..., 4, 4)`` composite transitions and
    ``(..., m, 4)`` control composite frequencies."""
    cells = joint_tables(probs[..., None, :, :], control)  # (..., m, (a, c), (b, d))
    cells = cells.reshape(cells.shape[:-2] + (2, 2, 2, 2))
    return np.ascontiguousarray(np.swapaxes(cells, -3, -2))


def psace_tables(
    fourway: np.ndarray, mono_s: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stratum effects of ``(..., m, 2, 2, 2, 2)`` joint laws.

    Returns ``(..., m, 4)`` effects over :data:`STRATA` (NaN where
    undefined), the matching ``defined`` flags, and ``(..., 4)`` flags of
    strata with negative estimated mass in some trial. A stratum touching
    an unavailable (NaN) cell of a stack member is undefined in all of that
    member's trials; so is ``10`` under ``mono_s``.
    """
    effects = np.full(fourway.shape[:-4] + (4,), np.nan)
    defined = np.zeros(effects.shape, dtype=bool)
    negative = np.zeros(fourway.shape[:-5] + (4,), dtype=bool)
    for j, s in enumerate(STRATA):
        a, b = int(s[0]), int(s[1])
        if mono_s and s == "10":
            continue
        cells = fourway[..., a, b, :, :]  # (..., m, 2, 2) over (c, d)
        available = ~np.isnan(cells).any(axis=(-3, -2, -1))
        mass = cells.sum(axis=(-2, -1))
        contrast = cells[..., 0, 1] - cells[..., 1, 0]  # (d - c) weighting
        ok = (mass > _MASS_TOL) & available[..., None]
        with np.errstate(divide="ignore", invalid="ignore"):
            effects[..., j] = np.where(ok, contrast / mass, np.nan)
        defined[..., j] = ok
        negative[..., j] = available & (mass < -_MASS_TOL).any(axis=-1)
    return effects, defined, negative


def _psace_from_fourway(
    joint: FourWayJoint, method: int, mono_s: bool
) -> PsaceTable:
    effects, defined, negative = psace_tables(joint.probs, mono_s)
    if negative.any():
        s = STRATA[int(np.argmax(negative))]
        warnings.warn(
            f"nonpositive estimated mass for stratum {s}; effect marked undefined",
            OutOfRangeWarning,
            stacklevel=3,
        )
    return PsaceTable(
        method=method,
        trial_ids=joint.trial_ids,
        estimates=effects,
        defined=defined,
        mask_used=joint.mask_used,
    )


_MONOTONICITY_CHOICES = ("none", "mono_y", "mono_s", "both")

#: (mono_s, mono_y) of each composite psace method.
PSACE_ORDERINGS = {2: (True, True), 3: (False, True), 4: (False, False)}


def _composite_estimate(
    summaries: Summaries,
    method: int,
    mono_s: bool,
    mono_y: bool,
    *,
    force: bool,
    project: bool,
) -> tuple[FourWayJoint, PsaceTable]:
    # Method 3 reports what its masked system identifies; the others need
    # the whole joint law.
    allow_partial = method == 3
    _check_binary_outcome(summaries)
    if not (mono_s and mono_y) and summaries.m < 4 and not allow_partial:
        need = "m >= 4" if not (mono_s or mono_y) else "m >= 4 (single ordering)"
        raise IdentificationError(
            f"composite estimation with this monotonicity setting requires "
            f"{need} trials, got m={summaries.m}"
        )
    system = build_system(summaries, "composite", mono_s=mono_s, mono_y=mono_y)
    trans = solve_transitions(
        system, force=force, allow_partial=allow_partial, project_simplex=project
    )
    mask_used = tuple(
        name for name, flag in (("mono_s", mono_s), ("mono_y", mono_y)) if flag
    )
    joint = _fourway_from_transitions(trans, summaries, mask_used)
    table = _psace_from_fourway(joint, method, mono_s)
    return joint, table


def method4_estimate(
    summaries: Summaries,
    monotonicity: str = "none",
    *,
    force: bool = False,
    project: bool = False,
) -> tuple[FourWayJoint, PsaceTable]:
    """Estimate the 16-cell joint law and stratum effects per trial.

    Without monotonicity the composite design needs at least four trials
    of full column rank; with both orderings two suffice. The result is
    fully identified or the call raises.
    """
    if monotonicity not in _MONOTONICITY_CHOICES:
        raise ValidationError(f"unknown monotonicity setting {monotonicity!r}")
    mono_s = monotonicity in ("mono_s", "both")
    mono_y = monotonicity in ("mono_y", "both")
    return _composite_estimate(summaries, 4, mono_s, mono_y, force=force, project=project)


def monotone_variant_estimate(
    summaries: Summaries,
    which: str = "method2",
    *,
    force: bool = False,
    project: bool = False,
) -> tuple[FourWayJoint, PsaceTable]:
    """Monotonicity-constrained composite estimators.

    ``method2`` assumes both orderings (S1 >= S0 and Y1 >= Y0) and fully
    identifies the joint law from two or more trials. ``method3``
    assumes only Y1 >= Y0; with fewer than four trials only the cells
    derivable from the masked system are produced and the rest are
    marked unavailable.
    """
    method = {"method2": 2, "method3": 3}.get(which)
    if method is None:
        raise ValidationError(f"unknown variant {which!r}; use 'method2' or 'method3'")
    return _composite_estimate(
        summaries, method, *PSACE_ORDERINGS[method], force=force, project=project
    )
