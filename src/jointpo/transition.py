"""Linear identification system for state-transition probabilities.

For each trial g the treated-arm state distribution is a fixed linear
mixture of the control-arm state distribution, with mixture weights
given by a trial-invariant transition matrix ``P[i, b] = P(state1 = b |
state0 = i)``. Stacking trials produces an (over)determined linear
system solved by least squares; with at least as many trials as states
and a full-column-rank design, the transition matrix is the unique
minimizer.

Monotone structural zeros are expressed through a boolean support mask.
Masked systems are solved column by column on reduced designs: each
non-terminal target column regresses its treated frequencies on the
allowed source columns only, and the terminal (largest) state, which a
monotone mask allows from every source, is completed per row so that
rows sum to one by construction.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np

from . import _relocated
from .data import COMPOSITE_STATES, STATE_SPACES, FrequencyStack, _Frozen
from .errors import (
    ForcedSolveWarning,
    IdentificationError,
    OutOfRangeWarning,
    SchemaError,
    ValidationError,
)

_DEFAULT_RANK_TOL = 1e-8

COMPOSITE_STATE_LABELS = tuple(f"s={s},y={y}" for s, y in COMPOSITE_STATES)


class DesignSystem(_Frozen):
    """Stacked per-trial state frequencies for one state space.

    ``design`` rows are control-arm distributions, ``response`` rows are
    treated-arm distributions; both are row-stochastic. ``support_mask``
    marks allowed transitions (True everywhere when unconstrained).
    """

    __slots__ = _fields = ("design", "response", "state_labels", "support_mask", "trial_ids")
    __hash__ = None

    def __init__(
        self,
        design: np.ndarray,
        response: np.ndarray,
        state_labels: tuple[str, ...],
        support_mask: np.ndarray,
        trial_ids: tuple[str, ...],
    ):
        M = np.array(design, dtype=float)
        R = np.array(response, dtype=float)
        mask = np.array(support_mask, dtype=bool)
        k = len(state_labels)
        if M.shape != R.shape or M.ndim != 2 or M.shape[1] != k:
            raise ValidationError("design and response must be (m, k) matrices")
        if mask.shape != (k, k):
            raise ValidationError("support mask must be (k, k)")
        for name, mat in (("design", M), ("response", R)):
            # Written so that a NaN row fails it too.
            if not (np.abs(mat.sum(axis=1) - 1.0) <= 1e-12).all():
                raise ValidationError(f"{name} rows must sum to 1 within 1e-12")
        if not mask.any(axis=1).all():
            raise ValidationError("every source state needs an allowed transition")
        M.flags.writeable = False
        R.flags.writeable = False
        mask.flags.writeable = False
        self._set(
            design=M,
            response=R,
            state_labels=state_labels,
            support_mask=mask,
            trial_ids=trial_ids,
        )

    @property
    def m(self) -> int:
        return self.design.shape[0]

    @property
    def k(self) -> int:
        return self.design.shape[1]

    @property
    def is_masked(self) -> bool:
        return not bool(self.support_mask.all())


class ColumnRank(NamedTuple):
    """Rank diagnostics for one target column of a masked system."""

    target: str
    sources: tuple[str, ...]
    singular_values: tuple[float, ...]
    condition_ratio: float
    satisfied: bool
    mode: str  # "least_squares" or "completed"
    reason: str | None = None


class RankDiagnostics(NamedTuple):
    """Singular-value diagnostics of the design matrix.

    ``satisfied`` reflects both the numerical condition ratio
    (sigma_min / sigma_max above ``tol_ratio``) and the trial-count
    feasibility requirement: a k-column design is full rank only if
    m >= k.
    """

    singular_values: tuple[float, ...]
    condition_ratio: float
    satisfied: bool
    feasible: bool
    reason: str | None
    tol_ratio: float
    columns: tuple[ColumnRank, ...] | None = None


def _state_labels(space: str, k: int) -> tuple[str, ...]:
    if space == "outcome":
        return tuple(f"y={i}" for i in range(k))
    if space == "surrogate":
        return ("s=0", "s=1")
    return COMPOSITE_STATE_LABELS


def monotone_mask(space: str, mono_s: bool, mono_y: bool) -> np.ndarray:
    """Support mask of the surrogate or composite space under the given
    monotone orderings (True where a transition is allowed)."""
    if space == "surrogate":
        mask = np.ones((2, 2), dtype=bool)
        if mono_s:
            mask[1, 0] = False
        return mask
    mask = np.ones((4, 4), dtype=bool)
    for i, (s0, y0) in enumerate(COMPOSITE_STATES):
        for j, (s1, y1) in enumerate(COMPOSITE_STATES):
            if mono_s and s1 < s0:
                mask[i, j] = False
            if mono_y and y1 < y0:
                mask[i, j] = False
    return mask


def design_system(
    freqs: FrequencyStack,
    trial_ids: tuple[str, ...],
    state_space: str = "outcome",
    *,
    mono_s: bool = False,
    mono_y: bool = False,
) -> DesignSystem:
    """The stacked linear system of the experimental trials ``trial_ids``,
    the first of member 0 of ``freqs``, in the requested state space.

    ``state_space`` is one of ``outcome`` (the k outcome categories),
    ``surrogate`` (the binary post-treatment variable) or ``composite``
    (the 4-state product of surrogate and binary outcome). Monotonicity
    flags add structural zeros and are meaningful only when the
    corresponding variable is part of the state space.
    """
    m = len(trial_ids)
    if state_space not in STATE_SPACES:
        raise ValidationError(f"unknown state space {state_space!r}")
    if m < 2:
        raise IdentificationError(
            f"estimation needs at least 2 experimental trials, got m={m}"
        )
    if state_space in ("surrogate", "composite") and freqs.surrogate is None:
        raise SchemaError(
            f"state space {state_space!r} requires a surrogate column in the data"
        )
    if state_space == "outcome" and (mono_s or mono_y):
        raise ValidationError(
            "monotonicity flags apply to the surrogate and composite spaces only"
        )
    if state_space == "surrogate" and mono_y:
        raise ValidationError("mono_y is undefined on the surrogate state space")
    if state_space == "composite" and freqs.outcome.shape[-1] != 2:
        raise ValidationError("the composite state space requires a binary outcome")

    arms = freqs.space(state_space)[0, :m]
    k = arms.shape[-1]
    if state_space == "outcome":
        mask = np.ones((k, k), dtype=bool)
    else:
        mask = monotone_mask(state_space, mono_s, mono_y)
    return DesignSystem(
        design=arms[:, 0],
        response=arms[:, 1],
        state_labels=_state_labels(state_space, k),
        support_mask=mask,
        trial_ids=tuple(trial_ids),
    )


def condition_ratios(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values and ``sigma_min / sigma_max`` (0 for a zero matrix)
    of every matrix in a ``(..., m, p)`` stack."""
    sv = np.linalg.svd(matrices, compute_uv=False)
    top = sv[..., 0]
    ratio = np.divide(sv[..., -1], top, out=np.zeros_like(top), where=top > 0)
    return sv, ratio


def _svd_ratio(matrix: np.ndarray) -> tuple[tuple[float, ...], float]:
    sv, ratio = condition_ratios(matrix)
    return tuple(float(s) for s in sv), float(ratio)


def check_rank(system: DesignSystem) -> RankDiagnostics:
    """Diagnose whether the design identifies the transition parameters, at
    the tolerance of :func:`least_squares`.

    Unmasked systems need the full (m, k) design to have rank k. Masked
    systems are judged per target column on the reduced design of
    allowed source states; the terminal column, obtained by row
    completion, is always satisfiable.
    """
    M = system.design
    m, k = M.shape
    sv, ratio = _svd_ratio(M)
    if not system.is_masked:
        satisfied, reason = _rank_verdict(m, k, ratio, f"m < k (m={m}, k={k})")
        return RankDiagnostics(
            singular_values=sv,
            condition_ratio=ratio,
            satisfied=satisfied,
            feasible=m >= k,
            reason=reason,
            tol_ratio=_DEFAULT_RANK_TOL,
        )

    columns: list[ColumnRank] = []
    for b, target in enumerate(system.state_labels):
        idx = np.flatnonzero(system.support_mask[:, b])
        sources = tuple(system.state_labels[i] for i in idx)
        if b == k - 1 or idx.size == 0:
            # The terminal column is completed per row; one without sources is zero.
            mode = "completed" if b == k - 1 else "least_squares"
            columns.append(ColumnRank(target, sources, (), 1.0, True, mode))
            continue
        sub_sv, sub_ratio = _svd_ratio(M[:, idx])
        ok, reason = _rank_verdict(
            m, idx.size, sub_ratio, f"m < sources (m={m}, sources={idx.size})"
        )
        columns.append(
            ColumnRank(
                target=target,
                sources=sources,
                singular_values=sub_sv,
                condition_ratio=sub_ratio,
                satisfied=ok,
                mode="least_squares",
                reason=reason,
            )
        )
    bad = [c.target for c in columns if not c.satisfied]
    return RankDiagnostics(
        singular_values=sv,
        condition_ratio=ratio,
        satisfied=not bad,
        feasible=not bad,
        reason=f"reduced design rank failure for target column(s): {', '.join(bad)}"
        if bad
        else None,
        tol_ratio=_DEFAULT_RANK_TOL,
        columns=tuple(columns),
    )


def _rank_verdict(m: int, p: int, ratio: float, shortfall: str) -> tuple[bool, str | None]:
    """Whether an ``(m, p)`` design of condition ratio ``ratio`` identifies
    its coefficients, and if not why (``shortfall`` when ``m < p``)."""
    if m < p:
        return False, shortfall
    if ratio > _DEFAULT_RANK_TOL:
        return True, None
    return False, f"condition ratio {ratio:.3e} <= {_DEFAULT_RANK_TOL:.1e}"


class TransitionMatrix(NamedTuple):
    """Estimated transition probabilities ``probs[i, b]``.

    Masked-out entries are exactly zero. ``determined`` is False for
    entries a partially identified masked solve could not pin down
    (those entries are NaN). When ``projected`` is set, every determined
    row was Euclidean-projected onto the probability simplex.
    """

    probs: np.ndarray
    support_mask: np.ndarray
    state_labels: tuple[str, ...]
    projected: bool
    determined: np.ndarray
    diagnostics: RankDiagnostics
    forced: bool = False
    out_of_range: bool = False

    @property
    def k(self) -> int:
        return self.probs.shape[0]

    def parameter_labels(self) -> tuple[str, ...]:
        labels = []
        for i, src in enumerate(self.state_labels):
            for b, dst in enumerate(self.state_labels):
                if self.support_mask[i, b]:
                    labels.append(f"P({dst}|{src})")
        return tuple(labels)

    def parameter_values(self) -> np.ndarray:
        return self.probs[self.support_mask]


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex of a vector, or of
    each vector along the last axis of a stack."""
    v = np.asarray(v, dtype=float)
    u = np.flip(np.sort(v, axis=-1), axis=-1)
    cumulative = np.cumsum(u, axis=-1) - 1.0
    idx = np.arange(1, v.shape[-1] + 1)
    positive = u - cumulative / idx > 0
    # rho is the 1-based position of the last positive entry.
    rho = v.shape[-1] - np.argmax(np.flip(positive, axis=-1), axis=-1)
    tau = np.take_along_axis(cumulative, (rho - 1)[..., None], axis=-1)[..., 0] / rho
    return np.maximum(v - tau[..., None], 0.0)


def _min_norm(design: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    # The SVD solve of ``np.linalg.lstsq``: singular values at or below
    # ``eps * max(m, p)`` times the largest are dropped.
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    cutoff = np.finfo(float).eps * max(design.shape[-2:]) * s[..., :1]
    inverse = np.divide(1.0, s, out=np.zeros_like(s), where=s > cutoff)
    return np.swapaxes(vt, -1, -2) @ (inverse[..., None] * (np.swapaxes(u, -1, -2) @ rhs))


def _back_substitute(r: np.ndarray, z: np.ndarray) -> np.ndarray:
    # Solves the upper-triangular systems r x = z of a (n, p, p) stack by
    # column-oriented back substitution, with the stack on the last axis so
    # that every step is one vector operation across it.
    rt = r.transpose(1, 2, 0)
    x = np.ascontiguousarray(z.transpose(1, 2, 0))
    for i in range(r.shape[-1] - 1, -1, -1):
        x[i] /= rt[i, i]
        x[:i] -= rt[:i, i, None] * x[i]
    return x.transpose(2, 0, 1)


#: Relative slack around the rank tolerance inside which the Frobenius bound
#: defers to the SVD; the bound's own rounding near the tolerance is about
#: ``kappa * eps``, some 1e-8 relative, far inside it.
_BOUND_SLACK = 1e-3


def least_squares(
    design: np.ndarray, rhs: np.ndarray, *, force: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares coefficients ``(..., p, q)`` of a ``(..., m, p)`` stack
    of designs and ``(..., m, q)`` right-hand sides, with the rank decision
    of :func:`check_rank` per member: ``m >= p`` and
    ``sigma_min / sigma_max > 1e-8``.

    One QR factorization ``A = QR`` and one triangular solve of
    ``R X = [Q^T b | I]`` give the coefficients and ``R^-1``. Since
    ``b = 1 / (|R|_F |R^-1|_F)`` bounds the condition ratio as
    ``b <= ratio <= p * b``, only members whose bound straddles the
    tolerance take the SVD of :func:`condition_ratios`. Unidentified
    members are NaN, or under ``force`` the minimum-norm solution of
    ``np.linalg.lstsq``.
    """
    design = np.asarray(design, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    batch = design.shape[:-2]
    m, p = design.shape[-2:]
    q = rhs.shape[-1]
    a = design.reshape((-1, m, p))
    y = rhs.reshape((-1, m, q))
    coef = np.full((len(a), p, q), np.nan)
    identified = np.zeros(len(a), dtype=bool)
    if m >= p:
        qm, r = np.linalg.qr(a)
        eye = np.broadcast_to(np.eye(p), r.shape)
        # A zero on the diagonal of R (A singular up to rounding) gives an
        # infinite inverse and a zero bound.
        with np.errstate(all="ignore"):
            x = _back_substitute(r, np.concatenate([np.swapaxes(qm, 1, 2) @ y, eye], axis=2))
            bound = 1.0 / np.sqrt((r * r).sum(axis=(1, 2)) * (x[..., q:] ** 2).sum(axis=(1, 2)))
        identified = bound > _DEFAULT_RANK_TOL * (1 + _BOUND_SLACK)
        band = ~identified & (p * bound >= _DEFAULT_RANK_TOL * (1 - _BOUND_SLACK))
        if band.any():
            identified[band] = condition_ratios(a[band])[1] > _DEFAULT_RANK_TOL
        coef = np.where(identified[:, None, None], x[..., :q], np.nan)
    if force and not identified.all():
        coef[~identified] = _min_norm(a[~identified], y[~identified])
    return coef.reshape(batch + (p, q)), identified.reshape(batch)


def fit_transitions(
    design: np.ndarray,
    response: np.ndarray,
    mask: np.ndarray,
    *,
    force: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares transition matrices ``(B, k, k)`` of a ``(B, m, k)``
    stack of designs and responses sharing one support mask, and the
    ``(B,)`` flag of members whose every solved column passed the rank check
    of :func:`least_squares`.

    Unmasked members are solved on the full design; masked members column by
    column on reduced designs, with the terminal column completed per row.
    A column that fails the rank check is solved minimum-norm under
    ``force`` and left NaN otherwise.
    """
    design = np.asarray(design, dtype=float)
    response = np.asarray(response, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    n, _, k = design.shape
    if mask.all():
        return least_squares(design, response, force=force)
    if not mask[:, k - 1].all():
        raise ValidationError(
            "masked solves require the terminal state to be reachable "
            "from every source state"
        )
    probs = np.where(mask, np.nan, 0.0)[None].repeat(n, axis=0)
    identified = np.ones(n, dtype=bool)
    for b in range(k - 1):
        idx = np.flatnonzero(mask[:, b])
        if idx.size:
            coef, ok = least_squares(design[:, :, idx], response[:, :, b, None], force=force)
            probs[:, idx, b] = coef[..., 0]
            identified &= ok
    # Row completion: the terminal column absorbs the remaining mass.
    partial = probs[:, :, : k - 1]
    probs[:, :, k - 1] = np.where(
        np.isnan(partial).any(axis=-1), np.nan, 1.0 - partial.sum(axis=-1)
    )
    return probs, identified


def project_rows(probs: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Project every determined row of a ``(..., k, k)`` stack of transition
    matrices onto the simplex over its allowed entries."""
    probs = np.array(probs, dtype=float)
    for i in range(probs.shape[-1]):
        idx = np.flatnonzero(mask[i])
        row = probs[..., i, idx]
        undetermined = np.isnan(row).any(axis=-1, keepdims=True)
        probs[..., i, idx] = np.where(undetermined, row, project_to_simplex(row))
    return probs


def fit_system(
    system: DesignSystem,
    *,
    project_simplex: bool = False,
    force: bool = False,
    allow_partial: bool = False,
) -> TransitionMatrix:
    """Least-squares estimate of the transition matrix of ``system``: the
    :func:`fit_transitions` of a stack of one, with the diagnostics of
    :func:`check_rank`.

    An unmasked system that fails the rank check raises
    :class:`IdentificationError` unless ``force`` solves it minimum-norm,
    which warns, as does each forced column of a masked system. A masked
    system with undetermined (NaN) columns raises unless ``allow_partial``.
    Estimates outside [0, 1] warn, or with ``project_simplex`` every
    determined row is projected onto the simplex.
    """
    diagnostics = check_rank(system)
    if not system.is_masked and not diagnostics.satisfied and not force:
        raise IdentificationError(
            f"design matrix is not full column rank: {diagnostics.reason}"
        )
    probs, identified = fit_transitions(
        system.design[None], system.response[None], system.support_mask, force=force
    )
    probs = probs[0]
    forced = force and not identified[0]
    if forced and not system.is_masked:
        warnings.warn(
            f"solving despite rank failure ({diagnostics.reason}); "
            "coefficients are minimum-norm",
            ForcedSolveWarning,
            stacklevel=2,
        )
    elif forced:
        for b, col in enumerate(diagnostics.columns[:-1]):
            if not col.satisfied:
                warnings.warn(
                    f"column {system.state_labels[b]!r} solved despite rank "
                    f"failure ({col.reason})",
                    ForcedSolveWarning,
                    stacklevel=2,
                )
    determined = ~np.isnan(probs)
    if not determined.all() and not allow_partial:
        missing = sorted({system.state_labels[b] for b in np.nonzero(~determined)[1]})
        raise IdentificationError(
            "masked system is not fully identified; undetermined target "
            f"column(s): {', '.join(missing)} ({diagnostics.reason})"
        )

    out_of_range = bool(
        np.nanmin(probs) < -1e-12 or np.nanmax(probs) > 1.0 + 1e-12
    )
    if out_of_range and not project_simplex:
        warnings.warn(
            "transition estimates fall outside [0, 1]; reporting raw values",
            OutOfRangeWarning,
            stacklevel=2,
        )
    if project_simplex:
        probs = project_rows(probs, system.support_mask)
        out_of_range = False
    probs.flags.writeable = False
    return TransitionMatrix(
        probs=probs,
        support_mask=system.support_mask,
        state_labels=system.state_labels,
        projected=project_simplex,
        determined=determined,
        diagnostics=diagnostics,
        forced=forced,
        out_of_range=out_of_range,
    )


# The library's older name for the same function. ``cli`` and ``principal``
# still import it beside ``fit_system``: perfbench's tracer wraps it there by
# name, and the CLI tests patch it there to show that the commands never
# take the per-dataset object path.
solve_transitions = fit_system


def binary_transition_params(trans: TransitionMatrix) -> np.ndarray:
    """The pair (P(state1=1 | state0=0), P(state1=1 | state0=1)) of a
    two-state transition matrix."""
    if trans.k != 2:
        raise ValidationError("binary transition parameters need a 2-state system")
    return trans.probs[:, 1].copy()


def joint_tables(probs: np.ndarray, control_marginals: np.ndarray) -> np.ndarray:
    """Joint tables ``J[..., a, b] = probs[..., a, b] * marginal[..., a]``,
    broadcasting ``(..., k, k)`` transitions against ``(..., k)`` marginals."""
    return probs * control_marginals[..., :, None]


def flag_negative_joints(tables: np.ndarray, trial_ids) -> np.ndarray:
    """Flag each ``(k, k)`` joint table of a ``(..., k, k)`` stack that has
    a cell below ``-1e-12``, warning once per flagged table in trial order.

    Such cells are possible for unprojected estimates; they are reported
    raw, never clipped.
    """
    negative = np.nanmin(tables, axis=(-2, -1)) < -1e-12
    for trial_id, flag in zip(trial_ids, negative.reshape(-1)):
        if flag:
            warnings.warn(
                f"joint table for trial {trial_id!r} has negative cells; "
                "values reported raw",
                OutOfRangeWarning,
                stacklevel=3,
            )
    return negative


def estimand_vectors(tables: np.ndarray, favorable_label: int = 1) -> np.ndarray:
    """Harm rate, benefit rate, persuasion rate (which is also the
    probability of sufficient causation) and probability of necessary
    causation of ``(..., 2, 2)`` binary joint tables, stacked on a last axis
    of length 4; NaN where the conditioning event has no mass."""
    fav = favorable_label
    unf = 1 - fav
    benefit = tables[..., unf, fav]
    unf_row = tables[..., unf, unf] + benefit
    fav_col = benefit + tables[..., fav, fav]
    with np.errstate(divide="ignore", invalid="ignore"):
        persuasion = np.where(unf_row > 0, benefit / unf_row, np.nan)
        necessity = np.where(fav_col > 0, benefit / fav_col, np.nan)
    return np.stack([tables[..., fav, unf], benefit, persuasion, necessity], axis=-1)


# Library-only names, defined where only their users load them.
__getattr__ = _relocated(
    __name__,
    dict.fromkeys(
        (
            "build_system",
            "JointTable",
            "joint_from_transitions",
            "DerivedEstimands",
            "derived_estimands",
        ),
        "summaries",
    ),
)
