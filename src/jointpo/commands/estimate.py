"""``estimate``: transition matrix, per-trial joint tables and derived
quantities."""

from __future__ import annotations

import numpy as np

from ..cli import (
    _batch_fit,
    _estimands_dict,
    _joint_report,
    _load,
    _params_dict,
    _point_and_variance,
    _report,
    _stack_transitions,
)
from ..data import observed_frequencies
from ..inference import BatchEstimator
from ..transition import design_system, estimand_vectors, joint_tables


def estimate_estimator(dataset, space: str, mask, *, project=False) -> BatchEstimator:
    """Transition parameters, then per-trial THR, TBR, persuasion rate and
    PN when the space has two states."""
    m = dataset.m
    two_state = mask.shape[0] == 2

    def fit_live(freqs):
        probs, forced = _stack_transitions(freqs, m, space, mask, project)
        values = [probs[:, mask]]
        if two_state:
            joints = joint_tables(probs[:, None], freqs.space(space)[:, :m, 0])
            values.append(estimand_vectors(joints).reshape(len(joints), -1))
        ok = ~np.isnan(probs).any(axis=(1, 2))
        return np.concatenate(values, axis=1), ok, forced

    width = int(mask.sum()) + (4 * m if two_state else 0)
    return BatchEstimator(_batch_fit(dataset, width, fit_live))


def run(args) -> dict:
    dataset, info = _load(args)
    ids = dataset.trial_ids
    system = design_system(
        observed_frequencies(dataset), ids, args.space, mono_s=args.mono_s, mono_y=args.mono_y
    )
    trans, joints, negative = _joint_report(system, force=args.force, project=args.project)
    two_state = trans.k == 2

    names = list(trans.parameter_labels())
    if two_state:
        for tid in ids:
            names += [f"{label}[{tid}]" for label in ("THR", "TBR", "persuasion", "PN")]
    estimator = estimate_estimator(
        dataset, args.space, system.support_mask, project=args.project
    )
    point, variance = _point_and_variance(args, dataset, estimator, names)
    estimands = point[int(system.support_mask.sum()):].reshape(-1, 4)

    per_trial = [
        {
            "trial": tid,
            "control_marginal": system.design[g],
            "treated_marginal": system.response[g],
            "joint": joints[g],
            "negative_mass": bool(negative[g]),
            "estimands": _estimands_dict(estimands[g]) if two_state else None,
        }
        for g, tid in enumerate(ids)
    ]

    flags = ("space", "mono_s", "mono_y", "project", "force", "boot", "ci", "ci_method")
    results = {
        "space": args.space,
        "parameters": _params_dict(names, point, variance, args.ci),
        "per_trial": per_trial,
    }
    return _report(args, info, flags, results, trans)
