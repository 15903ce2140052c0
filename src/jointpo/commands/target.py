"""``target``: transport to a control-only target population."""

from __future__ import annotations

import numpy as np

from ..cli import (
    _batch_fit,
    _estimands_dict,
    _load,
    _params_dict,
    _point_and_variance,
    _report,
    _stack_transitions,
)
from ..data import observed_frequencies
from ..errors import ValidationError
from ..inference import BatchEstimator
from ..transition import (
    design_system,
    estimand_vectors,
    fit_system,
    flag_negative_joints,
    joint_tables,
)


def target_estimator(dataset, space: str, k: int, *, project=False) -> BatchEstimator:
    """Transition parameters, the target trial's joint table and, with two
    states, its THR, TBR, persuasion rate and PN."""
    m = dataset.m
    mask = np.ones((k, k), dtype=bool)

    def fit_live(freqs):
        probs, forced = _stack_transitions(freqs, m, space, mask, project)
        joint = joint_tables(probs, freqs.space(space)[:, m, 0])
        n = len(joint)
        values = [probs.reshape(n, -1), joint.reshape(n, -1)]
        if k == 2:
            values.append(estimand_vectors(joint))
        return np.concatenate(values, axis=1), True, forced

    width = 2 * k * k + (4 if k == 2 else 0)
    return BatchEstimator(_batch_fit(dataset, width, fit_live))


def run(args) -> dict:
    dataset, info = _load(args)
    if dataset.target_id is None:
        raise ValidationError(
            "no control-only target trial in the dataset (label it with "
            "the target trial id, default '0')"
        )
    freqs = observed_frequencies(dataset)
    system = design_system(freqs, dataset.trial_ids, args.space)
    trans = fit_system(system, project_simplex=args.project, force=args.force)
    marginal = freqs.space(args.space)[0, dataset.m, 0]
    joint = joint_tables(trans.probs, marginal)
    negative = bool(flag_negative_joints(joint, [dataset.target_id]))
    two_state = trans.k == 2

    names = list(trans.parameter_labels()) + [
        f"target_joint[{a},{b}]"
        for a in range(trans.k)
        for b in range(trans.k)
    ]
    if two_state:
        names += ["target_THR", "target_TBR", "target_persuasion", "target_PN"]
    estimator = target_estimator(dataset, args.space, trans.k, project=args.project)
    point, variance = _point_and_variance(args, dataset, estimator, names)

    results = {
        "space": args.space,
        "target_trial": dataset.target_id,
        "target_marginal": marginal,
        "joint": joint,
        "negative_mass": negative,
        "estimands": _estimands_dict(point[-4:]) if two_state else None,
        "parameters": _params_dict(names, point, variance, args.ci),
    }
    flags = ("space", "project", "force", "boot", "ci", "ci_method")
    return _report(args, info, flags, results, trans)
