"""Replicate equivalence of the batched bootstrap with the per-dataset path.

The reference replays the bootstrap one dataset at a time: replicate ``i``
draws ``resample_dataset(ds, replicate_rng(seed, i))`` until the statistic's
per-dataset reference form (``helpers.reference_*``) accepts a resample, at
most 100 times. The batched driver must fit exactly those resamples, bit for
bit, and its values must match the per-dataset values to 1e-12 (the batched
solver rounds differently). Its point estimate, member 0 of a fit of the
observed counts, must equal the reference form on the observed data exactly.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import pytest

import jointpo.inference
from jointpo.cli import (
    estimate_estimator,
    joint_cell_estimator,
    overid_estimator,
    psace_estimator,
    target_estimator,
)
from jointpo.data import MultiTrialDataset, TrialCellCounts, summarize
from jointpo.errors import EstimationError, ForcedSolveWarning, JointpoError, JointpoWarning
from jointpo.inference import (
    BatchEstimator,
    BatchFit,
    BootstrapConfig,
    bootstrap,
    replicate_rng,
    resample_dataset,
)
from jointpo.simulate import DgpSpec, simulate_dataset
from jointpo.transition import binary_transition_params, build_system, solve_transitions
from jointpo.transition import monotone_mask

from helpers import (
    binary_dataset,
    reference_estimate,
    reference_joint_cells,
    reference_overid,
    reference_psace,
    reference_target,
)

TOL = 1e-12

pytestmark = pytest.mark.filterwarnings("ignore::jointpo.errors.JointpoWarning")


@dataclass
class Replicate:
    attempts: list
    value: np.ndarray | None
    forced: bool


def reference(ds, statistic, seed, n):
    out = []
    for i in range(n):
        rng = replicate_rng(seed, i)
        rep = Replicate([], None, False)
        for _ in range(100):
            resample = resample_dataset(ds, rng)
            rep.attempts.append(resample.counts_tensor())
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", JointpoWarning)
                try:
                    value = np.asarray(statistic(resample), dtype=float)
                except (JointpoError, np.linalg.LinAlgError):
                    continue
            rep.value = value
            rep.forced = any(issubclass(w.category, ForcedSolveWarning) for w in caught)
            break
        out.append(rep)
    return out


def check_equivalent(ds, estimator, statistic, seed, n):
    """Bootstrap ``n`` replicates (one chunk) of ``estimator`` both ways,
    the reference with the per-dataset ``statistic``, and compare."""
    calls = []

    def fit(tensor):
        calls.append(np.array(tensor))
        return estimator.fit(tensor)

    var = bootstrap(ds, BatchEstimator(fit), BootstrapConfig(n, seed))
    ref = reference(ds, statistic, seed, n)
    # The point is member 0 of a fit of the observed counts.
    observed = ds.counts_tensor()[None]
    assert calls[0].shape == observed.shape
    np.testing.assert_array_equal(calls[0], observed)
    assert np.array_equal(var.point, statistic(ds), equal_nan=True)
    # Round r fits, in replicate order, the r-th draw of every replicate
    # that needed more than r draws.
    calls = calls[1:]
    assert len(calls) == max(len(rep.attempts) for rep in ref)
    for r, batch in enumerate(calls):
        expected = [rep.attempts[r] for rep in ref if len(rep.attempts) > r]
        np.testing.assert_array_equal(batch, np.stack(expected))
    kept = [rep.value for rep in ref if rep.value is not None]
    np.testing.assert_allclose(var.replicates, np.stack(kept), rtol=0, atol=TOL)
    assert var.n_failed == sum(rep.value is None for rep in ref)
    assert var.n_forced == sum(rep.forced for rep in ref if rep.value is not None)
    assert var.n_redrawn == sum(len(rep.attempts) > 1 for rep in ref)
    return var


def _dataset(case, n_g, m=10, seed=0):
    return simulate_dataset(DgpSpec(case=case, n_g=n_g, m=m), seed=seed)


def _with_target(ds, control_counts):
    counts = np.zeros_like(ds.trials[0].counts)
    counts[0] = control_counts
    target = TrialCellCounts(trial_id="0", counts=counts, is_target=True)
    return MultiTrialDataset(trials=ds.trials, target=target)


def _mask(ds, space, mono_s=False, mono_y=False):
    system = build_system(summarize(ds), space, mono_s=mono_s, mono_y=mono_y)
    return system.support_mask


SEEDS = (3, 11)


@pytest.mark.parametrize("seed", SEEDS)
def test_estimate_outcome(seed):
    ds = _dataset("c1", 150, seed=seed)
    est = estimate_estimator(ds, "outcome", _mask(ds, "outcome"))
    check_equivalent(ds, est, reference_estimate("outcome"), seed, 40)


@pytest.mark.parametrize("seed", SEEDS)
def test_estimate_surrogate_projected(seed):
    ds = _dataset("c3", 120, seed=seed)
    est = estimate_estimator(ds, "surrogate", _mask(ds, "surrogate"), project=True)
    check_equivalent(ds, est, reference_estimate("surrogate", project=True), seed, 40)


@pytest.mark.parametrize("seed", SEEDS)
def test_estimate_masked_composite_projected(seed):
    ds = _dataset("c3", 100, seed=seed)
    mask = _mask(ds, "composite", mono_s=True, mono_y=True)
    est = estimate_estimator(ds, "composite", mask, project=True)
    ref = reference_estimate("composite", mono_s=True, mono_y=True, project=True)
    var = check_equivalent(ds, est, ref, seed, 40)
    assert np.isfinite(var.replicates).all()


@pytest.mark.parametrize("seed", SEEDS)
def test_estimate_unmasked_composite(seed):
    ds = _dataset("c3", 200, seed=seed)
    est = estimate_estimator(ds, "composite", _mask(ds, "composite"))
    check_equivalent(ds, est, reference_estimate("composite"), seed, 30)


@pytest.mark.parametrize("seed", SEEDS)
def test_overid_residuals(seed):
    ds = _dataset("c1", 150, seed=seed)
    theta = binary_transition_params(solve_transitions(build_system(summarize(ds))))
    est = overid_estimator(ds, "outcome", theta)
    check_equivalent(ds, est, reference_overid("outcome", theta), seed, 40)


@pytest.mark.parametrize("seed", SEEDS)
def test_target(seed):
    ds = _with_target(_dataset("c1", 150, seed=seed), [40, 55])
    check_equivalent(ds, target_estimator(ds, "outcome", 2), reference_target("outcome"), seed, 40)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("method", (1, 2, 4))
def test_psace(seed, method):
    ds = _dataset("c4" if method == 1 else "c3", 200, seed=seed)
    check_equivalent(ds, psace_estimator(ds, method), reference_psace(method), seed, 30)


def test_psace_method1_clipped_scores():
    # At n_g = 40 some resamples put the treated surrogate rate below the
    # control rate, so clipping changes the scores.
    ds = _dataset("c4", 40, seed=5)
    est = psace_estimator(ds, 1, clip_scores=True)
    check_equivalent(ds, est, reference_psace(1, clip_scores=True), 5, 40)


def test_psace_method3_nan_columns():
    # With three trials the four-source target column of method 3 is not
    # identified: the point leaves its strata NaN, the bootstrap solves it
    # minimum-norm in every replicate.
    ds = _dataset("c4", 300, m=3, seed=2)
    est = psace_estimator(ds, 3, project=True)
    var = check_equivalent(ds, est, reference_psace(3, project=True), 2, 30)
    assert var.n_forced == 30
    assert np.isnan(var.replicates).any()


@pytest.mark.parametrize("space", ("surrogate", "outcome"))
def test_joint_cells(space):
    ds = _dataset("c3", 150, seed=4)
    check_equivalent(ds, joint_cell_estimator(ds, space), reference_joint_cells(space), 4, 40)


def test_empty_arm_redraws():
    ds = binary_dataset([(30, 30, 1, 0), (20, 40, 30, 30), (35, 25, 30, 30)])
    est = estimate_estimator(ds, "outcome", _mask(ds, "outcome"))
    var = check_equivalent(ds, est, reference_estimate("outcome"), 2, 60)
    assert var.n_redrawn > 0 and var.n_failed == 0


def test_undefined_point_raises():
    # An empty arm leaves the statistic undefined on the observed counts.
    ds = binary_dataset([(30, 30, 0, 0), (20, 40, 30, 30), (35, 25, 30, 30)])
    mask = np.ones((2, 2), dtype=bool)
    with pytest.raises(EstimationError, match="undefined on the observed counts"):
        bootstrap(ds, estimate_estimator(ds, "outcome", mask), BootstrapConfig(20, 1))


def test_failed_replicates_counted():
    # Seven trials with one treated unit: a resample keeps all seven treated
    # arms with probability about 0.04, so some replicates fail 100 draws.
    rows = [(40 + 3 * g, 20 + 5 * g, 0, 1) for g in range(7)] + [(30, 30, 25, 35)]
    ds = binary_dataset(rows)
    est = estimate_estimator(ds, "outcome", _mask(ds, "outcome"))
    var = check_equivalent(ds, est, reference_estimate("outcome"), 0, 40)
    assert var.n_failed == 2


def test_rank_deficient_replicate_is_forced():
    # c1 with three trials of 20 units: one of these 200 replicates draws
    # three identical control rows, a design of rank one.
    ds = _dataset("c1", 20, m=3, seed=2)
    est = estimate_estimator(ds, "outcome", _mask(ds, "outcome"))
    var = check_equivalent(ds, est, reference_estimate("outcome"), 2, 200)
    assert var.n_forced == 1


def test_zero_trial_row_uses_no_randomness():
    # A trial with no units is left at zero without a draw, so the other
    # trials' draws are the same as without it.
    ds = binary_dataset([(10, 12, 9, 13), (0, 0, 0, 0), (5, 6, 7, 8)])

    def point(d):
        return d.counts_tensor()[[0, 2]].reshape(-1).astype(float)

    def fit(tensor):
        n = len(tensor)
        values = tensor[:, [0, 2]].reshape(n, -1).astype(float)
        return BatchFit(values, np.ones(n, dtype=bool), np.zeros(n, dtype=bool))

    var = check_equivalent(ds, BatchEstimator(fit), point, 6, 20)
    reduced = binary_dataset([(10, 12, 9, 13), (5, 6, 7, 8)])
    for i in range(20):
        draw = resample_dataset(reduced, replicate_rng(6, i)).counts_tensor()
        np.testing.assert_array_equal(var.replicates[i], draw.reshape(-1))


def test_plain_estimator_adapter_counts_forced_solves():
    ds = _dataset("c1", 20, m=3, seed=2)

    def theta(d):
        return binary_transition_params(
            solve_transitions(build_system(summarize(d)), force=True)
        )

    plain = bootstrap(ds, theta, BootstrapConfig(200, 2))
    batch = bootstrap(
        ds, estimate_estimator(ds, "outcome", _mask(ds, "outcome")), BootstrapConfig(200, 2)
    )
    assert plain.n_forced == batch.n_forced == 1
    assert plain.n_redrawn == batch.n_redrawn
    np.testing.assert_allclose(plain.replicates, batch.replicates[:, [1, 3]], atol=TOL)


def test_monotone_mask_matches_build_system():
    ds = _dataset("c3", 100, seed=1)
    for mono_s, mono_y in ((True, True), (False, True), (True, False)):
        np.testing.assert_array_equal(
            monotone_mask("composite", mono_s, mono_y),
            _mask(ds, "composite", mono_s=mono_s, mono_y=mono_y),
        )


def test_wide_table_chunks_stay_within_the_cell_budget(monkeypatch):
    # 500 trials of 2 x 3 cells: a chunk holds 49152 // 3000 = 16 replicates,
    # so 40 replicates are three chunks, the last one partial.
    counts = np.random.default_rng(500).integers(1, 60, size=(500, 2, 3))
    ds = MultiTrialDataset(
        trials=tuple(TrialCellCounts(str(g + 1), c) for g, c in enumerate(counts))
    )
    estimator = estimate_estimator(ds, "outcome", _mask(ds, "outcome"))
    sizes = []

    def recording(tensor):
        sizes.append(len(tensor))
        return estimator.fit(tensor)

    config = BootstrapConfig(40, 3)
    chunked = bootstrap(ds, BatchEstimator(recording), config)
    assert chunked.n_redrawn == 0
    assert sizes == [1, 16, 16, 8]
    assert max(sizes) <= jointpo.inference._CHUNK // ds.counts_tensor().size
    monkeypatch.setattr(jointpo.inference, "_CHUNK", 10**9)
    whole = bootstrap(ds, estimator, config)
    np.testing.assert_array_equal(chunked.replicates, whole.replicates)
    np.testing.assert_array_equal(chunked.se, whole.se)
