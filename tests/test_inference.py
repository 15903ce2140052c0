import numpy as np
import pytest

import jointpo.inference
from jointpo.data import MultiTrialDataset, TrialCellCounts, summarize
from jointpo.errors import EstimationError, InferenceError, ValidationError
from jointpo.inference import (
    BatchEstimator,
    BatchFit,
    BootstrapConfig,
    bootstrap,
    overid_test,
    plugin_variance,
    replicate_rng,
    resample_dataset,
    transition_residuals,
)
from jointpo.simulate import (
    DgpSpec,
    Population,
    dgp_population,
    overid_size_study,
    simulate_dataset,
)
from jointpo.transition import binary_transition_params, build_system, solve_transitions

from helpers import binary_dataset, binary_summaries, reference_resample


def theta_estimator(ds):
    s = summarize(ds)
    trans = solve_transitions(build_system(s, "outcome"), force=True)
    return binary_transition_params(trans)


class TestBootstrap:
    def test_deterministic_for_fixed_seed(self):
        ds = simulate_dataset(DgpSpec(case="c1", n_g=200), seed=4)
        cfg = BootstrapConfig(replicates=50, seed=123)
        a = bootstrap(ds, theta_estimator, cfg)
        b = bootstrap(ds, theta_estimator, cfg)
        np.testing.assert_array_equal(a.replicates, b.replicates)
        np.testing.assert_array_equal(a.se, b.se)
        np.testing.assert_array_equal(a.ci_lower, b.ci_lower)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            BootstrapConfig(replicates=1, seed=0)
        with pytest.raises(ValidationError):
            BootstrapConfig(replicates=10, seed=0, ci_level=1.5)
        with pytest.raises(ValidationError):
            BootstrapConfig(replicates=10, seed=0, ci_method="bca")

    def test_percentile_intervals(self):
        ds = simulate_dataset(DgpSpec(case="c1", n_g=200), seed=4)
        cfg = BootstrapConfig(replicates=80, seed=5, ci_method="percentile")
        var = bootstrap(ds, theta_estimator, cfg)
        assert (var.ci_lower <= var.ci_upper).all()
        assert (var.ci_lower >= var.replicates.min(axis=0) - 1e-12).all()

    def test_normal_interval_formula(self):
        ds = simulate_dataset(DgpSpec(case="c1", n_g=200), seed=4)
        cfg = BootstrapConfig(replicates=50, seed=5)
        var = bootstrap(ds, theta_estimator, cfg)
        z = 1.959963984540054
        np.testing.assert_allclose(var.ci_lower, var.point - z * var.se, atol=1e-12)
        np.testing.assert_allclose(var.ci_upper, var.point + z * var.se, atol=1e-12)

    def test_pervasive_estimator_failure_aborts(self):
        # A statistic so fragile that every resample breaks it must exhaust
        # the redraw budget and abort with an accounting error.
        ds = binary_dataset([(10, 10, 10, 10), (8, 12, 9, 11)])
        original = ds.counts_tensor()

        def brittle(d):
            if not np.array_equal(d.counts_tensor(), original):
                raise EstimationError("resample rejected")
            return theta_estimator(d)

        cfg = BootstrapConfig(replicates=20, seed=2)
        with pytest.raises(InferenceError, match="replicates failed"):
            bootstrap(ds, brittle, cfg)

    def test_fragile_arm_is_redrawn_not_failed(self):
        # A single treated unit is dropped by ~37% of resamples; the redraw
        # loop absorbs that without failing replicates.
        ds = binary_dataset([(30, 30, 1, 0), (20, 40, 30, 30), (35, 25, 30, 30)])
        cfg = BootstrapConfig(replicates=60, seed=2)
        var = bootstrap(ds, theta_estimator, cfg)
        assert var.n_failed == 0
        assert np.isfinite(var.se).all()

    def test_resample_preserves_trial_totals(self):
        ds = simulate_dataset(DgpSpec(case="c3", n_g=100), seed=0)
        out = resample_dataset(ds, replicate_rng(1, 0))
        for a, b in zip(ds.all_trials, out.all_trials):
            assert a.n == b.n
            assert a.counts.shape == b.counts.shape

    def test_replicate_rng_streams_differ(self):
        a = replicate_rng(7, 0).integers(0, 1 << 30, 5)
        b = replicate_rng(7, 1).integers(0, 1 << 30, 5)
        assert not np.array_equal(a, b)
        again = replicate_rng(7, 0).integers(0, 1 << 30, 5)
        np.testing.assert_array_equal(a, again)

    def test_c1_bootstrap_se_near_reported_scale(self):
        # At n_g = 500 the first transition parameter's sampling SD is
        # close to 0.07; the bootstrap SE should land in that vicinity.
        rng_values = []
        for seed in range(8):
            ds = simulate_dataset(DgpSpec(case="c1", n_g=500), seed=seed)
            cfg = BootstrapConfig(replicates=100, seed=seed + 1000)
            var = bootstrap(ds, theta_estimator, cfg)
            rng_values.append(var.se[0])
        mean_se = float(np.mean(rng_values))
        assert 0.05 < mean_se < 0.09


def _table_with_empty_trial():
    return binary_dataset([(10, 12, 9, 13), (0, 0, 0, 0), (5, 6, 7, 8)])


def _table_with_target():
    ds = simulate_dataset(DgpSpec(case="c1", n_g=150), seed=3)
    counts = np.zeros_like(ds.trials[0].counts)
    counts[0] = [40, 55]
    target = TrialCellCounts(trial_id="0", counts=counts, is_target=True)
    return MultiTrialDataset(trials=ds.trials, target=target)


def _wide_table():
    # The wide-ingest shape: 500 trials, three outcome states.
    counts = np.random.default_rng(500).integers(1, 60, size=(500, 2, 3))
    return MultiTrialDataset(
        trials=tuple(TrialCellCounts(str(g + 1), c) for g, c in enumerate(counts))
    )


TABLES = {
    "empty-trial": _table_with_empty_trial,
    "target": _table_with_target,
    "wide": _wide_table,
}


def _counts_estimator(tensor):
    # Every member is defined; its value is its resampled counts.
    n = len(tensor)
    return BatchFit(tensor.reshape(n, -1).astype(float), np.ones(n, bool), np.zeros(n, bool))


class TestCliResampleStream:
    """The CLI draws replicate ``i`` from ``replicate_rng(seed, i)``, one
    ``multinomial(totals, probs)`` call per draw, as ``reference_resample``
    does without the shared resampler."""

    @pytest.mark.parametrize("table", sorted(TABLES))
    def test_resample_dataset_matches_reference(self, table):
        ds = TABLES[table]()
        counts = ds.counts_tensor()
        for i in range(4):
            rng, ref = replicate_rng(9, i), replicate_rng(9, i)
            for _ in range(2):  # a second draw continues the same stream
                np.testing.assert_array_equal(
                    resample_dataset(ds, rng).counts_tensor(), reference_resample(counts, ref)
                )

    @pytest.mark.parametrize("chunk", (7, 256))
    @pytest.mark.parametrize("table", sorted(TABLES))
    def test_every_replicate_matches_reference(self, monkeypatch, table, chunk):
        monkeypatch.setattr(jointpo.inference, "_CHUNK", chunk)
        ds = TABLES[table]()
        counts = ds.counts_tensor()
        var = bootstrap(ds, BatchEstimator(_counts_estimator), BootstrapConfig(20, 5))
        expected = [reference_resample(counts, replicate_rng(5, i)).reshape(-1) for i in range(20)]
        np.testing.assert_array_equal(var.replicates, np.stack(expected))

    def test_never_ok_replicate_is_fitted_100_times_from_its_own_stream(self):
        ds = _table_with_empty_trial()
        batches = []

        def fit(tensor):
            # Only the observed counts (the first call) are accepted.
            batches.append(tensor)
            n = len(tensor)
            return BatchFit(np.zeros((n, 1)), np.full(n, len(batches) == 1), np.zeros(n, bool))

        with pytest.raises(InferenceError, match="^6 of 6 bootstrap replicates failed"):
            bootstrap(ds, BatchEstimator(fit), BootstrapConfig(6, 8))
        draws = batches[1:]
        assert [len(b) for b in draws] == [6] * 100
        counts = ds.counts_tensor()
        for i in range(6):
            rng = replicate_rng(8, i)
            for batch in draws:
                np.testing.assert_array_equal(batch[i], reference_resample(counts, rng))


class TestPluginVariance:
    def test_degenerate_deterministic_data_has_zero_se(self):
        control = np.array([[0.0, 1.0]] * 3)
        treated = np.array([[0.0, 1.0]] * 3)
        s = binary_summaries(control, treated, arm_sizes=(50, 50))
        theta = np.array([0.0, 1.0])
        var = plugin_variance(s, theta)
        np.testing.assert_allclose(var.se, 0.0, atol=1e-14)

    def test_sqrt_n_scaling_exact(self):
        spec = DgpSpec(case="c1", n_g=300)
        ds = simulate_dataset(spec, seed=8)
        s = summarize(ds)
        theta = theta_estimator(ds)
        base = plugin_variance(s, theta)
        doubled = ds.with_counts(ds.counts_tensor() * 2)
        s2 = summarize(doubled)
        var2 = plugin_variance(s2, theta)
        np.testing.assert_allclose(var2.se, base.se / np.sqrt(2.0), rtol=1e-10)

    def test_agrees_with_bootstrap_sd(self):
        ds = simulate_dataset(DgpSpec(case="c1", n_g=500), seed=21)
        s = summarize(ds)
        theta = theta_estimator(ds)
        plug = plugin_variance(s, theta)
        cfg = BootstrapConfig(replicates=300, seed=77)
        boot = bootstrap(ds, theta_estimator, cfg)
        np.testing.assert_allclose(plug.se, boot.se, rtol=0.25)

    def test_singular_design_raises(self):
        control = np.array([[0.5, 0.5]] * 3)
        treated = np.array([[0.4, 0.6]] * 3)
        s = binary_summaries(control, treated, arm_sizes=(10, 10))
        from jointpo.errors import IdentificationError

        with pytest.raises(IdentificationError):
            plugin_variance(s, np.array([0.4, 0.6]))

    def test_non_binary_rejected(self):
        rng = np.random.default_rng(0)
        control = rng.dirichlet(np.ones(3), size=4)
        treated = rng.dirichlet(np.ones(3), size=4)
        s = binary_summaries(control, treated, arm_sizes=(10, 10))
        with pytest.raises(ValidationError):
            plugin_variance(s, np.ones(3) / 3)


class TestOveridTest:
    @staticmethod
    def _fixed_sigma_pipeline(ds, boot_seed=31, replicates=150):
        s = summarize(ds)
        trans = solve_transitions(build_system(s, "outcome"))
        theta = binary_transition_params(trans)

        def estimator(d):
            inner = summarize(d)
            return transition_residuals(inner, theta)

        cfg = BootstrapConfig(replicates=replicates, seed=boot_seed)
        var = bootstrap(ds, estimator, cfg)
        return s, theta, var.se

    def test_just_identified_statistic_vanishes(self):
        ds = binary_dataset([(50, 50, 48, 52), (20, 80, 35, 65)])
        s = summarize(ds)
        trans = solve_transitions(build_system(s, "outcome"))
        theta = binary_transition_params(trans)
        result = overid_test(s, theta, np.array([0.1, 0.1]))
        assert result.statistic <= 1e-10
        assert result.df == 0
        assert result.p_value is None

    def test_statistic_reproducible_from_residual_list(self):
        ds = simulate_dataset(DgpSpec(case="c1", n_g=300), seed=14)
        s, theta, sigma = self._fixed_sigma_pipeline(ds)
        result = overid_test(s, theta, sigma)
        assert result.statistic == pytest.approx(
            result.recompute_statistic(), abs=1e-12
        )
        assert result.df == 8

    def test_p_value_from_statistic(self):
        from jointpo.special import chi2_sf

        ds = simulate_dataset(DgpSpec(case="c1", n_g=300), seed=14)
        s, theta, sigma = self._fixed_sigma_pipeline(ds)
        result = overid_test(s, theta, sigma)
        assert result.p_value == pytest.approx(
            chi2_sf(result.statistic, result.df), abs=1e-15
        )

    def test_zero_sigma_is_a_test_error(self):
        ds = simulate_dataset(DgpSpec(case="c1", n_g=300), seed=14)
        s = summarize(ds)
        trans = solve_transitions(build_system(s, "outcome"))
        theta = binary_transition_params(trans)
        sigma = np.full(10, 0.05)
        sigma[3] = 0.0
        with pytest.raises(InferenceError, match="zero residual"):
            overid_test(s, theta, sigma)

    @pytest.mark.parametrize(
        "replicates, boot, message",
        [
            (0, 10, "a study needs at least 2 replicates"),
            (1, 10, "a study needs at least 2 replicates"),
            (5, 1, "bootstrap needs at least 2 replicates"),
            (5, 0, "bootstrap needs at least 2 replicates"),
            (5, -1, "bootstrap needs at least 2 replicates"),
        ],
    )
    def test_size_study_rejects_too_few_replicates(self, replicates, boot, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            overid_size_study(DgpSpec(case="c1", n_g=100), replicates, boot, seed=1)

    def test_power_exceeds_size_under_misspecification(self):
        # Trial 10's transition differs by +0.3 in the success-to-success
        # entry; residual misfit should reject far more often than under
        # the null.
        base = dgp_population(DgpSpec(case="c1", n_g=500))
        cells = base.cell_probs.copy()
        q = 0.5 + np.arange(10) / 30
        theta = base.truth
        shifted = theta.copy()
        shifted[1] = theta[1] + 0.3
        treated10 = (1 - q[9]) * shifted[0] + q[9] * shifted[1]
        cells[9, 2] = 0.5 * (1 - treated10)
        cells[9, 3] = 0.5 * treated10
        pop = Population(
            cell_probs=cells,
            truth=theta,
            param_names=base.param_names,
            has_surrogate=False,
            control_marginals=base.control_marginals,
        )
        spec = DgpSpec(case="custom", n_g=500, custom=pop)
        p_alt = overid_size_study(spec, 60, 60, seed=11)
        power = float((p_alt < 0.05).mean())
        spec_null = DgpSpec(case="c1", n_g=500)
        p_null = overid_size_study(spec_null, 60, 60, seed=11)
        size = float((p_null < 0.05).mean())
        assert power > size
        assert power > 0.5


def test_summarize_guards_positivity_for_inference():
    ds = binary_dataset([(10, 10, 0, 0), (5, 5, 5, 5)])
    with pytest.raises(EstimationError):
        summarize(ds)
