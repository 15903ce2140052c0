import concurrent.futures
import dataclasses
import os
import sys
import warnings

import numpy as np
import pytest

import jointpo.inference
from helpers import _reference_draws, reference_overid_size_study, reference_run_study
from jointpo.data import summarize
from jointpo.errors import InferenceError, ValidationError
from jointpo.inference import replicate_rng
from jointpo.principal import method1_estimate
from jointpo.simulate import (
    BinaryTransitionPipeline,
    CompositeTransitionPipeline,
    DgpSpec,
    Pipeline,
    Population,
    PrincipalFourStepPipeline,
    _thread_count,
    compute_metrics,
    dgp_population,
    overid_size_study,
    run_study,
    simulate_dataset,
)
from jointpo.special import expit
from jointpo.transition import binary_transition_params, build_system, solve_transitions
from jointpo.report import (
    format_study_table,
    read_replicates_csv,
    replicates_to_csv,
    study_to_dict,
)


class TestPopulations:
    def test_c1_truth(self):
        pop = dgp_population(DgpSpec(case="c1", n_g=100))
        np.testing.assert_allclose(pop.truth, [expit(-0.5), expit(0.5)], atol=1e-15)
        assert tuple(np.round(pop.truth, 3)) == (0.378, 0.622)

    def test_c2_truth(self):
        pop = dgp_population(DgpSpec(case="c2", n_g=100))
        np.testing.assert_allclose(pop.truth, [expit(0.5), expit(1.5)], atol=1e-15)
        assert tuple(np.round(pop.truth, 3)) == (0.622, 0.818)

    def test_c3_truth_vector(self):
        pop = dgp_population(DgpSpec(case="c3", n_g=100))
        order = ((0, 0), (0, 1), (1, 0), (1, 1))
        expected = [float(expit((a + c - 1) / 2)) for a, c in order] + [
            float(expit((a + c + 1) / 2)) for a, c in order
        ]
        np.testing.assert_allclose(pop.truth, expected, atol=1e-15)

    def test_c4_truth_includes_psace(self):
        pop = dgp_population(DgpSpec(case="c4", n_g=100))
        np.testing.assert_allclose(
            pop.truth[6:],
            [
                expit(0.5) - expit(-0.5),
                expit(1.0) - expit(0.0),
                expit(1.5) - expit(0.5),
            ],
            atol=1e-15,
        )

    def test_cell_probabilities_are_distributions(self):
        for case in ("c1", "c2", "c3", "c4"):
            pop = dgp_population(DgpSpec(case=case, n_g=50))
            np.testing.assert_allclose(pop.cell_probs.sum(axis=1), 1.0, atol=1e-12)
            assert (pop.cell_probs >= 0).all()

    def test_c4_population_is_monotone_consistent(self):
        # Scores derived from the population marginals must show no
        # monotonicity violations.
        pop = dgp_population(DgpSpec(case="c4", n_g=50))
        s1_treated = pop.treated_marginals[:, 2] + pop.treated_marginals[:, 3]
        s1_control = pop.control_marginals[:, 2] + pop.control_marginals[:, 3]
        assert (s1_treated >= s1_control - 1e-12).all()

    def test_bad_specs_rejected(self):
        with pytest.raises(ValidationError):
            DgpSpec(case="c9", n_g=100)
        with pytest.raises(ValidationError, match="positive"):
            DgpSpec(case="c1", n_g=0)
        with pytest.raises(ValidationError):
            DgpSpec(case="custom", n_g=100)


class TestSimulateDataset:
    def test_deterministic_per_seed(self):
        spec = DgpSpec(case="c3", n_g=150)
        a = simulate_dataset(spec, seed=5)
        b = simulate_dataset(spec, seed=5)
        np.testing.assert_array_equal(a.counts_tensor(), b.counts_tensor())
        c = simulate_dataset(spec, seed=6)
        assert not np.array_equal(a.counts_tensor(), c.counts_tensor())

    def test_law_of_large_numbers(self):
        spec = DgpSpec(case="c1", n_g=1_000_000)
        ds = simulate_dataset(spec, seed=77)
        s = summarize(ds)
        assert s.trials[0].control_outcome[1] == pytest.approx(0.5, abs=0.002)

    def test_trial_count_and_sizes(self):
        spec = DgpSpec(case="c1", n_g=250, m=7)
        ds = simulate_dataset(spec, seed=0)
        assert ds.m == 7
        assert all(t.n == 250 for t in ds.trials)


class TestPipelinesMatchProduction:
    def test_binary_pipeline_equals_solver(self):
        spec = DgpSpec(case="c1", n_g=400)
        ds = simulate_dataset(spec, seed=3)
        pipe = BinaryTransitionPipeline(dgp_population(spec))
        fast = pipe.point(ds.counts_tensor())
        s = summarize(ds)
        slow = binary_transition_params(solve_transitions(build_system(s, "outcome")))
        np.testing.assert_allclose(fast, slow, atol=1e-10)

    def test_composite_pipeline_equals_solver(self):
        spec = DgpSpec(case="c3", n_g=400)
        ds = simulate_dataset(spec, seed=3)
        pipe = CompositeTransitionPipeline(dgp_population(spec))
        fast = pipe.point(ds.counts_tensor())
        s = summarize(ds)
        trans = solve_transitions(build_system(s, "composite"))
        s_rate = trans.probs[:, 2] + trans.probs[:, 3]
        y_rate = trans.probs[:, 1] + trans.probs[:, 3]
        np.testing.assert_allclose(fast, np.concatenate([s_rate, y_rate]), atol=1e-10)

    def test_four_step_pipeline_equals_method1(self):
        spec = DgpSpec(case="c4", n_g=400)
        ds = simulate_dataset(spec, seed=3)
        pipe = PrincipalFourStepPipeline(dgp_population(spec))
        fast = pipe.point(ds.counts_tensor())
        params, table = method1_estimate(summarize(ds))
        slow = [
            params.treated_prob["00"],
            params.treated_prob["01"],
            params.treated_prob["11"],
            params.control_prob["00"],
            params.control_prob["01"],
            params.control_prob["11"],
        ]
        np.testing.assert_allclose(fast[:6], slow, atol=1e-10)
        np.testing.assert_allclose(
            fast[6:],
            [float(table.stratum(s)[0]) for s in ("00", "01", "11")],
            atol=1e-10,
        )


class _TruthPipeline:
    """Degenerate estimator returning the truth with zero spread."""

    name = "constant-truth"

    def __init__(self, truth):
        self.truth = np.asarray(truth, dtype=float)
        self.param_names = tuple(f"p{i}" for i in range(self.truth.size))

    def point(self, counts):
        return self.truth.copy()

    def bootstrap(self, counts, n_draws, rng):
        draws = np.tile(self.truth, (n_draws, 1))
        return draws, np.ones(n_draws, dtype=bool)

    def valid(self, batch):
        return np.ones(batch.shape[:-2], dtype=bool)

    def fit(self, counts):
        return np.tile(self.truth, (len(counts), 1)), np.ones(len(counts), dtype=bool)


class TestRunStudy:
    def test_replicate_count_validation(self):
        spec = DgpSpec(case="c1", n_g=100)
        with pytest.raises(ValidationError):
            run_study(spec, 1, 10, seed=1)

    def test_degenerate_truth_estimator(self):
        spec = DgpSpec(case="c1", n_g=50)
        pop = dgp_population(spec)
        res = run_study(spec, 20, 10, seed=4, pipeline=_TruthPipeline(pop.truth))
        np.testing.assert_allclose(res.metrics["bias"], 0.0, atol=1e-15)
        np.testing.assert_allclose(res.metrics["sd"], 0.0, atol=1e-15)
        np.testing.assert_allclose(res.metrics["cp95"], 1.0, atol=0)

    def test_seed_stable_across_workers(self):
        spec = DgpSpec(case="c1", n_g=120)
        a = run_study(spec, 24, 20, seed=9, workers=1)
        b = run_study(spec, 24, 20, seed=9, workers=3)
        np.testing.assert_array_equal(a.estimates, b.estimates)
        np.testing.assert_array_equal(a.ses, b.ses)

    def test_metrics_recomputable_from_csv_bitwise(self):
        spec = DgpSpec(case="c1", n_g=120)
        res = run_study(spec, 15, 12, seed=2)
        text = replicates_to_csv(res)
        names, est, ses = read_replicates_csv(text)
        assert names == res.param_names
        np.testing.assert_array_equal(est, res.estimates)
        np.testing.assert_array_equal(ses, res.ses)
        again = compute_metrics(est, ses, res.truth)
        for key in ("bias", "sd", "ese", "cp95"):
            np.testing.assert_array_equal(again[key], res.metrics[key])

    def test_study_dict_and_table_render(self):
        spec = DgpSpec(case="c2", n_g=100)
        res = run_study(spec, 10, 10, seed=3)
        payload = study_to_dict(res)
        assert payload["config"]["case"] == "c2"
        assert len(payload["parameters"]) == 2
        table = format_study_table(res)
        assert "CP95" in table and "c2" in table

    def test_c1_small_study_metrics_are_sane(self):
        spec = DgpSpec(case="c1", n_g=500)
        res = run_study(spec, 60, 60, seed=11)
        assert np.abs(res.metrics["bias"]).max() < 0.05
        assert 0.02 < res.metrics["sd"][0] < 0.15
        assert 0.75 <= res.metrics["cp95"].min() <= 1.0


# Studies checked against the one-replicate-at-a-time reference: (spec,
# replicates, bootstrap replicates, seed). With B = 9 a stack member chunk
# of 23 holds 2 replicates and the default of 256 holds 25, so 29
# replicates end on a partial chunk; 10**6 puts them all in one chunk.
STUDIES = {
    "c1": (DgpSpec(case="c1", n_g=120), 29, 9, 5),
    "c2": (DgpSpec(case="c2", n_g=100), 29, 9, 6),
    "c3": (DgpSpec(case="c3", n_g=150), 29, 9, 7),
    "c4": (DgpSpec(case="c4", n_g=150), 29, 9, 8),
    # Empty arms and empty treated-s0 or control-s1 pools make 108 of the
    # 261 resamples redraw, and one replicate fail.
    "c4-redraws": (DgpSpec(case="c4", n_g=8), 29, 9, 3),
    # Three replicates fail: undefined points and too few kept resamples.
    "c1-failures": (DgpSpec(case="c1", n_g=10), 60, 10, 1),
}
CHUNKS = (1, 7, 23, 256, 10**6)
_REFERENCES = {}


def _reference(name):
    if name not in _REFERENCES:
        _REFERENCES[name] = reference_run_study(*STUDIES[name])
    return _REFERENCES[name]


def _assert_matches_reference(result, reference):
    estimates, ses, n_failed, _ = reference
    np.testing.assert_array_equal(result.estimates, estimates)
    np.testing.assert_array_equal(result.ses, ses)
    assert result.n_failed == n_failed


class TestChunkedStudy:
    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("workers", (1, 2, 3))
    @pytest.mark.parametrize("name", sorted(STUDIES))
    def test_bit_identical_to_reference(self, monkeypatch, name, workers, chunk):
        monkeypatch.setattr(jointpo.inference, "_CHUNK", chunk)
        result = run_study(*STUDIES[name], workers=workers)
        _assert_matches_reference(result, _reference(name))

    def test_many_threads_with_frequent_switches(self, monkeypatch):
        # More threads than cores, switching often: a result written to the
        # wrong row or lost would break the equality.
        monkeypatch.setattr(jointpo.inference, "_CHUNK", 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            result = run_study(*STUDIES["c1-failures"], workers=8)
        finally:
            sys.setswitchinterval(interval)
        _assert_matches_reference(result, _reference("c1-failures"))

    def test_reference_studies_exercise_redraws_and_failures(self):
        assert _reference("c4-redraws")[3] == 108
        assert _reference("c4-redraws")[2] == 1
        assert _reference("c1-failures")[2] == 3
        assert all(_reference(name)[2] == 0 for name in ("c1", "c2", "c3", "c4"))

    @pytest.mark.parametrize("workers", (None, 2))
    def test_fewer_replicates_than_one_chunk(self, workers):
        spec = DgpSpec(case="c3", n_g=150)
        result = run_study(spec, 5, 9, 7, workers=workers)
        _assert_matches_reference(result, reference_run_study(spec, 5, 9, 7))

    @pytest.mark.parametrize("workers", (1, 2))
    def test_too_many_failures_abort_with_reference_count(self, workers):
        spec = DgpSpec(case="c1", n_g=8)
        n_failed = reference_run_study(spec, 60, 10, 1)[2]
        assert n_failed > 3
        with pytest.raises(InferenceError, match=f"^{n_failed} of 60 study replicates failed"):
            run_study(spec, 60, 10, 1, workers=workers)

    def test_workers_emit_no_warnings(self):
        # Undefined points divide by empty arms inside the worker threads.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_study(*STUDIES["c1-failures"], workers=2)
            overid_size_study(DgpSpec(case="c1", n_g=40), 20, 9, 2, workers=2)
        assert caught == []

    def test_pool_has_no_more_threads_than_chunks(self, monkeypatch):
        sizes = []

        class Recording(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
        spec = DgpSpec(case="c1", n_g=120)
        # 256 // (1 + 9) = 25 replicates a chunk: 60 replicates are 3 chunks.
        run_study(spec, 60, 9, 5, workers=8)
        run_study(spec, 60, 9, 5, workers=2)
        run_study(spec, 20, 9, 5, workers=8)
        assert sizes == [3, 2, 1]

    def test_workers_below_one_rejected(self):
        spec = DgpSpec(case="c1", n_g=120)
        for workers in (0, -1):
            with pytest.raises(ValidationError, match="workers must be at least 1"):
                run_study(spec, 4, 4, 1, workers=workers)
            with pytest.raises(ValidationError, match="workers must be at least 1"):
                overid_size_study(spec, 4, 4, 1, workers=workers)
        pop = dgp_population(spec)
        with pytest.raises(ValidationError, match="workers must be at least 1"):
            run_study(spec, 4, 4, 1, pipeline=_TruthPipeline(pop.truth), workers=0)

    def test_default_workers_are_the_usable_cpus(self):
        if hasattr(os, "sched_getaffinity"):
            assert _thread_count(None) == len(os.sched_getaffinity(0))
        else:
            assert _thread_count(None) == (os.cpu_count() or 1)
        assert _thread_count(3) == 3

    def test_pipeline_bootstrap_matches_reference_draws(self):
        spec = DgpSpec(case="c4", n_g=8)
        pop = dgp_population(spec)
        pipe = Pipeline(pop)
        counts, batch, keep, redrawn = _reference_draws(
            pop.cell_probs, spec.n_g, 40, replicate_rng(3, 0), pipe.valid
        )
        assert redrawn > 0
        rng = replicate_rng(3, 0)
        observed = rng.multinomial(spec.n_g, pop.cell_probs)
        np.testing.assert_array_equal(observed, counts)
        values, kept = pipe.bootstrap(observed, 40, rng)
        expected, ok = pipe.fit(batch)
        np.testing.assert_array_equal(values, expected)
        np.testing.assert_array_equal(kept, keep & ok)


    def test_rejecting_pipeline_sees_a_first_draw_and_100_rounds(self):
        spec = DgpSpec(case="c1", n_g=50)
        pipe = Pipeline(dgp_population(spec))
        sizes = []

        def reject(batch):
            sizes.append(len(batch))
            return np.zeros(len(batch), dtype=bool)

        pipe.valid = reject
        counts = simulate_dataset(spec, seed=1).counts_tensor()
        _, kept = pipe.bootstrap(counts, 6, replicate_rng(1, 0))
        assert sizes == [6] * 101 and not kept.any()
        sizes.clear()
        # One chunk of three replicates: every round redraws all 18 resamples.
        with pytest.raises(InferenceError, match="^3 of 3 study replicates failed"):
            run_study(spec, 3, 6, 1, pipeline=pipe, workers=1)
        assert sizes == [18] * 101


class TestChunkedOveridSize:
    @pytest.mark.parametrize("chunk", (1, 23, 10**6))
    @pytest.mark.parametrize("workers", (1, 2, 3))
    def test_bit_identical_to_reference(self, monkeypatch, workers, chunk):
        spec = DgpSpec(case="c1", n_g=200)
        if "overid" not in _REFERENCES:
            _REFERENCES["overid"] = reference_overid_size_study(spec, 29, 9, 4)
        monkeypatch.setattr(jointpo.inference, "_CHUNK", chunk)
        p_values = overid_size_study(spec, 29, 9, 4, workers=workers)
        np.testing.assert_array_equal(p_values, _REFERENCES["overid"])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("workers", (1, 2))
    def test_singular_point_fit_fails_only_its_replicate(self, workers):
        # At n_g=10 some replicates' point designs are singular: run_study
        # counts them as failed, and the size study gives them NaN p-values.
        spec = DgpSpec(case="c1", n_g=10)
        assert run_study(spec, 60, 10, 1, workers=workers).n_failed == 3
        p_values = overid_size_study(spec, 60, 10, 1, workers=workers)
        np.testing.assert_array_equal(p_values, reference_overid_size_study(spec, 60, 10, 1))
        assert 3 <= np.isnan(p_values).sum() < 60

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_rounding_sized_sigma_gives_nan(self):
        # Replicate 9 draws trial 9 as 0 5 0 5: its residual is the same in
        # every resample, and rounding leaves its spread near 1e-16.
        counts, *_ = _reference_draws(
            dgp_population(DgpSpec(case="c1", n_g=10)).cell_probs, 10, 10,
            replicate_rng(1, 9), lambda batch: np.ones(len(batch), dtype=bool),
        )
        assert counts[8].tolist() == [0, 5, 0, 5]
        assert np.isnan(overid_size_study(DgpSpec(case="c1", n_g=10), 60, 10, 1)[9])

    @pytest.mark.parametrize("workers", (1, 2))
    def test_deterministic_trial_gives_nan(self, workers):
        # Trial 8 holds only y=1 in both arms, so no replicate's statistic
        # has a scale.
        base = dgp_population(DgpSpec(case="c1", n_g=200))
        cells = base.cell_probs.copy()
        cells[7] = [0.0, 0.5, 0.0, 0.5]
        spec = DgpSpec(case="custom", n_g=200, custom=dataclasses.replace(base, cell_probs=cells))
        p_values = overid_size_study(spec, 6, 20, 3, workers=workers)
        np.testing.assert_array_equal(p_values, reference_overid_size_study(spec, 6, 20, 3))
        assert np.isnan(p_values).all()

    def test_just_identified_gives_nan(self):
        # With m = 2 the test has no degrees of freedom (overid_test reports
        # df 0 and no p-value).
        p_values = overid_size_study(DgpSpec(case="c1", n_g=100, m=2), 5, 8, 1)
        np.testing.assert_array_equal(p_values, np.full(5, np.nan))
        np.testing.assert_array_equal(
            p_values, reference_overid_size_study(DgpSpec(case="c1", n_g=100, m=2), 5, 8, 1)
        )

