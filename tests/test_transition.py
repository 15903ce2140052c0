import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointpo.data import COMPOSITE_STATES
from jointpo.errors import (
    ForcedSolveWarning,
    IdentificationError,
    OutOfRangeWarning,
    ValidationError,
)
from jointpo.simulate import DgpSpec, dgp_population
from jointpo.special import expit
from jointpo.transition import (
    DesignSystem,
    binary_transition_params,
    build_system,
    check_rank,
    derived_estimands,
    fit_transitions,
    joint_from_transitions,
    project_to_simplex,
    solve_transitions,
)

from helpers import (
    binary_summaries,
    composite_summaries,
    grid_refine_solve,
    normal_equations_solve,
    well_conditioned_system,
)


def make_system(M, R, mask=None, labels=None):
    M = np.asarray(M, dtype=float)
    k = M.shape[1]
    if labels is None:
        labels = tuple(f"y={i}" for i in range(k))
    if mask is None:
        mask = np.ones((k, k), dtype=bool)
    return DesignSystem(
        design=M,
        response=np.asarray(R, dtype=float),
        state_labels=tuple(labels),
        support_mask=mask,
        trial_ids=tuple(str(i + 1) for i in range(M.shape[0])),
    )


class TestBuildSystem:
    def test_binary_rows_are_copied(self):
        s = binary_summaries(np.array([[0.5, 0.5], [0.3, 0.7]]),
                             np.array([[0.6, 0.4], [0.4, 0.6]]))
        system = build_system(s, "outcome")
        np.testing.assert_array_equal(system.design[0], [0.5, 0.5])
        np.testing.assert_array_equal(system.response[0], [0.6, 0.4])
        assert system.support_mask.all()

    def test_surrogate_space_uses_surrogate_marginals(self):
        cc = np.array([[0.1, 0.2, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1]])
        tc = np.array([[0.25, 0.25, 0.25, 0.25], [0.4, 0.1, 0.4, 0.1]])
        s = composite_summaries(cc, tc)
        system = build_system(s, "surrogate")
        np.testing.assert_allclose(system.design[0], [0.3, 0.7])
        np.testing.assert_allclose(system.design[1], [0.7, 0.3])
        np.testing.assert_allclose(system.response[1], [0.5, 0.5])

    def test_composite_mask_with_both_monotonicities(self):
        cc = np.array([[0.1, 0.2, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1]])
        s = composite_summaries(cc, cc)
        system = build_system(s, "composite", mono_s=True, mono_y=True)
        mask = system.support_mask
        allowed_per_row = mask.sum(axis=1)
        np.testing.assert_array_equal(allowed_per_row, [4, 2, 2, 1])
        # row (s=0, y=1) may reach (0,1) and (1,1) only
        row = COMPOSITE_STATES.index((0, 1))
        allowed = {COMPOSITE_STATES[j] for j in np.flatnonzero(mask[row])}
        assert allowed == {(0, 1), (1, 1)}
        row = COMPOSITE_STATES.index((1, 0))
        allowed = {COMPOSITE_STATES[j] for j in np.flatnonzero(mask[row])}
        assert allowed == {(1, 0), (1, 1)}
        assert mask[COMPOSITE_STATES.index((1, 1))].sum() == 1

    def test_monotonicity_flags_rejected_off_space(self):
        s = binary_summaries(np.array([[0.5, 0.5], [0.3, 0.7]]),
                             np.array([[0.6, 0.4], [0.4, 0.6]]))
        with pytest.raises(ValidationError):
            build_system(s, "outcome", mono_y=True)

    def test_single_trial_is_an_identification_error(self):
        s = binary_summaries(np.array([[0.5, 0.5]]), np.array([[0.6, 0.4]]))
        with pytest.raises(IdentificationError, match="at least 2"):
            build_system(s, "outcome")


class TestCheckRank:
    def test_identical_rows_fail(self):
        system = make_system([[0.5, 0.5], [0.5, 0.5]], [[0.4, 0.6], [0.4, 0.6]])
        diag = check_rank(system)
        assert diag.condition_ratio < 1e-12
        assert not diag.satisfied

    def test_c1_population_design_is_satisfied(self):
        q = 0.5 + np.arange(10) / 30
        M = np.column_stack([1 - q, q])
        system = make_system(M, M)
        assert check_rank(system).satisfied

    def test_more_states_than_trials_reports_reason(self):
        M = np.tile(np.array([0.1, 0.2, 0.3, 0.4]), (3, 1))
        M = M + np.arange(3)[:, None] * np.array([0.01, -0.01, 0.02, -0.02])
        M = M / M.sum(axis=1, keepdims=True)
        system = make_system(M, M, labels=tuple("abcd"))
        diag = check_rank(system)
        assert not diag.satisfied
        assert "m < k" in diag.reason

    def test_masked_diagnostics_are_per_column(self):
        q = np.array([0.3, 0.5, 0.7])
        M = np.column_stack([1 - q, q])
        mask = np.array([[True, True], [False, True]])
        system = make_system(M, M, mask=mask, labels=("s=0", "s=1"))
        diag = check_rank(system)
        assert diag.columns is not None
        assert diag.columns[0].mode == "least_squares"
        assert diag.columns[0].sources == ("s=0",)
        assert diag.columns[1].mode == "completed"
        assert diag.satisfied

    def test_singular_values_nonincreasing(self):
        rng = np.random.default_rng(0)
        M, _, R = well_conditioned_system(rng, 6, 3)
        diag = check_rank(make_system(M, R, labels=("a", "b", "c")))
        sv = list(diag.singular_values)
        assert sv == sorted(sv, reverse=True)
        assert all(v >= 0 for v in sv)


class TestSolveTransitions:
    def test_hand_solved_two_by_two(self):
        # Exact interpolation: rows (0.5, 0.5) and (0.2, 0.8) mapped to
        # treated success 0.5 and 0.62 force coefficients (0.3, 0.7).
        system = make_system(
            [[0.5, 0.5], [0.2, 0.8]], [[0.5, 0.5], [0.38, 0.62]]
        )
        trans = solve_transitions(system)
        np.testing.assert_allclose(trans.probs[:, 1], [0.3, 0.7], atol=1e-12)
        np.testing.assert_allclose(trans.probs[:, 0], [0.7, 0.3], atol=1e-12)

    def test_identity_when_response_equals_design(self):
        rng = np.random.default_rng(3)
        M, _, _ = well_conditioned_system(rng, 5, 3)
        system = make_system(M, M, labels=("a", "b", "c"))
        trans = solve_transitions(system)
        np.testing.assert_allclose(trans.probs, np.eye(3), atol=1e-10)

    def test_c1_population_recovery(self):
        spec = DgpSpec(case="c1", n_g=100)
        pop = dgp_population(spec)
        s = binary_summaries(pop.control_marginals, pop.treated_marginals)
        trans = solve_transitions(build_system(s, "outcome"))
        theta = binary_transition_params(trans)
        np.testing.assert_allclose(
            theta, [expit(-0.5), expit(0.5)], atol=1e-12
        )
        assert tuple(np.round(theta, 3)) == (0.378, 0.622)

    def test_rank_failure_raises_without_force(self):
        system = make_system([[0.5, 0.5], [0.5, 0.5]], [[0.4, 0.6], [0.4, 0.6]])
        with pytest.raises(IdentificationError, match="full column rank"):
            solve_transitions(system)

    def test_force_solves_with_warning(self):
        system = make_system([[0.5, 0.5], [0.5, 0.5]], [[0.4, 0.6], [0.4, 0.6]])
        with pytest.warns(ForcedSolveWarning):
            trans = solve_transitions(system, force=True)
        assert trans.forced

    def test_out_of_range_estimates_warn_not_clip(self):
        M = np.array([[0.5, 0.5], [0.45, 0.55], [0.2, 0.8]])
        R = np.array([[0.99, 0.01], [0.2, 0.8], [0.5, 0.5]])
        system = make_system(M, R)
        with pytest.warns(OutOfRangeWarning):
            trans = solve_transitions(system)
        assert trans.out_of_range
        assert trans.probs.min() < 0 or trans.probs.max() > 1

    def test_projection_gives_valid_rows(self):
        M = np.array([[0.5, 0.5], [0.45, 0.55], [0.2, 0.8]])
        R = np.array([[0.99, 0.01], [0.2, 0.8], [0.5, 0.5]])
        trans = solve_transitions(make_system(M, R), project_simplex=True)
        assert trans.projected
        assert (trans.probs >= 0).all()
        np.testing.assert_allclose(trans.probs.sum(axis=1), 1.0, atol=1e-12)

    def test_weighted_option_changes_solution(self):
        rng = np.random.default_rng(11)
        M, _, _ = well_conditioned_system(rng, 6, 2)
        R = np.clip(M @ np.array([[0.8, 0.2], [0.1, 0.9]]) +
                    rng.normal(scale=0.02, size=(6, 2)), 0.01, 0.99)
        R = R / R.sum(axis=1, keepdims=True)
        system = make_system(M, R)
        plain = solve_transitions(system)
        weighted = solve_transitions(system, trial_weights=np.arange(1, 7, dtype=float))
        assert not np.allclose(plain.probs, weighted.probs)

    def test_weighted_rank_gate_uses_the_weighted_design(self):
        # Full rank unweighted, but a vanishing weight leaves only the y=0
        # rows: the gate and its reason must come from the weighted design.
        M = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        system = make_system(M, M)
        weights = np.array([1.0, 1e-30, 1.0])
        assert check_rank(system).satisfied
        with pytest.raises(
            IdentificationError, match=r"^design matrix is not full column rank: condition ratio"
        ):
            solve_transitions(system, trial_weights=weights)
        with pytest.warns(
            ForcedSolveWarning, match=r"^solving despite rank failure \(condition ratio .*<= 1.0e-08\)"
        ):
            trans = solve_transitions(system, trial_weights=weights, force=True)
        assert trans.forced and not trans.diagnostics.satisfied

    def test_masked_terminal_row_is_forced_to_one(self):
        cc = np.array([[0.4, 0.3, 0.2, 0.1], [0.1, 0.2, 0.3, 0.4]])
        s = composite_summaries(cc, cc)
        system = build_system(s, "composite", mono_s=True, mono_y=True)
        trans = solve_transitions(system)
        terminal = COMPOSITE_STATES.index((1, 1))
        assert trans.probs[terminal, terminal] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(trans.probs.sum(axis=1), 1.0, atol=1e-12)

    def test_masked_exact_recovery_of_monotone_population(self):
        rng = np.random.default_rng(5)
        mask = np.array(
            [
                [True, True, True, True],
                [False, True, False, True],
                [False, False, True, True],
                [False, False, False, True],
            ]
        )
        truth = np.zeros((4, 4))
        for i in range(4):
            allowed = np.flatnonzero(mask[i])
            truth[i, allowed] = rng.dirichlet(np.ones(allowed.size))
        control = rng.dirichlet(np.ones(4) * 3, size=5)
        treated = control @ truth
        s = composite_summaries(control, treated)
        system = build_system(s, "composite", mono_s=True, mono_y=True)
        trans = solve_transitions(system)
        np.testing.assert_allclose(trans.probs, truth, atol=1e-8)

    def test_masked_partial_solve_marks_unavailable(self):
        # Outcome-only monotonicity with two trials leaves the four-source
        # columns unidentified; the structural zeros stay determined.
        cc = np.array([[0.4, 0.3, 0.2, 0.1], [0.1, 0.2, 0.3, 0.4]])
        s = composite_summaries(cc, cc)
        system = build_system(s, "composite", mono_y=True)
        with pytest.raises(IdentificationError):
            solve_transitions(system)
        trans = solve_transitions(system, allow_partial=True)
        assert trans.determined.sum() == 8
        assert np.isnan(trans.probs[~trans.determined]).all()


class TestFitTransitions:
    def test_near_collinear_design_is_identified_and_finite(self):
        # Four trials of 10**7 units per arm whose control y=1 counts differ
        # by one or two units: the condition ratio 2.24e-7 passes the rank
        # gate, and the rows of the fit miss stochasticity by about 5e-10.
        n = 10**7
        control = np.array([5_000_000, 5_000_001, 5_000_002, 5_000_003]) / n
        treated = np.array([4_999_997, 5_000_001, 5_000_003, 5_000_000]) / n
        design = np.stack([1 - control, control], axis=-1)
        response = np.stack([1 - treated, treated], axis=-1)
        assert check_rank(make_system(design, response)).condition_ratio == pytest.approx(
            2.236e-7, rel=1e-3
        )
        probs, identified = fit_transitions(
            design[None], response[None], np.ones((2, 2), dtype=bool)
        )
        assert probs.shape == (1, 2, 2) and identified.tolist() == [True]
        assert np.isfinite(probs).all()
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-8)


class TestSolverProperties:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_exact_recovery(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 9))
        k = int(rng.integers(2, min(m, 4) + 1))
        M, truth, R = well_conditioned_system(rng, m, k)
        system = make_system(M, R, labels=tuple(str(i) for i in range(k)))
        trans = solve_transitions(system)
        np.testing.assert_allclose(trans.probs, truth, atol=1e-10)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_unmasked_rows_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 11))
        k = int(rng.integers(2, min(m, 4) + 1))
        M, _, _ = well_conditioned_system(rng, m, k)
        R = rng.dirichlet(np.ones(k), size=m)
        system = make_system(M, R, labels=tuple(str(i) for i in range(k)))
        trans = solve_transitions(system)
        np.testing.assert_allclose(trans.probs.sum(axis=1), 1.0, atol=1e-10)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_normal_equations_oracle(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 11))
        k = int(rng.integers(2, min(m, 4) + 1))
        M, _, _ = well_conditioned_system(rng, m, k)
        R = rng.dirichlet(np.ones(k), size=m)
        system = make_system(M, R, labels=tuple(str(i) for i in range(k)))
        trans = solve_transitions(system)
        oracle = normal_equations_solve(M, R)
        np.testing.assert_allclose(trans.probs, oracle, atol=1e-6)

    def test_matches_grid_refinement_oracle(self):
        rng = np.random.default_rng(4)
        M, _, _ = well_conditioned_system(rng, 6, 2)
        R = rng.dirichlet(np.ones(2), size=6)
        system = make_system(M, R)
        trans = solve_transitions(system)
        oracle = grid_refine_solve(M, R[:, 1])
        np.testing.assert_allclose(trans.probs[:, 1], oracle, atol=1e-5)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_projection_idempotent_on_valid_rows(self, seed):
        rng = np.random.default_rng(seed)
        row = rng.dirichlet(np.ones(int(rng.integers(2, 6))))
        np.testing.assert_allclose(project_to_simplex(row), row, atol=1e-12)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_projection_lands_on_simplex(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=int(rng.integers(2, 6)))
        p = project_to_simplex(v)
        assert (p >= -1e-15).all()
        assert p.sum() == pytest.approx(1.0, abs=1e-12)


class TestJointAndEstimands:
    def test_identity_transition_gives_diagonal(self):
        system = make_system([[0.5, 0.5], [0.2, 0.8]], [[0.5, 0.5], [0.2, 0.8]])
        trans = solve_transitions(system)
        joint = joint_from_transitions(trans, np.array([0.3, 0.7]), "t")
        np.testing.assert_allclose(joint.table, np.diag([0.3, 0.7]), atol=1e-10)

    def test_elementwise_product(self):
        system = make_system(
            [[0.5, 0.5], [0.2, 0.8]], [[0.5, 0.5], [0.38, 0.62]]
        )
        trans = solve_transitions(system)
        # transitions ((0.7, 0.3), (0.3, 0.7)) against a uniform marginal
        joint = joint_from_transitions(trans, np.array([0.5, 0.5]), "t")
        np.testing.assert_allclose(
            joint.table, [[0.35, 0.15], [0.15, 0.35]], atol=1e-12
        )
        # row sums reproduce the marginal exactly; column sums the fitted
        # treated marginal
        np.testing.assert_allclose(joint.table.sum(axis=1), [0.5, 0.5], atol=0)
        np.testing.assert_allclose(
            joint.table.sum(axis=0), trans.probs.T @ np.array([0.5, 0.5]), atol=1e-15
        )

    def test_estimand_arithmetic(self):
        est = derived_estimands(np.array([[0.35, 0.15], [0.15, 0.35]]))
        assert est.treatment_harm_rate == pytest.approx(0.15)
        assert est.treatment_benefit_rate == pytest.approx(0.15)
        assert est.persuasion_rate == pytest.approx(0.3)
        assert est.prob_sufficient_causation == pytest.approx(0.3)
        assert est.prob_necessary_causation == pytest.approx(0.3)

    def test_diagonal_joint_has_no_harm_or_benefit(self):
        est = derived_estimands(np.diag([0.3, 0.7]))
        assert est.treatment_harm_rate == 0.0
        assert est.treatment_benefit_rate == 0.0

    def test_empty_stratum_marks_undefined(self):
        est = derived_estimands(np.array([[0.0, 0.0], [0.4, 0.6]]))
        assert est.persuasion_rate is None
        assert est.prob_necessary_causation is not None

    def test_favorable_label_zero_swaps_roles(self):
        table = np.array([[0.35, 0.15], [0.05, 0.45]])
        est0 = derived_estimands(table, favorable_label=0)
        assert est0.treatment_harm_rate == pytest.approx(table[0, 1])
        assert est0.treatment_benefit_rate == pytest.approx(table[1, 0])

    def test_non_binary_rejected(self):
        with pytest.raises(ValidationError):
            derived_estimands(np.full((3, 3), 1 / 9))
