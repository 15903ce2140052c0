import contextlib
import csv
import hashlib
import io
import json
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from jsonschema import validate

import jointpo.cli
from helpers import reference_estimate, reference_target
from jointpo.cli import joint_cell_estimator, main
from jointpo.data import (
    MultiTrialDataset,
    TrialCellCounts,
    parse_dataset,
    serialize_dataset,
    summarize,
)
from jointpo.inference import BootstrapConfig, bootstrap
from jointpo.report import load_report_schema
from jointpo.simulate import DgpSpec, simulate_dataset
from jointpo.special import chi2_sf
from jointpo.transition import (
    build_system,
    check_rank,
    joint_from_transitions,
    solve_transitions,
)

TOY_TWO_TRIAL = """trial,arm,s,y,count
1,0,NA,0,50
1,0,NA,1,50
1,1,NA,0,50
1,1,NA,1,50
2,0,NA,0,20
2,0,NA,1,80
2,1,NA,0,38
2,1,NA,1,62
"""

TOY_TARGET = TOY_TWO_TRIAL + """0,0,NA,0,60
0,0,NA,1,60
"""

# Four trials; trial 1's treated surrogate rate (0.4) is below its control
# rate (0.6), so the monotone ordering S1 >= S0 looks violated there.
VIOLATION = "trial,arm,s,y,count\n" + "".join(
    f"{g},{a},{s},{y},{arms[a][2 * s + y]}\n"
    for g, arms in enumerate(
        [
            ((20, 20, 20, 40), (40, 20, 20, 20)),
            ((40, 20, 10, 30), (20, 20, 20, 40)),
            ((30, 30, 20, 20), (15, 25, 25, 35)),
            ((45, 25, 15, 15), (25, 25, 20, 30)),
        ],
        1,
    )
    for a in (0, 1)
    for s in (0, 1)
    for y in (0, 1)
)

# Seven ordinary trials, then trial 8 whose arms hold only y=1.
DETERMINISTIC_TRIAL = "trial,arm,s,y,count\n" + "".join(
    f"{g},{a},NA,{y},{n}\n"
    for g, arms in enumerate(
        [(60, 40, 45, 55), (50, 50, 38, 62), (40, 60, 33, 67), (30, 70, 25, 75),
         (55, 45, 40, 60), (45, 55, 36, 64), (35, 65, 30, 70), (0, 37, 0, 41)],
        1,
    )
    for a in (0, 1)
    for y, n in enumerate(arms[2 * a : 2 * a + 2])
)

TEN_TRIAL_SURROGATE = "trial,arm,s,y,count\n" + "".join(
    f"{g},{a},{s},{y},{40 + 7 * g + 11 * a + 3 * s + 5 * y + (g * a) % 5}\n"
    for g in range(1, 11)
    for a in (0, 1)
    for s in (0, 1)
    for y in (0, 1)
)


@pytest.fixture
def toy_csv(tmp_path):
    p = tmp_path / "toy.csv"
    p.write_text(TOY_TWO_TRIAL)
    return p


@pytest.fixture
def target_csv(tmp_path):
    p = tmp_path / "target.csv"
    p.write_text(TOY_TARGET)
    return p


@pytest.fixture
def registry_csv(tmp_path):
    p = tmp_path / "registry.csv"
    p.write_text(TEN_TRIAL_SURROGATE)
    return p


@pytest.fixture
def c1_csv(tmp_path):
    ds = simulate_dataset(DgpSpec(case="c1", n_g=500), seed=99)
    p = tmp_path / "c1.csv"
    p.write_text(serialize_dataset(ds))
    return p


@pytest.fixture
def c4_csv(tmp_path):
    ds = simulate_dataset(DgpSpec(case="c4", n_g=500), seed=31)
    p = tmp_path / "c4.csv"
    p.write_text(serialize_dataset(ds))
    return p


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    report = json.loads(out)
    validate(report, load_report_schema())
    return report, out


class TestEstimate:
    def test_toy_system_recovers_hand_solution(self, capsys, toy_csv):
        report, _ = run_json(
            capsys, "estimate", "--input", str(toy_csv), "--boot", "0"
        )
        probs = np.array(report["results"]["transition"]["probs"])
        np.testing.assert_allclose(probs[:, 1], [0.3, 0.7], atol=1e-10)
        assert report["results"]["per_trial"][0]["estimands"]["thr"] is not None

    def test_composite_without_surrogate_exits_2(self, capsys, toy_csv):
        code, out, err = run_cli(
            capsys, "estimate", "--input", str(toy_csv), "--space", "composite", "--boot", "0"
        )
        assert code == 2
        payload = json.loads(err)
        assert payload["error"]["exit_code"] == 2
        assert payload["error"]["type"] == "SchemaError"

    def test_ten_trial_surrogate_table_runs(self, capsys, registry_csv):
        report, _ = run_json(
            capsys,
            "estimate", "--input", str(registry_csv), "--space", "surrogate",
            "--boot", "50", "--seed", "3",
        )
        assert report["results"]["space"] == "surrogate"
        assert len(report["results"]["per_trial"]) == 10
        se = report["results"]["parameters"]["se"]
        assert se is not None and all(v >= 0 for v in se)

    @pytest.mark.parametrize(
        "table, flags",
        [("toy", ["--space", "outcome"]), ("registry", ["--space", "composite", "--mono-s", "--mono-y"])],
    )
    def test_rank_diagnostics_report(self, capsys, toy_csv, registry_csv, table, flags):
        path = toy_csv if table == "toy" else registry_csv
        report, _ = run_json(capsys, "estimate", "--input", str(path), *flags, "--boot", "0")
        space = flags[1]
        masked = "--mono-s" in flags
        system = build_system(
            summarize(parse_dataset(path)), space, mono_s=masked, mono_y=masked
        )
        diag = check_rank(system)
        columns = None
        if masked:
            columns = [
                {
                    "target": c.target,
                    "sources": list(c.sources),
                    "singular_values": list(c.singular_values),
                    "condition_ratio": c.condition_ratio,
                    "satisfied": c.satisfied,
                    "mode": c.mode,
                    "reason": c.reason,
                }
                for c in diag.columns
            ]
            assert {c["mode"] for c in columns} == {"least_squares", "completed"}
        assert report["diagnostics"]["rank"] == {
            "singular_values": list(diag.singular_values),
            "condition_ratio": diag.condition_ratio,
            "satisfied": diag.satisfied,
            "feasible": diag.feasible,
            "reason": diag.reason,
            "tol_ratio": diag.tol_ratio,
            "columns": columns,
        }

    def test_missing_seed_with_bootstrap_exits_2(self, capsys, toy_csv):
        code, _, err = run_cli(capsys, "estimate", "--input", str(toy_csv))
        assert code == 2
        assert "seed" in json.loads(err)["error"]["message"]

    def test_missing_input_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "estimate", "--input", str(tmp_path / "nope.csv"), "--boot", "0"
        )
        assert code == 2

    def test_rank_failure_exits_3(self, capsys, tmp_path):
        p = tmp_path / "flat.csv"
        p.write_text(
            "trial,arm,s,y,count\n"
            "1,0,NA,0,50\n1,0,NA,1,50\n1,1,NA,0,40\n1,1,NA,1,60\n"
            "2,0,NA,0,50\n2,0,NA,1,50\n2,1,NA,0,40\n2,1,NA,1,60\n"
        )
        code, _, err = run_cli(capsys, "estimate", "--input", str(p), "--boot", "0")
        assert code == 3
        assert json.loads(err)["error"]["type"] == "IdentificationError"

    def test_byte_identical_across_workers(self, capsys, c1_csv):
        _, out1 = run_json(
            capsys, "estimate", "--input", str(c1_csv),
            "--boot", "40", "--seed", "8", "--workers", "1",
        )
        _, out2 = run_json(
            capsys, "estimate", "--input", str(c1_csv),
            "--boot", "40", "--seed", "8", "--workers", "3",
        )
        assert out1 == out2

    def test_byte_order_mark_input_gives_the_same_results(self, capsys, c1_csv, tmp_path):
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + c1_csv.read_bytes())
        flags = ["--boot", "20", "--seed", "4"]
        plain, _ = run_json(capsys, "estimate", "--input", str(c1_csv), *flags)
        bom, _ = run_json(capsys, "estimate", "--input", str(marked), *flags)
        assert bom["results"] == plain["results"]
        # The digest is of the raw bytes, mark included.
        assert bom["input"]["sha256"] == hashlib.sha256(marked.read_bytes()).hexdigest()
        assert bom["input"]["sha256"] != plain["input"]["sha256"]

    def test_output_file_and_timing_flag(self, capsys, toy_csv, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "estimate", "--input", str(toy_csv), "--boot", "0",
            "--output", str(out_path), "--timing",
        )
        assert code == 0
        assert out == ""
        report = json.loads(out_path.read_text())
        validate(report, load_report_schema())
        assert "timing_seconds" in report

    def test_report_written_in_slices_is_unchanged(
        self, capsys, monkeypatch, c1_csv, tmp_path
    ):
        argv = ["estimate", "--input", str(c1_csv), "--boot", "0"]
        _, whole = run_json(capsys, *argv)
        monkeypatch.setattr(jointpo.cli, "_WRITE_SLICE", 7)
        _, sliced = run_json(capsys, *argv)
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, *argv, "--output", str(out_path))
        assert code == 0 and out == ""
        assert sliced == whole
        assert out_path.read_bytes() == whole.encode("utf-8")


class TestTest:
    def test_df_and_consistency_on_simulated_data(self, capsys, c1_csv):
        report, _ = run_json(
            capsys, "test", "--input", str(c1_csv), "--boot", "80", "--seed", "5"
        )
        res = report["results"]
        assert res["df"] == 8
        assert res["m"] == 10 and res["k"] == 2
        assert res["p_value"] == pytest.approx(
            chi2_sf(res["j_statistic"], res["df"]), abs=1e-12
        )
        recomputed = sum(
            (row["residual"] / row["sigma"]) ** 2 for row in res["per_trial"]
        )
        assert res["j_statistic"] == pytest.approx(recomputed, abs=1e-12)

    def test_just_identified_exits_3(self, capsys, toy_csv):
        code, _, err = run_cli(
            capsys, "test", "--input", str(toy_csv), "--boot", "50", "--seed", "1"
        )
        assert code == 3
        assert "just-identified" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("seed", ["1", "2", "3"])
    def test_deterministic_trial_exits_4(self, capsys, tmp_path, seed):
        # Trial 8's arms hold only y=1, so its residual is the same in every
        # resample: its standard error is zero up to rounding, and the test
        # statistic has no scale.
        p = tmp_path / "deterministic.csv"
        p.write_text(DETERMINISTIC_TRIAL)
        code, out, err = run_cli(
            capsys, "test", "--input", str(p), "--boot", "200", "--seed", seed
        )
        assert code == 4 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "InferenceError"
        assert error["message"].startswith("zero residual standard error for trial(s) 8;")

    def test_surrogate_space_df(self, capsys, registry_csv):
        report, _ = run_json(
            capsys,
            "test", "--input", str(registry_csv), "--space", "surrogate",
            "--boot", "60", "--seed", "2",
        )
        assert report["results"]["df"] == 10 - 2

    def test_percentile_ci_method_exits_2(self, c1_csv):
        proc = subprocess.run(
            [sys.executable, "-m", "jointpo.cli", "test", "--input", str(c1_csv),
             "--boot", "20", "--seed", "3", "--ci-method", "percentile"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        error = json.loads(proc.stderr)["error"]
        assert error["type"] == "ValidationError" and error["exit_code"] == 2
        assert "normal intervals only" in error["message"]

    def test_plot_data_files(self, capsys, c1_csv, tmp_path):
        plot_dir = tmp_path / "plots"
        run_json(
            capsys, "test", "--input", str(c1_csv), "--boot", "50", "--seed", "5",
            "--plot-data", str(plot_dir),
        )
        lin = (plot_dir / "linearity.tsv").read_text().splitlines()
        header = lin[0].split("\t")
        assert header == [
            "trial",
            "control_state0",
            "control_state1",
            "treated_state1",
            "fitted_treated_state1",
            "residual",
        ]
        rows = [line.split("\t") for line in lin[1:]]
        assert len(rows) == 10
        # column arithmetic: residual = treated - fitted
        for row in rows:
            assert float(row[5]) == pytest.approx(
                float(row[3]) - float(row[4]), abs=1e-12
            )
        ate = (plot_dir / "ate.tsv").read_text().splitlines()
        assert ate[0].split("\t") == ["trial", "ate"]
        assert len(ate) == 11


class TestPsace:
    def test_method1_reports_and_marks_stratum_10(self, capsys, c4_csv):
        report, _ = run_json(
            capsys, "psace", "--input", str(c4_csv), "--method", "1",
            "--boot", "40", "--seed", "6",
        )
        res = report["results"]
        assert res["method"] == 1
        idx = res["strata"].index("10")
        assert all(row[idx] is None for row in res["psace"]["estimates"])
        assert all(not row[idx] for row in res["psace"]["defined"])
        assert res["stratum_outcome_probs"] is not None
        # method-1 effects are trial invariant
        est = res["psace"]["estimates"]
        for j in (0, 1, 3):
            col = [row[j] for row in est]
            assert all(v == col[0] for v in col)

    def test_method4_m3_exits_3(self, capsys, tmp_path):
        ds = simulate_dataset(DgpSpec(case="c4", n_g=200, m=3), seed=1)
        p = tmp_path / "m3.csv"
        p.write_text(serialize_dataset(ds))
        code, _, err = run_cli(
            capsys, "psace", "--input", str(p), "--method", "4", "--boot", "0"
        )
        assert code == 3
        assert "m >= 4" in json.loads(err)["error"]["message"]

    def test_method2_and_method3_run(self, capsys, c4_csv):
        for method in ("2", "3"):
            report, _ = run_json(
                capsys, "psace", "--input", str(c4_csv), "--method", method,
                "--boot", "0",
            )
            assert report["results"]["fourway"] is not None

    def test_non_surrogate_input_exits_2(self, capsys, toy_csv):
        code, _, _ = run_cli(
            capsys, "psace", "--input", str(toy_csv), "--method", "1", "--boot", "0"
        )
        assert code == 2

    @pytest.mark.parametrize("method", ["1", "2"])
    def test_monotonicity_violation_is_listed_once(self, capsys, tmp_path, method):
        p = tmp_path / "violation.csv"
        p.write_text(VIOLATION)
        report, _ = run_json(
            capsys, "psace", "--input", str(p), "--method", method, "--boot", "0"
        )
        assert report["results"]["principal_scores"]["violations"] == ["1"]
        categories = [w["category"] for w in report["diagnostics"]["warnings"]]
        assert categories.count("MonotonicityWarning") == 1

    def test_plot_data_intervals(self, capsys, c4_csv, tmp_path):
        plot_dir = tmp_path / "plots"
        run_json(
            capsys, "psace", "--input", str(c4_csv), "--method", "1",
            "--boot", "30", "--seed", "6", "--plot-data", str(plot_dir),
        )
        lines = (plot_dir / "psace_intervals.tsv").read_text().splitlines()
        assert lines[0].split("\t") == [
            "method", "stratum", "trial", "estimate", "lower", "upper", "defined",
        ]
        assert len(lines) == 1 + 10 * 4
        cells = (plot_dir / "joint_cells.tsv").read_text().splitlines()
        assert cells[0].split("\t") == [
            "space", "cell", "trial", "estimate", "lower", "upper",
        ]
        assert len(cells) == 1 + 2 * 10

    @pytest.mark.parametrize("method", ["1", "4"])
    def test_plot_data_lists_the_joint_cell_warnings(self, capsys, c4_csv, tmp_path, method):
        # The joint cells of --plot-data come from forced solves of the
        # surrogate and outcome systems: their warnings follow the method's
        # own, as `estimate --force` lists them for each space.
        def warnings_of(command, *argv):
            report, _ = run_json(capsys, command, "--input", str(c4_csv), "--boot", "0", *argv)
            return report["diagnostics"]["warnings"]

        listed = warnings_of("psace", "--method", method, "--plot-data", str(tmp_path / "p"))
        expected = warnings_of("psace", "--method", method) + [
            w
            for space in ("surrogate", "outcome")
            for w in warnings_of("estimate", "--space", space, "--force")
        ]
        assert listed == expected
        assert len(listed) > len(warnings_of("psace", "--method", method))

    @pytest.mark.parametrize("ci_method", ["normal", "percentile"])
    def test_plot_data_bootstraps_once(self, capsys, c4_csv, tmp_path, monkeypatch, ci_method):
        # The psace table and both spaces' joint cells are one statistic:
        # one bootstrap, whose joint-cell intervals are those of bootstrapping
        # the joint cells alone when no replicate is redrawn.
        results = []

        def counted(*args, **kwargs):
            results.append(bootstrap(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(jointpo.cli, "bootstrap", counted)
        plot_dir = tmp_path / "plots"
        run_json(
            capsys, "psace", "--input", str(c4_csv), "--method", "4", "--boot", "40",
            "--seed", "6", "--ci-method", ci_method, "--plot-data", str(plot_dir),
        )
        assert len(results) == 1
        assert results[0].n_redrawn == 0
        rows = [
            line.split("\t")
            for line in (plot_dir / "joint_cells.tsv").read_text().splitlines()[1:]
        ]
        ds = parse_dataset(c4_csv)
        config = BootstrapConfig(replicates=40, seed=6, ci_method=ci_method)
        for space in ("surrogate", "outcome"):
            alone = bootstrap(ds, joint_cell_estimator(ds, space), config)
            got = np.array([[float(r[4]), float(r[5])] for r in rows if r[0] == space])
            np.testing.assert_array_equal(got[:, 0], alone.ci_lower)
            np.testing.assert_array_equal(got[:, 1], alone.ci_upper)


    def test_method3_m3_undefined_effects_have_null_intervals(self, capsys, tmp_path):
        # With three trials method 3 identifies no stratum effect; the
        # bootstrap still solves every replicate minimum-norm, but no
        # interval may be reported for an undefined effect.
        ds = simulate_dataset(DgpSpec(case="c4", n_g=300, m=3), seed=2)
        p = tmp_path / "m3.csv"
        p.write_text(serialize_dataset(ds))
        report, _ = run_json(
            capsys, "psace", "--input", str(p), "--method", "3",
            "--boot", "50", "--seed", "1",
        )
        psace = report["results"]["psace"]
        assert not any(any(row) for row in psace["defined"])
        for key in ("estimates", "se", "ci_lower", "ci_upper"):
            assert all(v is None for row in psace[key] for v in row), key


class TestWarningsListedOnce:
    """The bootstrap repeats each command's point solve; the report must
    list the command's warnings once, whatever ``--boot`` is."""

    @staticmethod
    def _warnings(capsys, *argv):
        lists = []
        for boot in ("0", "50"):
            report, _ = run_json(capsys, *argv, "--boot", boot, "--seed", "1")
            lists.append(report["diagnostics"]["warnings"])
        return lists

    def test_masked_composite_estimate(self, capsys, tmp_path):
        p = tmp_path / "c3.csv"
        p.write_text(serialize_dataset(simulate_dataset(DgpSpec(case="c3", n_g=2000), seed=4)))
        without, with_boot = self._warnings(
            capsys, "estimate", "--input", str(p), "--space", "composite",
            "--mono-s", "--mono-y",
        )
        assert without and with_boot == without

    def test_psace_method3_m3(self, capsys, tmp_path):
        p = tmp_path / "m3.csv"
        p.write_text(serialize_dataset(simulate_dataset(DgpSpec(case="c4", n_g=300, m=3), seed=2)))
        without, with_boot = self._warnings(capsys, "psace", "--input", str(p), "--method", "3")
        assert with_boot == without
        assert "ForcedSolveWarning" not in {w["category"] for w in with_boot}


# Transitions [[1.1, -0.1], [0.3, 0.7]] fit all three trials exactly: the
# joint tables of A and B have a negative cell, C's (all control units in
# state 1) has none.
NEGATIVE_JOINTS = "trial,arm,s,y,count\n" + "".join(
    f"{g},{a},NA,{y},{n}\n"
    for g, arms in (("A", (50, 50, 70, 30)), ("C", (0, 100, 30, 70)), ("B", (80, 20, 94, 6)))
    for a in (0, 1)
    for y, n in enumerate(arms[2 * a : 2 * a + 2])
)


class TestBatchedJointTables:
    def test_estimate_matches_per_trial_joint_from_transitions(self, capsys, tmp_path):
        p = tmp_path / "negative.csv"
        p.write_text(NEGATIVE_JOINTS)
        report, _ = run_json(capsys, "estimate", "--input", str(p), "--boot", "0")

        summaries = summarize(parse_dataset(p))
        system = build_system(summaries, "outcome")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            trans = solve_transitions(system)
            joints = [
                joint_from_transitions(trans, system.design[g], tid)
                for g, tid in enumerate(system.trial_ids)
            ]
        expected = [
            {"trial": j.trial_id, "joint": j.table.tolist(), "negative_mass": j.negative_mass}
            for j in joints
        ]
        got = [
            {key: row[key] for key in ("trial", "joint", "negative_mass")}
            for row in report["results"]["per_trial"]
        ]
        assert got == expected
        assert [j.negative_mass for j in joints] == [True, False, True]
        messages = [
            {"category": type(w.message).__name__, "message": str(w.message)}
            for w in caught
        ]
        assert report["diagnostics"]["warnings"] == messages
        assert len(messages) == 3


class TestTarget:
    def test_joint_on_target_marginal(self, capsys, target_csv):
        report, _ = run_json(
            capsys, "target", "--input", str(target_csv), "--boot", "0"
        )
        res = report["results"]
        assert res["target_trial"] == "0"
        joint = np.array(res["joint"])
        np.testing.assert_allclose(
            joint, [[0.35, 0.15], [0.15, 0.35]], atol=1e-10
        )
        assert res["estimands"]["persuasion_rate"] == pytest.approx(0.3, abs=1e-10)

    def test_target_equal_to_experimental_control(self, capsys, tmp_path):
        text = TOY_TWO_TRIAL + "0,0,NA,0,50\n0,0,NA,1,50\n"
        p = tmp_path / "t.csv"
        p.write_text(text)
        report, _ = run_json(capsys, "target", "--input", str(p), "--boot", "0")
        joint_target = np.array(report["results"]["joint"])
        report2, _ = run_json(capsys, "estimate", "--input", str(p), "--boot", "0")
        joint_trial1 = np.array(report2["results"]["per_trial"][0]["joint"])
        np.testing.assert_allclose(joint_target, joint_trial1, atol=1e-12)

    def test_without_target_exits_2(self, capsys, toy_csv):
        code, _, err = run_cli(capsys, "target", "--input", str(toy_csv), "--boot", "0")
        assert code == 2
        assert "target" in json.loads(err)["error"]["message"]

    def test_target_with_treated_rows_exits_2(self, capsys, tmp_path):
        text = TOY_TWO_TRIAL + "0,0,NA,0,60\n0,1,NA,1,6\n"
        p = tmp_path / "bad.csv"
        p.write_text(text)
        code, _, err = run_cli(capsys, "target", "--input", str(p), "--boot", "0")
        assert code == 2
        assert "control rows only" in json.loads(err)["error"]["message"]


class TestSimulate:
    def test_reps_below_two_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--case", "c1", "--ng", "100", "--reps", "1",
            "--boot", "10", "--seed", "1",
        )
        assert code == 2

    def test_missing_seed_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--case", "c1", "--ng", "100", "--reps", "5",
            "--boot", "10",
        )
        assert code == 2

    def test_report_and_replicates_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "reps.csv"
        report, _ = run_json(
            capsys,
            "simulate", "--case", "c1", "--ng", "100", "--reps", "8",
            "--boot", "10", "--seed", "4", "--replicates-csv", str(csv_path),
        )
        params = report["results"]["parameters"]
        assert len(params) == 2
        assert {"name", "truth", "bias", "sd", "ese", "cp95"} <= set(params[0])
        rows = list(csv.reader(io.StringIO(csv_path.read_text())))
        assert rows[0] == ["replicate", "parameter", "estimate", "se"]
        assert len(rows) == 1 + 8 * 2

    def test_byte_identical_across_workers_and_reruns(self, capsys):
        args = (
            "simulate", "--case", "c2", "--ng", "120", "--reps", "6",
            "--boot", "8", "--seed", "13",
        )
        _, out1 = run_json(capsys, *args, "--workers", "1")
        _, out2 = run_json(capsys, *args, "--workers", "4")
        _, out3 = run_json(capsys, *args)
        assert out1 == out2 == out3

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_exits_2(self, workers):
        proc = subprocess.run(
            [sys.executable, "-m", "jointpo.cli", "simulate", "--case", "c1",
             "--ng", "80", "--reps", "4", "--boot", "6", "--seed", "2",
             "--workers", workers],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        error = json.loads(proc.stderr)["error"]
        assert error["type"] == "ValidationError" and error["exit_code"] == 2
        assert error["message"] == f"workers must be at least 1, got {workers}"

    def test_table_goes_to_stderr(self, capsys):
        code, out, err = run_cli(
            capsys,
            "simulate", "--case", "c1", "--ng", "80", "--reps", "4",
            "--boot", "6", "--seed", "2", "--table",
        )
        assert code == 0
        assert "CP95" in err
        json.loads(out)

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "study.json"
        cfg.write_text(json.dumps({
            "case": "c1", "n_g": 90, "replicates": 5,
            "bootstrap_replicates": 8, "seed": 21,
        }))
        report, _ = run_json(capsys, "simulate", "--config", str(cfg))
        assert report["results"]["config"]["case"] == "c1"
        assert report["results"]["config"]["n_g"] == 90

    def test_byte_order_mark_config_gives_the_same_report(self, capsys, tmp_path):
        text = json.dumps({
            "case": "c1", "n_g": 90, "replicates": 5,
            "bootstrap_replicates": 8, "seed": 21,
        })
        (tmp_path / "plain.json").write_bytes(text.encode())
        (tmp_path / "marked.json").write_bytes(b"\xef\xbb\xbf" + text.encode())
        _, plain = run_json(capsys, "simulate", "--config", str(tmp_path / "plain.json"))
        _, marked = run_json(capsys, "simulate", "--config", str(tmp_path / "marked.json"))
        assert marked == plain

    def test_config_bootstrap_replicates_without_boot_flag(self, capsys, tmp_path):
        cfg = tmp_path / "study.json"
        cfg.write_text(json.dumps({
            "case": "c1", "n_g": 90, "replicates": 5,
            "bootstrap_replicates": 8, "seed": 21,
        }))
        report, _ = run_json(capsys, "simulate", "--config", str(cfg))
        assert report["flags"]["bootstrap_replicates"] == 8
        report, _ = run_json(capsys, "simulate", "--config", str(cfg), "--boot", "6")
        assert report["flags"]["bootstrap_replicates"] == 6

    def test_too_many_trials_for_builtin_case_exits_2(self):
        # Control success 0.5 + (m-1)/30 exceeds 1 beyond m = 16.
        proc = subprocess.run(
            [sys.executable, "-m", "jointpo.cli", "simulate", "--case", "c1",
             "--m", "50", "--ng", "100", "--reps", "5", "--boot", "5", "--seed", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        error = json.loads(proc.stderr)["error"]
        assert error["type"] == "ValidationError" and "m=16" in error["message"]

    def test_unknown_case_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--case", "c7", "--ng", "10", "--reps", "5",
                  "--boot", "5", "--seed", "0"])
        assert exc.value.code == 2


def _with_target(ds, control):
    counts = np.zeros_like(ds.trials[0].counts)
    counts[0] = control
    return MultiTrialDataset(
        trials=ds.trials, target=TrialCellCounts(trial_id="0", counts=counts, is_target=True)
    )


def _collinear_table():
    # Every trial has the same control arm: the design has rank 1.
    treated = ([30, 70], [45, 55], [60, 40])
    trials = tuple(
        TrialCellCounts(trial_id=str(g + 1), counts=np.array([[50, 50], t]))
        for g, t in enumerate(treated)
    )
    return _with_target(MultiTrialDataset(trials=trials), [40, 60])


def _k3_table():
    rng = np.random.default_rng(3)
    transition = np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.1, 0.2, 0.7]])
    trials = []
    for g in range(5):
        control = rng.dirichlet(np.ones(3))
        counts = np.array([rng.multinomial(400, control), rng.multinomial(400, control @ transition)])
        trials.append(TrialCellCounts(trial_id=str(g + 1), counts=counts))
    return _with_target(MultiTrialDataset(trials=tuple(trials)), [100, 200, 100])


POINT_TABLES = {
    "c1": lambda: _with_target(simulate_dataset(DgpSpec(case="c1", n_g=500), seed=99), [300, 200]),
    "c4": lambda: _with_target(
        simulate_dataset(DgpSpec(case="c4", n_g=500), seed=31), [[100, 80], [60, 160]]
    ),
    "collinear": _collinear_table,
    "k3": _k3_table,
}

BOOTS = [["--boot", "0"], ["--boot", "40", "--seed", "3"]]


@pytest.mark.filterwarnings("ignore::jointpo.errors.JointpoWarning")
class TestReportPoints:
    """A report's ``parameters.point`` is member 0 of the command's batch
    statistic; it must equal the object-path reference on the same data."""

    def _point(self, capsys, tmp_path, table, *argv):
        p = tmp_path / f"{table}.csv"
        p.write_text(serialize_dataset(POINT_TABLES[table]()))
        report, _ = run_json(capsys, argv[0], "--input", str(p), *argv[1:])
        point = np.array(report["results"]["parameters"]["point"], dtype=float)
        return report, point, parse_dataset(p)

    @pytest.mark.parametrize("boot", BOOTS)
    @pytest.mark.parametrize(
        "table, flags, options",
        [
            ("c1", [], {"space": "outcome"}),
            ("c4", ["--space", "surrogate", "--project"], {"space": "surrogate", "project": True}),
            (
                "c4",
                ["--space", "composite", "--mono-s", "--mono-y"],
                {"space": "composite", "mono_s": True, "mono_y": True},
            ),
            ("collinear", ["--force"], {"space": "outcome"}),
            ("k3", [], {"space": "outcome"}),
        ],
    )
    def test_estimate(self, capsys, tmp_path, table, flags, options, boot):
        report, point, ds = self._point(capsys, tmp_path, table, "estimate", *flags, *boot)
        assert np.array_equal(point, reference_estimate(**options)(ds), equal_nan=True)
        per_trial = report["results"]["per_trial"]
        if len(report["results"]["transition"]["state_labels"]) == 2:
            thr = [entry["estimands"]["thr"] for entry in per_trial]
            assert np.array_equal(thr, point[-4 * len(per_trial) :: 4])
        else:
            assert all(entry["estimands"] is None for entry in per_trial)

    @pytest.mark.parametrize("boot", BOOTS)
    @pytest.mark.parametrize(
        "table, flags, options",
        [
            ("c1", [], {"space": "outcome"}),
            ("c4", ["--space", "surrogate", "--project"], {"space": "surrogate", "project": True}),
            ("collinear", ["--force"], {"space": "outcome"}),
            ("k3", [], {"space": "outcome"}),
        ],
    )
    def test_target(self, capsys, tmp_path, table, flags, options, boot):
        report, point, ds = self._point(capsys, tmp_path, table, "target", *flags, *boot)
        assert np.array_equal(point, reference_target(**options)(ds), equal_nan=True)
        estimands = report["results"]["estimands"]
        if estimands is None:
            assert len(report["results"]["transition"]["state_labels"]) == 3
        else:
            assert [estimands["thr"], estimands["tbr"]] == point[-4:-2].tolist()


#: The commands of the benchmark's cli-bootstrap workload, then psace methods
#: 2 and 3 and a three-state target, with the table each reads.
MEMBER0_COMMANDS = [
    ("c1", ["estimate"]),
    ("c1", ["estimate", "--workers", "2"]),
    ("c1", ["test"]),
    ("c1", ["target"]),
    ("c3", ["estimate", "--space", "composite", "--mono-s", "--mono-y"]),
    ("c3", ["psace", "--method", "4", "--plot-data", "{plots}"]),
    ("c4", ["psace", "--method", "1"]),
    ("c3", ["psace", "--method", "2"]),
    ("c3", ["psace", "--method", "3"]),
    ("k3", ["target"]),
]

#: The per-command object path: the commands build every report from the
#: observed frequencies and call none of these.
OBJECT_PATH = (
    "summarize", "build_system", "solve_transitions", "joint_from_transitions",
    "principal_scores", "method1_estimate", "method4_estimate", "monotone_variant_estimate",
)


class ObjectPathCalled(Exception):
    pass


class TestReportsFromObservedFrequencies:
    @staticmethod
    def _outputs(capsys, work, table, command):
        plots = work / "plots"
        argv = [arg.format(plots=plots) for arg in command]
        code, out, err = run_cli(
            capsys, argv[0], "--input", str(table), *argv[1:], "--boot", "20", "--seed", "1"
        )
        assert code == 0, err
        files = sorted(plots.iterdir()) if plots.exists() else []
        return out, {f.name: f.read_bytes() for f in files}

    @pytest.mark.parametrize("name, command", MEMBER0_COMMANDS)
    def test_commands_never_call_the_object_path(
        self, capsys, tmp_path, monkeypatch, name, command
    ):
        import jointpo.data
        import jointpo.principal
        import jointpo.transition

        if name in POINT_TABLES:
            ds = POINT_TABLES[name]()
        else:
            ds = simulate_dataset(DgpSpec(case=name, n_g=500), seed=4)
        table = tmp_path / f"{name}.csv"
        table.write_text(serialize_dataset(ds))
        plain = self._outputs(capsys, tmp_path / "plain", table, command)

        def refuse(*args, **kwargs):
            raise ObjectPathCalled

        modules = (jointpo.cli, jointpo.data, jointpo.transition, jointpo.principal)
        patched = 0
        for module in modules:
            for attr in OBJECT_PATH:
                if attr in vars(module):
                    monkeypatch.setattr(module, attr, refuse)
                    patched += 1
        assert patched == 18
        assert self._outputs(capsys, tmp_path / "patched", table, command) == plain


class TestPsaceFlagRules:
    """A psace flag that a method would ignore exits 2 instead."""

    @pytest.mark.parametrize(
        "method, flag",
        [("1", "--force"), ("1", "--project"), ("3", "--clip-scores"), ("4", "--clip-scores")],
    )
    def test_unused_flag_exits_2(self, capsys, c4_csv, method, flag):
        code, out, err = run_cli(
            capsys, "psace", "--input", str(c4_csv), "--method", method, flag, "--boot", "0"
        )
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ValidationError" and error["exit_code"] == 2
        assert error["message"].startswith(f"psace --method {method} does not use {flag};")

    @pytest.mark.parametrize(
        "method, flags",
        [("1", ["--clip-scores"]), ("2", ["--clip-scores", "--force", "--project"]),
         ("3", ["--force", "--project"]), ("4", ["--force", "--project"])],
    )
    def test_used_flags_run(self, capsys, c4_csv, method, flags):
        report, _ = run_json(
            capsys, "psace", "--input", str(c4_csv), "--method", method, *flags, "--boot", "0"
        )
        assert all(report["flags"][flag.strip("-").replace("-", "_")] for flag in flags)


class TestSchemaAndErrors:
    def test_every_command_report_validates(self, capsys, c1_csv, c4_csv, target_csv):
        run_json(capsys, "estimate", "--input", str(c1_csv), "--boot", "0")
        run_json(capsys, "test", "--input", str(c1_csv), "--boot", "30", "--seed", "1")
        run_json(capsys, "psace", "--input", str(c4_csv), "--method", "1", "--boot", "0")
        run_json(capsys, "target", "--input", str(target_csv), "--boot", "0")
        run_json(
            capsys, "simulate", "--case", "c1", "--ng", "60", "--reps", "4",
            "--boot", "6", "--seed", "3",
        )

    def test_error_json_is_machine_readable(self, capsys, toy_csv):
        code, _, err = run_cli(
            capsys, "estimate", "--input", str(toy_csv), "--space", "composite",
            "--boot", "0",
        )
        payload = json.loads(err)
        assert set(payload["error"]) == {"type", "message", "exit_code"}
        assert payload["error"]["exit_code"] == code == 2

    def test_parse_error_exit_code(self, capsys, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("trial,arm,s,y,count\n1,0,NA,zero,3\n")
        code, _, err = run_cli(capsys, "estimate", "--input", str(p), "--boot", "0")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "ParseError"

    @pytest.mark.parametrize(
        "rows, message",
        [
            # A count beyond int64, at its first line.
            (["2,0,NA,0,99999999999999999999"] * 2, "line 10: count 99999999999999999999"),
            # Counts that fit int64 but whose trial sum does not.
            ([f"2,0,NA,0,{2**62}", f"2,1,NA,1,{2**62}"], "trial '2': its counts sum to"),
        ],
    )
    def test_counts_beyond_int64_exit_2(self, capsys, tmp_path, rows, message):
        p = tmp_path / "huge.csv"
        p.write_text(TOY_TWO_TRIAL + "\n".join(rows) + "\n")
        code, out, err = run_cli(capsys, "estimate", "--input", str(p), "--boot", "0")
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ValidationError" and error["exit_code"] == 2
        assert error["message"].startswith(message)

    @pytest.mark.parametrize("columns", ["trial=x,trial=trial", "y=y, y =y"])
    def test_repeated_columns_key_exits_2(self, capsys, toy_csv, columns):
        code, out, err = run_cli(
            capsys, "estimate", "--input", str(toy_csv), "--columns", columns, "--boot", "0"
        )
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ValidationError"
        assert error["message"] == f"--columns names {columns.split('=')[0].strip()!r} twice"

    @pytest.mark.parametrize(
        "argv, error_type",
        [
            (["estimate", "--input", "{directory}", "--boot", "0"], "IsADirectoryError"),
            (["estimate", "--input", "{latin1}", "--boot", "0"], "UnicodeDecodeError"),
            (
                ["estimate", "--input", "{toy}", "--boot", "0", "--output", "{missing}/r.json"],
                "FileNotFoundError",
            ),
            (
                ["simulate", "--case", "c1", "--ng", "40", "--reps", "3", "--boot", "4",
                 "--seed", "1", "--replicates-csv", "{missing}/r.csv"],
                "FileNotFoundError",
            ),
            (
                ["test", "--input", "{registry}", "--boot", "20", "--seed", "1",
                 "--plot-data", "{toy}"],
                "FileExistsError",
            ),
            (["simulate", "--config", "{missing}/study.json"], "FileNotFoundError"),
        ],
    )
    def test_unusable_file_exits_2(self, capsys, tmp_path, argv, error_type):
        paths = {
            "directory": tmp_path,
            "latin1": tmp_path / "latin1.csv",
            "toy": tmp_path / "toy.csv",
            "registry": tmp_path / "registry.csv",
            "missing": tmp_path / "missing",
        }
        paths["latin1"].write_bytes(TOY_TWO_TRIAL.replace("NA", "N\xc0").encode("latin-1"))
        paths["toy"].write_text(TOY_TWO_TRIAL)
        paths["registry"].write_text(TEN_TRIAL_SURROGATE)
        code, out, err = run_cli(capsys, *(arg.format(**paths) for arg in argv))
        assert code == 2 and out == ""
        [line] = err.splitlines()
        error = json.loads(line)["error"]
        assert error["type"] == error_type and error["exit_code"] == 2

    @pytest.mark.parametrize(
        "field, message",
        [
            # A trailing comma.
            ('"n_g": 90,', "--config is not valid JSON"),
            ('"n_g": "abc"', 'config \'n_g\' must be an integer, got "abc"'),
            ('"n_g": 50.7', "config 'n_g' must be an integer, got 50.7"),
            ('"n_g": 90, "seed": true', "config 'seed' must be an integer, got true"),
        ],
    )
    def test_malformed_config_exits_2(self, capsys, tmp_path, field, message):
        cfg = tmp_path / "study.json"
        cfg.write_text(
            '{"case": "c1", "replicates": 5, "bootstrap_replicates": 8, "seed": 21, %s}' % field
        )
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ValidationError" and error["message"].startswith(message)

    def test_unknown_config_keys_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "study.json"
        cfg.write_text(json.dumps({
            "case": "c1", "n_g": 100, "replicates": 5, "seed": 1,
            "bootstrap": 50, "treatment_prob": 0.3,
        }))
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ValidationError" and error["exit_code"] == 2
        assert error["message"] == (
            "unknown --config keys: bootstrap, treatment_prob; "
            "accepted keys: case, n_g, m, replicates, bootstrap_replicates, seed"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            # Each first allocation exceeds the address space, so it fails
            # before any memory is touched.
            ["estimate", "--input", "{table}", "--boot", str(10**15), "--seed", "1"],
            ["simulate", "--case", "c1", "--ng", "50", "--reps", str(10**15), "--boot", "2",
             "--seed", "1"],
        ],
        ids=["estimate-boot", "simulate-reps"],
    )
    def test_size_too_large_to_allocate_exits_2(self, capsys, tmp_path, argv):
        table = tmp_path / "table.csv"
        table.write_text(TOY_TWO_TRIAL)
        code, out, err = run_cli(capsys, *(arg.format(table=table) for arg in argv))
        assert code == 2 and out == ""
        [line] = err.splitlines()
        error = json.loads(line)["error"]
        assert error["type"] == "MemoryError" and error["exit_code"] == 2

    @pytest.mark.parametrize("use_config", (False, True))
    def test_per_trial_size_beyond_int64_exits_2(self, capsys, tmp_path, use_config):
        n_g = "100000000000000000000000000000"
        if use_config:
            cfg = tmp_path / "study.json"
            cfg.write_text('{"case": "c1", "n_g": %s}' % n_g)
            argv = ("--config", str(cfg))
        else:
            argv = ("--case", "c1", "--ng", n_g)
        code, out, err = run_cli(
            capsys, "simulate", *argv, "--reps", "2", "--boot", "2", "--seed", "1"
        )
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ValidationError"
        assert error["message"] == f"per-trial size {n_g} exceeds 2**63 - 1"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["estimate", "--boot", "10", "--seed", "-1"], "seed must be a non-negative integer"),
            (["test", "--boot", "10", "--seed", "-1"], "seed must be a non-negative integer"),
            (
                ["psace", "--method", "1", "--boot", "10", "--seed", "-1"],
                "seed must be a non-negative integer",
            ),
            (["estimate", "--boot", "0", "--seed", "-1"], "seed must be a non-negative integer"),
            (["estimate", "--boot", "-5"], "--boot must be at least 0"),
            (["psace", "--method", "1", "--boot", "-5"], "--boot must be at least 0"),
            (["estimate", "--boot", "0", "--ci", "1.5"], "--ci must lie strictly between 0 and 1"),
            (["estimate", "--boot", "0", "--workers", "0"], "workers must be at least 1"),
            (["target", "--boot", "0", "--workers", "0"], "workers must be at least 1"),
            (
                ["simulate", "--case", "c1", "--ng", "50", "--reps", "2", "--boot", "2",
                 "--seed", "-1"],
                "seed must be a non-negative integer",
            ),
            (["simulate", "--config", "{config}"], "seed must be a non-negative integer"),
        ],
    )
    def test_shared_flag_values_exit_2(self, capsys, tmp_path, argv, message):
        table = tmp_path / "table.csv"
        table.write_text(TOY_TARGET if "target" in argv else TEN_TRIAL_SURROGATE)
        config = tmp_path / "study.json"
        config.write_text(
            '{"case": "c1", "n_g": 50, "replicates": 2, "bootstrap_replicates": 2, "seed": -2}'
        )
        argv = [arg.format(config=config) for arg in argv]
        if argv[0] != "simulate":
            argv += ["--input", str(table)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        [line] = err.splitlines()
        error = json.loads(line)["error"]
        assert error["type"] == "ValidationError" and error["exit_code"] == 2
        assert error["message"].startswith(message)

    def test_inference_failure_exit_code(self, capsys, tmp_path):
        # One treated unit total in trial 2 makes most resamples drop the
        # arm entirely; with a tiny redraw budget unavailable, failures
        # surface as exit 4 when the rate exceeds 10%.
        text = (
            "trial,arm,s,y,count\n"
            "1,0,NA,0,50\n1,0,NA,1,50\n1,1,NA,0,40\n1,1,NA,1,60\n"
            "2,0,NA,0,20\n2,0,NA,1,80\n2,1,NA,1,1\n"
        )
        p = tmp_path / "fragile.csv"
        p.write_text(text)
        code, out, err = run_cli(
            capsys, "estimate", "--input", str(p), "--boot", "50", "--seed", "2"
        )
        # The redraw loop usually rescues these; accept either a clean run
        # or an accounted inference failure, never a crash.
        assert code in (0, 4)


@st.composite
def cell_tables(draw):
    """A small cell-count CSV: 1-5 trials, 2-3 outcome states, a binary or
    absent surrogate, zero cells (at most one per arm), at most one empty
    arm and an optional target trial with or without control units.

    About one table in four is near-collinear instead: it has no zero cells,
    and each arm holds about 10**7 units, split evenly over its cells up to
    three units apart. The rank gate accepts most of these designs, whose
    fits miss row stochasticity by about 1e-9.

    Three tables in eight are then made malformed, in one of three ways
    that every command must reject with exit code 2: one row's surrogate
    column switches between ``NA`` and 0/1, trial 1 holds two counts near
    2**63 - 1 whose sum overflows int64, or the count column is dropped (a
    unit-row file). Returns the CSV text and whether it is malformed."""
    m = draw(st.integers(1, 5))
    near = draw(st.integers(0, 3)) == 0
    k = draw(st.integers(2, 3))
    surrogates = draw(st.sampled_from([("NA",), (0, 1)]))
    target = draw(st.sampled_from([None, "units", "empty"]))
    arms = [(str(g), a) for g in range(1, m + 1) for a in (0, 1)]
    # About one table in five has an empty arm.
    emptied = draw(st.sampled_from(arms)) if draw(st.integers(0, 4)) == 0 else None
    if target is not None:
        arms.append(("0", 0))
    states = [(s, y) for s in surrogates for y in range(k)]
    rows = ["trial,arm,s,y,count"]
    for trial, a in arms:
        empty = (trial, a) == emptied or (trial == "0" and target == "empty")
        zero = None if near else draw(st.sampled_from([None, *states]))
        for s, y in states:
            if empty or (s, y) == zero:
                count = 0
            elif near:
                count = 10**7 // len(states) + draw(st.integers(0, 3))
            else:
                count = draw(st.integers(1, 30))
            rows.append(f"{trial},{a},{s},{y},{count}")
    defect = draw(st.sampled_from([None] * 5 + ["mixed_na", "overflow", "unit_rows"]))
    if defect == "mixed_na":
        i = draw(st.integers(1, len(rows) - 1))
        fields = rows[i].split(",")
        fields[2] = "0" if fields[2] == "NA" else "NA"
        rows[i] = ",".join(fields)
    elif defect == "overflow":
        for i in (1, 2):
            fields = rows[i].split(",")
            fields[4] = str(2**63 - 1 - draw(st.integers(0, 3)))
            rows[i] = ",".join(fields)
    elif defect == "unit_rows":
        rows = [row.rsplit(",", 1)[0] for row in rows]
    return "\n".join(rows) + "\n", defect is not None


EXIT_CONTRACT_COMMANDS = [
    ["estimate"],
    ["estimate", "--space", "surrogate"],
    ["estimate", "--space", "composite"],
    ["estimate", "--space", "composite", "--mono-s", "--mono-y"],
    ["estimate", "--force"],
    ["estimate", "--project"],
    ["test"],
    ["test", "--space", "surrogate"],
    ["target"],
    ["target", "--space", "surrogate", "--force"],
    ["psace", "--method", "1", "--plot-data", "{plots}"],
    ["psace", "--method", "2", "--plot-data", "{plots}"],
    ["psace", "--method", "3", "--plot-data", "{plots}"],
    ["psace", "--method", "4", "--plot-data", "{plots}"],
]


class TestExitCodeContract:
    """Whatever the table, a command exits 0, 2, 3 or 4, and 2 on a malformed
    one; a nonzero exit writes one JSON error line to stderr and nothing to
    stdout."""

    @given(case=cell_tables())
    @settings(max_examples=64, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_exit_codes(self, case):
        table, malformed = case
        with tempfile.TemporaryDirectory() as work:
            path = f"{work}/table.csv"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(table)
            for command in EXIT_CONTRACT_COMMANDS:
                for boot in BOOTS:
                    argv = [arg.format(plots=f"{work}/plots") for arg in command]
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = main([*argv, "--input", path, *boot])
                    assert code in ((2,) if malformed else (0, 2, 3, 4)), argv
                    if code == 0:
                        assert err.getvalue() == ""
                        json.loads(out.getvalue())
                    else:
                        assert out.getvalue() == ""
                        [line] = err.getvalue().splitlines()
                        assert json.loads(line)["error"]["exit_code"] == code
