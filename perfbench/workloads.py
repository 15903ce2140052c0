"""The three workloads: their inputs, operations and per-operation checks.

Each operation is one CLI command run as ``python -m jointpo.cli <args>``,
or (``library=True``) one ``parse_unit_rows`` call. Every command of a
workload gets the same ``--seed``, derived from the workload seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import checks, inputs

#: Bootstrap replicates of every cli-bootstrap command.
BOOT = 100
#: Study replicates and bootstrap resamples per replicate of each simulate.
STUDY_REPS = 400
STUDY_BOOT = 100
#: Bootstrap replicates of the m=500 wide-ingest command.
WIDE_BOOT = 20

WORKLOADS = ("cli-bootstrap", "montecarlo", "wide-ingest")


@dataclass
class Op:
    """One timed operation.

    ``key`` names its per-layer time ``cli.<key>_s``; ``boot`` counts the
    bootstrap replicates it runs and ``resamples`` its study resamples;
    ``check`` turns its parsed report (or library result) into a list of
    problems, on top of the schema check every report gets; ``same_as``
    names an operation whose report must be byte-identical.
    """

    key: str
    args: list[str]
    check: Callable[[dict], list[str]]
    boot: int = 0
    resamples: int = 0
    library: bool = False
    same_as: str | None = None

    def report_name(self, tag: str) -> str:
        return f"{self.key}.{tag}.json"


def _cli_bootstrap(seed: int, workdir: Path) -> list[Op]:
    c1, c1_counts = inputs.case_table(
        "c1", inputs.derive_seed(seed, 1), workdir, with_target=True
    )
    c3, c3_counts = inputs.case_table("c3", inputs.derive_seed(seed, 3), workdir)
    c4, _ = inputs.case_table("c4", inputs.derive_seed(seed, 4), workdir)
    trials, target = c1_counts[:-1], c1_counts[-1]
    common = ["--boot", str(BOOT), "--seed", str(inputs.derive_seed(seed, 10))]
    m = inputs.CASE_M
    return [
        Op(
            "estimate",
            ["estimate", "--input", c1.name, *common],
            lambda r: checks.estimate_problems(r, trials),
            boot=BOOT,
        ),
        Op(
            "estimate_workers2",
            ["estimate", "--input", c1.name, *common, "--workers", "2"],
            lambda r: checks.estimate_problems(r, trials),
            boot=BOOT,
            same_as="estimate",
        ),
        Op(
            "test",
            ["test", "--input", c1.name, *common],
            lambda r: checks.overid_problems(r, trials),
            boot=BOOT,
        ),
        Op(
            "target",
            ["target", "--input", c1.name, *common],
            lambda r: checks.target_problems(r, trials, target),
            boot=BOOT,
        ),
        Op(
            "estimate_composite",
            ["estimate", "--input", c3.name, "--space", "composite",
             "--mono-s", "--mono-y", *common],
            lambda r: checks.estimate_problems(r, c3_counts, monotone=True),
            boot=BOOT,
        ),
        Op(
            "psace4_plot",
            ["psace", "--input", c3.name, "--method", "4", "--plot-data", "plot4", *common],
            lambda r: checks.psace_problems(r, m, workdir / "plot4"),
            boot=3 * BOOT,
        ),
        Op(
            "psace1",
            ["psace", "--input", c4.name, "--method", "1", *common],
            lambda r: checks.psace_problems(r, m, None),
            boot=BOOT,
        ),
    ]


def _montecarlo(seed: int, workdir: Path) -> list[Op]:
    ops = []
    for case in ("c1", "c3", "c4"):
        csv_path = workdir / f"replicates_{case}.csv"
        ops.append(
            Op(
                f"simulate_{case}",
                ["simulate", "--case", case, "--ng", str(inputs.CASE_NG),
                 "--m", str(inputs.CASE_M), "--reps", str(STUDY_REPS),
                 "--boot", str(STUDY_BOOT), "--seed", str(inputs.derive_seed(seed, 10)),
                 "--replicates-csv", csv_path.name, "--table"],
                lambda r, c=case, p=csv_path: checks.simulate_problems(r, c, p),
                boot=STUDY_REPS * STUDY_BOOT,
                resamples=STUDY_REPS * STUDY_BOOT,
            )
        )
    return ops


def _wide_ingest(seed: int, workdir: Path) -> list[Op]:
    units, expected = inputs.unit_rows(inputs.derive_seed(seed, 6), workdir)
    (big, big_counts), (small, small_counts) = inputs.wide_tables(
        inputs.derive_seed(seed, 5), workdir
    )
    return [
        Op(
            "parse_unit_rows",
            [units.name],
            lambda r: checks.unit_rows_problems(r, expected),
            library=True,
        ),
        Op(
            "estimate_wide",
            ["estimate", "--input", big.name, "--boot", "0"],
            lambda r: checks.estimate_problems(r, big_counts),
        ),
        Op(
            "estimate_wide_boot",
            ["estimate", "--input", small.name, "--boot", str(WIDE_BOOT),
             "--seed", str(inputs.derive_seed(seed, 10))],
            lambda r: checks.estimate_problems(r, small_counts),
            boot=WIDE_BOOT,
        ),
    ]


BUILDERS = {
    "cli-bootstrap": _cli_bootstrap,
    "montecarlo": _montecarlo,
    "wide-ingest": _wide_ingest,
}


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    """Generate the workload's inputs into ``workdir`` and list its operations."""
    return BUILDERS[workload](seed, workdir)


def read_report(op: Op, workdir: Path, tag: str) -> bytes:
    """The bytes of the report a CLI operation wrote."""
    return (workdir / op.report_name(tag)).read_bytes()


def library_report(result: dict) -> bytes:
    """The comparable bytes of a library result: everything but its timing."""
    return json.dumps({k: v for k, v in result.items() if k != "seconds"}).encode()
