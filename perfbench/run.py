"""Benchmark of the jointpo package, run against the source tree beside it.

Usage (from the repository root):

    python3 perfbench/run.py --workload cli-bootstrap --seed 1 --seconds 40 --trace 0

``--trace 0`` times passes over the workload's commands, each command a
fresh ``python -m jointpo.cli`` process run one after another (a closed loop
with one client), and prints the end-to-end metrics. Each command's time is
its shortest over the passes, which host interference can only lengthen.
``--trace 1`` times one or more such passes for the per-command times, then
runs the commands in this process, untraced and then with timing wrappers on
the package's public functions, and prints the per-layer metrics. Every output is checked;
the last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Inputs are generated from
``--seed`` into ``.perfbench_work/`` and removed afterwards; the traced
run writes its spans to ``.perfbench_trace/<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from perfbench import checks, workloads  # noqa: E402

CHILD_TIMEOUT_S = 150.0
#: ``--version`` runs timed before each pass; ``setup_s`` is the median of all.
SETUP_RUNS_PER_PASS = 1
IMPORT_RUNS = 5
#: Iterations of the fixed loop that shows how fast the host runs.
HOST_LOOP_N = 1_000_000
#: Share of ``--seconds`` the traced run spends on fresh-process passes.
TRACE_PASS_SHARE = 0.4

#: Every CLI operation key of every workload; each gets a ``cli.<key>_s`` time.
CLI_KEYS = (
    "estimate",
    "estimate_workers2",
    "test",
    "target",
    "estimate_composite",
    "psace4_plot",
    "psace1",
    "simulate_c1",
    "simulate_c3",
    "simulate_c4",
    "estimate_wide",
    "estimate_wide_boot",
)


class Failures:
    """Counts attempted and failed operations and keeps the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.reasons.extend(f"{what}: {p}" for p in problems)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Spawner:
    """The helper process that starts every timed child (see ``spawner.py``)."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "spawner.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )

    def run(self, argv: list[str], cwd: Path) -> dict:
        """Run one process to completion: its wall time, own max RSS, exit
        code and output. A process still running after the timeout is killed."""
        out, err = cwd / "_child.out", cwd / "_child.err"
        request = {
            "argv": argv,
            "cwd": str(cwd),
            "stdout": str(out),
            "stderr": str(err),
            "timeout": CHILD_TIMEOUT_S,
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process exited")
        result = json.loads(line)
        result["stdout"] = out.read_text(encoding="utf-8", errors="replace")
        result["stderr"] = err.read_text(encoding="utf-8", errors="replace")
        return result

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def cli_argv(op, tag: str) -> list[str]:
    return [*op.args, "--output", op.report_name(tag)]


def run_pass(ops, workdir: Path, spawner: Spawner) -> list[dict]:
    """One closed-loop pass: each operation as a fresh process, in order.
    An operation's ``report`` is None when it produced no readable output."""
    results = []
    for op in ops:
        if op.library:
            argv = [sys.executable, str(ROOT / "perfbench" / "unit_rows_child.py"), *op.args]
        else:
            argv = [sys.executable, "-m", "jointpo.cli", *cli_argv(op, "sub")]
        res = spawner.run(argv, workdir)
        res.update(op=op, report=None, parsed=None)
        if res["rc"] == 0:
            try:
                if op.library:
                    res["parsed"] = json.loads(res["stdout"].strip().splitlines()[-1])
                    res["report"] = workloads.library_report(res["parsed"])
                else:
                    res["report"] = workloads.read_report(op, workdir, "sub")
                    res["parsed"] = json.loads(res["report"])
            except (OSError, ValueError, IndexError) as exc:
                res["report"] = None
                res["stderr"] += f"\nunreadable output: {exc}"
        results.append(res)
    return results


def check_passes(passes: list[list[dict]], validator, failures: Failures) -> dict[str, bytes]:
    """Record every operation of every pass. The first pass's outputs get the
    full checks (reports also against the schema); later passes must
    reproduce its report bytes exactly. Returns the first pass's report
    bytes by operation."""
    first: dict[str, bytes] = {}
    for index, results in enumerate(passes):
        for res in results:
            op = res["op"]
            problems = []
            if res["report"] is None:
                tail = res["stderr"].strip().splitlines()[-1:] or [""]
                problems.append(f"exit code {res['rc']}: {tail[0][:200]}")
            elif index == 0:
                first[op.key] = res["report"]
                if not op.library:
                    problems += checks.schema_problems(validator, res["parsed"])
                problems += op.check(res["parsed"])
                if op.same_as and res["report"] != first.get(op.same_as):
                    problems.append(f"report differs from {op.same_as}'s")
            elif res["report"] != first.get(op.key):
                problems.append("report differs from the first pass's")
            failures.record(f"pass {index} {op.key}", problems)
    return first


def timed_passes(ops, workdir, spawner, seconds: float, before_pass=None) -> list[list[dict]]:
    """Passes until the next one would end after ``seconds`` (at least one),
    each preceded by a call of ``before_pass``, if given."""
    passes = []
    start = perf_counter()
    while True:
        if before_pass:
            before_pass()
        passes.append(run_pass(ops, workdir, spawner))
        elapsed = perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def setup_seconds(workdir, spawner, failures: Failures) -> list[float]:
    """Times of fresh interpreters reaching a ready CLI."""
    times = []
    for _ in range(SETUP_RUNS_PER_PASS):
        res = spawner.run([sys.executable, "-m", "jointpo.cli", "--version"], workdir)
        ok = res["rc"] == 0 and res["stdout"].strip()
        failures.record("setup --version", [] if ok else [f"exit code {res['rc']}"])
        times.append(res["wall"])
    return times


def host_loop_seconds() -> float:
    """Time of a fixed pure-Python loop. Printed beside the metrics, its
    median tells a run on a busy shared host from a slower program: the loop
    does the same work on every commit."""
    start = perf_counter()
    total = 0
    for i in range(HOST_LOOP_N):
        total += i
    return perf_counter() - start


def import_seconds(workdir, spawner, failures: Failures) -> float:
    """Median in-interpreter time of ``import jointpo.cli`` in fresh processes."""
    code = (
        "from time import perf_counter as c; s = c(); import jointpo.cli; "
        "print(c() - s)"
    )
    times = []
    for _ in range(IMPORT_RUNS):
        res = spawner.run([sys.executable, "-c", code], workdir)
        failures.record("import jointpo.cli", [] if res["rc"] == 0 else ["import failed"])
        if res["rc"] == 0:
            times.append(float(res["stdout"].strip()))
    return statistics.median(times) if times else float("nan")


def op_best(passes, key: str, field=lambda r: r["wall"], best=min) -> float:
    """The best over passes of one operation's value (by default its
    shortest wall time)."""
    return best(field(r) for p in passes for r in p if r["op"].key == key)


def rows_per_second(res: dict) -> float:
    if res["parsed"] is None:
        return 0.0
    return res["parsed"]["rows"] / res["parsed"]["seconds"]


def pass_metrics(passes) -> dict:
    """Whole-pass figures, summed from each operation's shortest time over
    the passes (robust to slow spells of the host)."""
    ops = [r["op"] for r in passes[0]]
    wall = {op.key: op_best(passes, op.key) for op in ops}
    boot_wall = sum(wall[op.key] for op in ops if op.boot)
    study_wall = sum(wall[op.key] for op in ops if op.resamples)
    library = [op.key for op in ops if op.library]
    return {
        "wall_s": sum(wall.values()),
        "boot_reps_per_s": sum(op.boot for op in ops) / boot_wall if boot_wall else 0.0,
        "study_resamples_per_s": sum(op.resamples for op in ops) / study_wall
        if study_wall
        else 0.0,
        "rows_per_s": op_best(passes, library[0], rows_per_second, max) if library else 0.0,
        "per_op": wall,
    }


def end_to_end(ops, workdir, spawner, seconds, validator, failures):
    """The untraced run: timed passes, each after a few set-up timings.
    Returns the contract's metrics, further figures to print, and the
    reports."""
    setup, host = [], []

    def before_pass():
        host.append(host_loop_seconds())
        setup.extend(setup_seconds(workdir, spawner, failures))

    passes = timed_passes(ops, workdir, spawner, seconds, before_pass)
    reports = check_passes(passes, validator, failures)
    stats = pass_metrics(passes)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (stats["wall_s"], "s"),
        "boot_reps_per_s": (stats["boot_reps_per_s"], "1/s"),
        "peak_rss_mb": (max(r["rss_mb"] for p in passes for r in p), "MB"),
    }
    extra = {
        "passes": (len(passes), "count"),
        "host_loop_s": (statistics.median(host), "s"),
        "study_resamples_per_s": (stats["study_resamples_per_s"], "1/s"),
        "rows_per_s": (stats["rows_per_s"], "1/s"),
        **{f"cli.{key}_s": (wall, "s") for key, wall in stats["per_op"].items()},
    }
    return metrics, extra, reports


@contextmanager
def working_directory(path: Path):
    previous = Path.cwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


def run_inprocess(ops, workdir: Path, tag: str, tracer=None) -> tuple[dict, dict]:
    """One pass in this process: each operation's wall time and report bytes
    (None where the command failed)."""
    import jointpo
    import jointpo.cli
    from perfbench.unit_rows_child import describe

    walls, reports = {}, {}
    with working_directory(workdir), redirect_stdout(io.StringIO()), redirect_stderr(
        io.StringIO()
    ):
        for op in ops:
            reports[op.key] = None
            start = perf_counter()
            with tracer.span("command", op.key) if tracer else nullcontext():
                try:
                    if op.library:
                        parse = jointpo.parse_unit_rows
                        if tracer:
                            parse = tracer.wrap("parse_unit_rows", parse)
                        dataset = parse(op.args[0])
                        reports[op.key] = workloads.library_report(describe(dataset))
                    elif jointpo.cli.main(cli_argv(op, tag)) == 0:
                        reports[op.key] = workloads.read_report(op, workdir, tag)
                except (Exception, SystemExit):
                    # A crash is a failed operation, as a non-zero exit is.
                    pass
            walls[op.key] = perf_counter() - start
    return walls, reports


def check_faithful(reports: dict, reference: dict, what: str, failures: Failures):
    """In-process reports must equal the fresh-process reports byte for byte."""
    for key, raw in reports.items():
        same = raw is not None and raw == reference.get(key)
        failures.record(f"{what} {key}", [] if same else ["report differs from subprocess run"])


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced pass (0 where a layer is not called)."""
    from perfbench.tracing import has_ancestor, self_times

    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)
    selfs = self_times(spans)

    def total(name):
        return sum((s.duration for s in by[name]), 0.0)

    def mean(name, scale):
        return scale * total(name) / len(by[name]) if by[name] else 0.0

    def self_total(name):
        return sum((selfs[id(s)] for s in by[name]), 0.0)

    def info_sum(name, field):
        return sum(s.info[field] for s in by[name])

    replicates = info_sum("bootstrap", "replicates")
    draws = len(by["resample_dataset"])
    boot_solves = [s for s in by["solve_transitions"] if has_ancestor(s, "bootstrap")]
    commands = [s for s in by["command"] if s.info in CLI_KEYS]
    us, ms = 1e6, 1e3
    return {
        "data.parse_dataset_us": (mean("parse_dataset", us), "us"),
        "data.parse_unit_rows_s": (total("parse_unit_rows"), "s"),
        "data.summarize_us": (mean("summarize", us), "us"),
        "data.summarize_calls": (len(by["summarize"]), "count"),
        "data.with_counts_us": (mean("with_counts", us), "us"),
        "data.with_counts_calls": (len(by["with_counts"]), "count"),
        "transition.build_system_us": (mean("build_system", us), "us"),
        "transition.check_rank_us": (mean("check_rank", us), "us"),
        "transition.solve_transitions_us": (mean("solve_transitions", us), "us"),
        "transition.solve_transitions_calls": (len(by["solve_transitions"]), "count"),
        "transition.bootstrap_solves": (len(boot_solves), "count"),
        "transition.forced_solves": (sum(s.info["forced"] for s in boot_solves), "count"),
        "transition.out_of_range_solves": (
            sum(s.info["out_of_range"] for s in boot_solves),
            "count",
        ),
        "transition.joint_from_transitions_us": (mean("joint_from_transitions", us), "us"),
        "transition.derived_estimands_us": (mean("derived_estimands", us), "us"),
        "inference.bootstrap_s": (total("bootstrap"), "s"),
        "inference.bootstrap_self_s": (self_total("bootstrap"), "s"),
        "inference.bootstrap_calls": (len(by["bootstrap"]), "count"),
        "inference.replicates": (replicates, "count"),
        "inference.replicate_us": (
            us * total("bootstrap") / replicates if replicates else 0.0,
            "us",
        ),
        "inference.resample_dataset_us": (mean("resample_dataset", us), "us"),
        "inference.resample_dataset_calls": (draws, "count"),
        "inference.draw_yield": (replicates / draws if draws else 0.0, "ratio"),
        "inference.replicate_rng_us": (mean("replicate_rng", us), "us"),
        "inference.n_failed": (info_sum("bootstrap", "n_failed"), "count"),
        "inference.overid_test_us": (mean("overid_test", us), "us"),
        "principal.method1_estimate_us": (mean("method1_estimate", us), "us"),
        "principal.method4_estimate_us": (mean("method4_estimate", us), "us"),
        "principal.monotone_variant_estimate_us": (
            mean("monotone_variant_estimate", us),
            "us",
        ),
        "principal.principal_scores_us": (mean("principal_scores", us), "us"),
        "simulate.run_study_s": (total("run_study"), "s"),
        "simulate.run_study_self_s": (self_total("run_study"), "s"),
        "simulate.pipeline_point_us": (mean("pipeline_point", us), "us"),
        "simulate.pipeline_bootstrap_ms": (mean("pipeline_bootstrap", ms), "ms"),
        "simulate.resamples": (info_sum("run_study", "resamples"), "count"),
        "simulate.n_failed": (info_sum("run_study", "n_failed"), "count"),
        "report.canonical_json_ms": (mean("canonical_json", ms), "ms"),
        "report.bytes": (info_sum("canonical_json", "bytes"), "bytes"),
        "report.replicates_to_csv_ms": (mean("replicates_to_csv", ms), "ms"),
        "cli.commands": (len(commands), "count"),
        "cli.self_s": (sum((selfs[id(s)] for s in commands), 0.0), "s"),
    }


def per_layer(ops, workdir, spawner, seconds, validator, failures, span_file: Path):
    """The traced run: fresh-process passes for the per-command times, then
    in-process passes, untraced and traced in turn, while time remains (at
    least one pair). Writes the first traced pass's spans to ``span_file``.
    Returns the per-layer metrics, notes and the reports."""
    from perfbench.tracing import Tracer, dump

    start = perf_counter()
    import_s = import_seconds(workdir, spawner, failures)
    passes = timed_passes(ops, workdir, spawner, TRACE_PASS_SHARE * seconds)
    reports = check_passes(passes, validator, failures)
    plain, traced, spans = [], [], None
    while True:
        walls, inproc = run_inprocess(ops, workdir, "inproc")
        check_faithful(inproc, reports, "in-process", failures)
        plain.append(walls)
        tracer = Tracer()
        with tracer.installed():
            walls, inproc = run_inprocess(ops, workdir, "traced", tracer)
        check_faithful(inproc, reports, "traced", failures)
        traced.append(walls)
        spans = spans or tracer.spans
        pair = sum(plain[-1].values()) + sum(traced[-1].values())
        if perf_counter() - start + pair > seconds:
            break
    dump(spans, span_file)

    stats = pass_metrics(passes)
    metrics = {"cli.import_s": (import_s, "s")}
    for key in CLI_KEYS:
        metrics[f"cli.{key}_s"] = (stats["per_op"].get(key, 0.0), "s")
    metrics.update(layer_metrics(spans))
    metrics["rows_per_s"] = (stats["rows_per_s"], "1/s")
    metrics["study_resamples_per_s"] = (stats["study_resamples_per_s"], "1/s")
    metrics["trace.overhead_frac"] = (
        statistics.median(sum(w.values()) for w in traced)
        / statistics.median(sum(w.values()) for w in plain),
        "ratio",
    )
    return metrics, notes_from_trace(spans), reports


def notes_from_trace(spans) -> list[str]:
    """Bootstrap calls per command."""
    calls = defaultdict(int)
    for s in spans:
        if s.name == "bootstrap" and s.parent is not None:
            calls[s.parent.info] += 1
    notes = []
    if calls:
        notes.append(
            "bootstrap calls per command: "
            + ", ".join(f"{key}={n}" for key, n in calls.items())
        )
    return notes


def digest(reports: dict[str, bytes]) -> str:
    """One SHA-256 over every operation's report, to compare runs of a seed."""
    h = hashlib.sha256()
    for key in sorted(reports):
        h.update(key.encode() + b"\0" + reports[key] + b"\0")
    return h.hexdigest()


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "jointpo" / "cli.py").is_file():
        sys.stderr.write(f"no jointpo source tree at {SRC}; nothing to benchmark\n")
        return 2
    sys.path.insert(0, str(SRC))
    import jointpo

    if Path(jointpo.__file__).resolve().parent != SRC / "jointpo":
        sys.stderr.write(f"imported jointpo from {jointpo.__file__}, not {SRC}\n")
        return 2

    validator = checks.load_validator(ROOT)
    span_file = ROOT / ".perfbench_trace" / f"{args.workload}-{args.seed}.json"
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    failures = Failures()
    spawner = Spawner(child_env())
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        if args.trace:
            metrics, notes, reports = per_layer(
                ops, workdir, spawner, args.seconds, validator, failures, span_file
            )
            notes.append(f"spans written to {span_file.relative_to(ROOT)}")
            shown = metrics
        else:
            metrics, extra, reports = end_to_end(
                ops, workdir, spawner, args.seconds, validator, failures
            )
            notes, shown = [], {**metrics, **extra}
    finally:
        spawner.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in shown.items():
        print(f"  {name:<42} {value:>16.6g} {unit}")
    print(f"  {'error_rate':<42} {failures.failed / failures.attempted:>16.6g} ratio")
    print(f"  reports sha256 {digest(reports)}")
    for note in notes:
        print(f"  {note}")
    for reason in failures.reasons:
        print(f"  FAILED {reason}")
    result = {
        "correct": failures.failed == 0,
        "attempted": failures.attempted,
        "failed": failures.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
