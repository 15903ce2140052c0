"""Record a perf trajectory point: the benchmark on a parent commit and on
the working tree, in alternating pairs from one session.

Usage (from the repository root):

    python3 tools/bench_trajectory.py --parent HEAD --parent-label base \
        --label change --seeds 1 2026 --seconds 40 --pairs 10

For each workload and seed the script runs ``perfbench/run.py --trace 0``
``--pairs`` times on each tree, alternating which tree goes first. The
parent's committed files are exported with ``git archive`` into a temporary
directory, so uncommitted edits and build leftovers never reach the parent's
runs, and ``.git`` gains no worktree. Every run keeps its result line (the
last line of stdout), its ``host_loop_s`` (the host's speed during the run)
and its ``reports sha256``.

It writes ``BENCH_<parent-label>.json`` with the parent's runs and
``BENCH_<label>.json`` with the working tree's runs, the parent's runs of the
same session and a summary per workload, seed and end-to-end metric: each
tree's median, the parent's quartile spread and the pairs the working tree
won. Numbers from different sessions do not compare (the host's speed
drifts), which is why each file carries its parent's runs. The exit code is
1 if a run failed, read ``correct: false`` or gave another digest than its
pair, else 0.

It never overwrites a file: if the two labels are equal, or either file
already exists in ``--out-dir`` (a committed ``BENCH_*.json`` is evidence),
it exits 2 naming it before any run. Pick labels that are not yet taken.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cli-bootstrap", "montecarlo", "wide-ingest")


def _git(*args: str) -> str:
    out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def export_commit(rev: str, directory: Path) -> str:
    """Unpack the files of commit ``rev`` into ``directory``; its full hash."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}")
    archive = subprocess.run(
        ["git", "archive", "--format=tar", commit], cwd=ROOT, capture_output=True, check=True
    ).stdout
    directory.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(directory)], input=archive, check=True)
    return commit


def machine() -> dict:
    """What the runs ran on."""
    model = None
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text(encoding="utf-8", errors="replace").splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    numpy = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True,
        text=True,
    ).stdout.strip()
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_model": model,
        "cpus": os.cpu_count(),
        "usable_cpus": usable,
        "python": platform.python_version(),
        "numpy": numpy or None,
    }


def run_benchmark(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run on ``tree``: its result line
    (None if there is none), ``host_loop_s`` and reports digest."""
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    run = {"returncode": proc.returncode, "result": None, "host_loop_s": None, "digest": None}
    for line in lines:
        fields = line.split()
        if fields[:2] == ["reports", "sha256"] and len(fields) == 3:
            run["digest"] = fields[2]
        elif fields[:1] == ["host_loop_s"] and len(fields) == 3:
            run["host_loop_s"] = float(fields[1])
    try:
        run["result"] = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        run["stderr_tail"] = proc.stderr[-2000:]
    return run


def _ok(run: dict) -> bool:
    result = run["result"]
    return run["returncode"] == 0 and bool(result) and result["correct"] and not result["failed"]


def summarize(parent_runs: list[dict], runs: list[dict]) -> list[dict]:
    """Per workload, seed and end-to-end metric of ``BENCHMARK.json``: both
    trees' medians, the parent's quartile spread, the pairs the working tree
    won, and whether that clears the claim rule (at least 9 in 10 pairs won,
    and a median gap in the better direction beyond the parent's spread)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    rows = []
    for workload, seed in sorted({(r["workload"], r["seed"]) for r in runs}):
        pairs = [
            (p, c)
            for p, c in zip(parent_runs, runs)
            if (c["workload"], c["seed"]) == (workload, seed) and _ok(p) and _ok(c)
        ]
        for name, direction in better.items():
            if not pairs:
                break
            before = [p["result"]["metrics"][name]["value"] for p, _ in pairs]
            after = [c["result"]["metrics"][name]["value"] for _, c in pairs]
            sign = 1 if direction == "lower" else -1
            won = sum(sign * (b - a) > 0 for b, a in zip(before, after))
            quartiles = statistics.quantiles(before, n=4) if len(before) > 1 else [before[0]] * 3
            gap = statistics.median(after) - statistics.median(before)
            spread = quartiles[2] - quartiles[0]
            rows.append(
                {
                    "workload": workload,
                    "seed": seed,
                    "metric": name,
                    "better": direction,
                    "parent_median": statistics.median(before),
                    "median": statistics.median(after),
                    "parent_iqr": spread,
                    "pairs": len(pairs),
                    "won": won,
                    "claim_rule_met": won >= 0.9 * len(pairs) and -sign * gap > spread,
                }
            )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD", help="commit to compare against")
    parser.add_argument("--parent-label", required=True, help="label of the parent's file")
    parser.add_argument("--label", required=True, help="label of the working tree's file")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--seconds", type=float, default=40.0, help="per benchmark run")
    parser.add_argument("--pairs", type=int, default=10, help="parent/tree pairs per seed")
    parser.add_argument("--out-dir", type=Path, default=ROOT, help="where the files go")
    args = parser.parse_args(argv)
    if args.parent_label == args.label:
        print(f"--parent-label and --label are both {args.label!r}", file=sys.stderr)
        return 2
    for label in (args.parent_label, args.label):
        path = args.out_dir / f"BENCH_{label}.json"
        if path.exists():
            print(f"{path} exists; choose another label", file=sys.stderr)
            return 2

    started = datetime.now(timezone.utc).isoformat(timespec="seconds")
    parent_runs, runs = [], []
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as scratch:
        commit = export_commit(args.parent, Path(scratch) / "tree")
        trees = {"parent": Path(scratch) / "tree", "tree": ROOT}
        for workload in args.workloads:
            for seed in args.seeds:
                for pair in range(args.pairs):
                    # Alternate the order so that drift favours neither tree.
                    order = ("parent", "tree") if pair % 2 == 0 else ("tree", "parent")
                    done = {}
                    for side in order:
                        run = run_benchmark(trees[side], workload, seed, args.seconds)
                        run.update(workload=workload, seed=seed, pair=pair, first=order[0])
                        done[side] = run
                        sys.stderr.write(
                            f"{workload} seed {seed} pair {pair} {side}: "
                            f"{json.dumps(run['result'] and run['result']['metrics'])}\n"
                        )
                    parent_runs.append(done["parent"])
                    runs.append(done["tree"])

    session = {
        "started": started,
        "machine": machine(),
        "seconds": args.seconds,
        "pairs": args.pairs,
        "seeds": args.seeds,
        "workloads": args.workloads,
        "command": "python3 perfbench/run.py --workload W --seed S --seconds N --trace 0",
    }
    parent_doc = {"label": args.parent_label, "commit": commit, **session, "runs": parent_runs}
    doc = {
        "label": args.label,
        "tree_head": _git("rev-parse", "HEAD"),
        "tree_dirty": bool(_git("status", "--porcelain")),
        **session,
        "runs": runs,
        "parent": {"label": args.parent_label, "runs": parent_runs},
        "summary": summarize(parent_runs, runs),
    }
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for label, content in ((args.parent_label, parent_doc), (args.label, doc)):
        path = args.out_dir / f"BENCH_{label}.json"
        path.write_text(json.dumps(content, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(path)

    ok = all(_ok(r) for r in parent_runs + runs) and all(
        p["digest"] is not None and p["digest"] == c["digest"] for p, c in zip(parent_runs, runs)
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
