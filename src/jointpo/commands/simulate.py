"""``simulate``: a Monte Carlo study of a built-in case."""

from __future__ import annotations

import json
import sys
from pathlib import Path

from .. import cli
from ..cli import _require_seed
from ..errors import ValidationError
from ..report import text_digest
from ..simulate import DgpSpec, format_study_table, study_to_dict

#: ``simulate --config`` keys whose values must be JSON integers.
_CONFIG_INTEGERS = ("n_g", "m", "replicates", "bootstrap_replicates", "seed")


def _read_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            values = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"--config is not valid JSON: {exc}") from None
    if not isinstance(values, dict):
        raise ValidationError("--config must contain a JSON object")
    accepted = ("case",) + _CONFIG_INTEGERS
    unknown = set(values) - set(accepted)
    if unknown:
        raise ValidationError(
            f"unknown --config keys: {', '.join(sorted(unknown))}; "
            f"accepted keys: {', '.join(accepted)}"
        )
    for key, value in values.items():
        if key in _CONFIG_INTEGERS and (isinstance(value, bool) or not isinstance(value, int)):
            raise ValidationError(
                f"config {key!r} must be an integer, got {json.dumps(value)}"
            )
    return values


def run(args) -> dict:
    config_values = _read_config(args.config) if args.config else {}

    def pick(flag, key, default=None):
        if flag is not None:
            return flag
        return config_values.get(key, default)

    case = pick(args.case, "case")
    if case is None:
        raise ValidationError("--case (or a config file with 'case') is required")
    n_g = pick(args.ng, "n_g")
    if n_g is None:
        raise ValidationError("--ng (or config 'n_g') is required")
    reps = pick(args.reps, "replicates")
    if reps is None:
        raise ValidationError("--reps (or config 'replicates') is required")
    boot = pick(args.boot, "bootstrap_replicates", 100)
    seed = pick(args.seed, "seed")
    _require_seed(seed)
    m = pick(args.m, "m", 10)
    spec = DgpSpec(case=str(case).lower(), n_g=n_g, m=m)
    # Looked up in ``cli`` at each call, where perfbench/tracing.py wraps them.
    result = cli.run_study(spec, reps, boot, seed, workers=args.workers)
    if args.table:
        sys.stderr.write(format_study_table(result))
    if args.replicates_csv:
        Path(args.replicates_csv).write_text(
            cli.replicates_to_csv(result), encoding="utf-8"
        )
    payload = study_to_dict(result)
    flags = {
        "case": spec.case,
        "n_g": spec.n_g,
        "m": spec.m,
        "replicates": reps,
        "bootstrap_replicates": boot,
    }
    digest_source = json.dumps(flags, sort_keys=True) + f"|seed={seed}"
    return {
        "command": "simulate",
        "input": {"path": None, "sha256": text_digest(digest_source)},
        "seed": seed,
        "flags": flags,
        "diagnostics": {"rank": None},
        "results": payload,
    }
