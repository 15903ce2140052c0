"""Report serialization: canonical JSON, content digests and study
persistence.

Reports serialize with sorted keys, two-space indentation and ASCII
escapes, so identical analyses produce byte-identical documents.
Non-finite floats are mapped to null. :func:`canonical_json` writes a
payload of dicts, lists, tuples, NumPy arrays and scalars in one pass,
converting NumPy values where it meets them; its text is what
``json.dumps(..., sort_keys=True, indent=2, ensure_ascii=True)`` gives
for the payload's plain-Python copy.

Digests are SHA-256 from the interpreter's built-in module
(``_sha2``, or ``_sha256`` before Python 3.12), as ``random`` takes its
SHA-512, so writing a report loads no OpenSSL; ``hashlib`` is the
fallback.
"""

from __future__ import annotations

import csv
import io
import json
import math
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .simulate import StudyResult

try:
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

_CONTAINERS = (dict, list, tuple, np.ndarray)


def _scalar(value) -> str:
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return float.__repr__(value) if math.isfinite(value) else "null"
    if value is None:
        return "null"
    if value is True or value is False or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return int.__repr__(int(value))
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _holds_scalar_array(value) -> bool:
    """Whether a zero-dimensional array, which has no JSON form, sits
    anywhere in ``value``."""
    if isinstance(value, np.ndarray):
        return value.ndim == 0
    if isinstance(value, dict):
        value = value.values()
    elif not isinstance(value, (list, tuple)):
        return False
    return any(map(_holds_scalar_array, value))


def _write(value, indent: str, out: list) -> None:
    # Appends the text of ``value`` to ``out``: each list of scalars is one
    # piece, and a dict entry with a scalar value is one piece with its key.
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        # Keys are compared after str(), so the last of colliding keys wins;
        # the values it replaces must still have a plain-Python copy.
        items = {str(k): v for k, v in value.items()}
        if len(items) < len(value) and any(map(_holds_scalar_array, value.values())):
            raise TypeError("a zero-dimensional array is not a JSON array")
        sep = "{\n" + inner
        for k in sorted(items):
            v = items[k]
            if isinstance(v, _CONTAINERS):
                out.append(f"{sep}{_quote(k)}: ")
                _write(v, inner, out)
            else:
                out.append(f"{sep}{_quote(k)}: {_scalar(v)}")
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
        return
    if isinstance(value, np.ndarray):
        value = value.tolist()
        if not isinstance(value, list):
            raise TypeError("a zero-dimensional array is not a JSON array")
    if isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        sep = ",\n" + inner
        # Finite floats, the bulk of a report, map straight to their repr.
        if set(map(type, value)) == {float} and all(map(math.isfinite, value)):
            tokens = map(float.__repr__, value)
        elif any(isinstance(v, _CONTAINERS) for v in value):
            out.append("[\n" + inner)
            for i, v in enumerate(value):
                if i:
                    out.append(sep)
                _write(v, inner, out)
            out.append("\n" + indent + "]")
            return
        else:
            tokens = map(_scalar, value)
        out.append(f"[\n{inner}{sep.join(tokens)}\n{indent}]")
        return
    out.append(_scalar(value))


def canonical_json(payload: dict) -> str:
    """Key-sorted, indentation-stable JSON document with trailing newline.

    Raises ``TypeError`` on a value JSON has no form for, as ``json.dumps``
    does.
    """
    out: list[str] = []
    _write(payload, "", out)
    out.append("\n")
    return "".join(out)


def file_digest(path: str | Path) -> str:
    """SHA-256 hex digest of a file's raw bytes."""
    h = _sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def text_digest(text: str) -> str:
    return _sha256(text.encode("utf-8")).hexdigest()


def load_report_schema() -> dict:
    """The published JSON schema every run report validates against."""
    from importlib import resources

    with resources.files("jointpo.schemas").joinpath("report.schema.json").open(
        "r", encoding="utf-8"
    ) as fh:
        return json.load(fh)


def study_to_dict(result: StudyResult) -> dict:
    """JSON-ready summary of a study (metrics and configuration echo)."""
    metrics = result.metrics
    return {
        "config": {
            "case": result.spec.case,
            "m": result.spec.m,
            "n_g": result.spec.n_g,
            "treatment_prob": result.spec.treatment_prob,
            "replicates": result.replicates,
            "bootstrap_replicates": result.bootstrap_replicates,
            "seed": result.seed,
            "pipeline": result.pipeline,
        },
        "n_failed": result.n_failed,
        "parameters": [
            {
                "name": name,
                "truth": float(result.truth[j]),
                "bias": float(metrics["bias"][j]),
                "sd": float(metrics["sd"][j]),
                "ese": float(metrics["ese"][j]),
                "cp95": float(metrics["cp95"][j]),
            }
            for j, name in enumerate(result.param_names)
        ],
    }


def replicates_to_csv(result: StudyResult) -> str:
    """Long-format replicate matrix (estimate and bootstrap se per cell).

    Floats are written with ``repr`` so a read-back reproduces them
    bit-for-bit.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["replicate", "parameter", "estimate", "se"])
    for i in range(result.estimates.shape[0]):
        for j, name in enumerate(result.param_names):
            writer.writerow(
                [i, name, repr(float(result.estimates[i, j])), repr(float(result.ses[i, j]))]
            )
    return out.getvalue()


def read_replicates_csv(text: str) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Parse :func:`replicates_to_csv` output back into matrices."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if header != ["replicate", "parameter", "estimate", "se"]:
        raise ValueError("unexpected replicate CSV header")
    cells: dict[tuple[int, str], tuple[float, float]] = {}
    names: list[str] = []
    max_rep = -1
    for rep, name, est, se in reader:
        i = int(rep)
        max_rep = max(max_rep, i)
        if name not in names:
            names.append(name)
        cells[(i, name)] = (float(est), float(se))
    estimates = np.empty((max_rep + 1, len(names)))
    ses = np.empty_like(estimates)
    for (i, name), (est, se) in cells.items():
        j = names.index(name)
        estimates[i, j] = est
        ses[i, j] = se
    return tuple(names), estimates, ses


def format_study_table(result: StudyResult) -> str:
    """Fixed-width text table of a study's Bias/SD/ESE/CP95 metrics."""
    lines = [
        f"case {result.spec.case}  n_g={result.spec.n_g}  "
        f"R={result.replicates}  B={result.bootstrap_replicates}",
        f"{'parameter':<22} {'truth':>8} {'Bias':>8} {'SD':>8} {'ESE':>8} {'CP95':>6}",
    ]
    met = result.metrics
    for j, name in enumerate(result.param_names):
        lines.append(
            f"{name:<22} {result.truth[j]:>8.3f} {met['bias'][j]:>8.3f} "
            f"{met['sd'][j]:>8.3f} {met['ese'][j]:>8.3f} {met['cp95'][j]:>6.3f}"
        )
    return "\n".join(lines) + "\n"
