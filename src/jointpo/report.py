"""Report serialization: canonical JSON and content digests.

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

A study's JSON summary, replicate CSV and text table live in
:mod:`jointpo.simulate`, beside the study they write; this module forwards
their names there.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

import numpy as np

from . import _relocated

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


def _float_array(rows: list, ndim: int, indent: str) -> str:
    """The text of ``rows``, an array's ``tolist()`` of ``ndim`` levels of
    floats with no empty level."""
    inner = indent + "  "
    if ndim == 1:
        items = map(float.__repr__, rows)
    elif ndim == 2:
        # The rows are written inline: a call per row costs a third more.
        sep = ",\n" + inner + "  "
        items = [
            f"[\n{inner}  {sep.join(map(float.__repr__, row))}\n{inner}]" for row in rows
        ]
    else:
        items = [_float_array(row, ndim - 1, inner) for row in rows]
    return f"[\n{inner}" + (",\n" + inner).join(items) + f"\n{indent}]"


def _write(value, indent: str, out: list, orders: dict) -> None:
    # Appends the text of ``value`` to ``out``: each list of scalars is one
    # piece, and a dict entry with a scalar value is one piece with its key.
    # ``orders`` maps the key tuple of each dict of str keys met so far to
    # its keys in sorted order, each with its quoted text.
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        keys = tuple(value)
        order = orders.get(keys)
        if order is None:
            if all(type(k) is str for k in keys):
                order = orders[keys] = [(k, f"{_quote(k)}: ") for k in sorted(keys)]
            else:
                # Keys are compared after str(), so the last of colliding
                # keys wins; the values it replaces must still have a
                # plain-Python copy.
                items = {str(k): v for k, v in value.items()}
                collide = len(items) < len(value)
                if collide and any(map(_holds_scalar_array, value.values())):
                    raise TypeError("a zero-dimensional array is not a JSON array")
                value = items
                order = [(k, f"{_quote(k)}: ") for k in sorted(items)]
        sep = "{\n" + inner
        for k, label in order:
            v = value[k]
            if isinstance(v, _CONTAINERS):
                out.append(sep + label)
                _write(v, inner, out, orders)
            else:
                out.append(f"{sep}{label}{_scalar(v)}")
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
        return
    if isinstance(value, np.ndarray):
        if value.dtype.char == "d" and value.size and value.ndim:
            text = _float_array(value.tolist(), value.ndim, indent)
            # A finite float's repr holds no "n"; "nan" and "inf" do.
            if "n" not in text:
                out.append(text)
                return
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
                _write(v, inner, out, orders)
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
    _write(payload, "", out, {})
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


__getattr__ = _relocated(
    __name__,
    dict.fromkeys(
        ("study_to_dict", "replicates_to_csv", "read_replicates_csv", "format_study_table"),
        "simulate",
    ),
)
