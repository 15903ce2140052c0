import hashlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import reference_canonical_json
from jointpo.report import canonical_json, file_digest, text_digest

# Keys equal after str(): the payload keeps each, the report only one.
COLLIDING_KEYS = st.sampled_from([1, "1", 1.5, "1.5", None, "None", (1, 2), "(1, 2)"])

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.booleans().map(np.bool_),
)

ARRAYS = hnp.arrays(
    st.sampled_from([np.float64, np.float32, np.int64, np.bool_]),
    hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4),
)

PAYLOADS = st.recursive(
    SCALARS | ARRAYS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text() | st.integers() | COLLIDING_KEYS, children, max_size=5),
    ),
    max_leaves=25,
)


def _outcome(write, payload):
    try:
        return write(payload)
    except TypeError:
        return TypeError


class TestCanonicalJson:
    @given(payload=PAYLOADS)
    @example(payload={1: [np.array(0.0)], "1": None})
    @settings(max_examples=300, deadline=None)
    def test_matches_the_standard_library_encoder(self, payload):
        # A zero-dimensional array is not a JSON array: both writers raise.
        assert _outcome(canonical_json, payload) == _outcome(reference_canonical_json, payload)

    def test_non_finite_floats_and_escapes(self):
        payload = {
            "b": [float("nan"), np.float32("inf"), -np.inf, np.array([1.0, np.nan])],
            2: "café ☃ \U0001f600 \x00\x1f\"\\",
            "a": {"": [], "t": (), "d": {}},
        }
        assert canonical_json(payload) == reference_canonical_json(payload)
        assert "null" in canonical_json(payload) and canonical_json(payload).isascii()

    def test_same_keyed_dicts_of_float_arrays(self):
        # A report's per-trial list: dicts of one key tuple holding 1-D and
        # 2-D float64 arrays, some with NaN or an infinity.
        rng = np.random.default_rng(3)
        rows = []
        for i in range(6):
            joint = rng.random((3, 3))
            rows.append({"trial": str(i), "joint": joint, "marginal": joint.sum(axis=0), "ok": i})
        rows[1]["joint"][0, 1] = np.nan
        rows[2]["joint"][2, 2] = np.inf
        rows[3]["marginal"][0] = -np.inf
        rows[4]["joint"] = rows[4]["joint"].T
        rows[5]["marginal"] = rows[5]["marginal"].astype(">f8")
        rows[5]["joint"][1] = -0.0
        payload = {
            "per_trial": rows,
            "odd": [np.ones((0, 3)), np.ones((2, 0)), np.ones((2, 1, 2)), np.ones(2, np.float32)],
        }
        assert canonical_json(payload) == reference_canonical_json(payload)

    @pytest.mark.parametrize("bad", [object(), 1 + 2j, {1, 2}, np.array([1 + 1j])])
    def test_unsupported_objects_raise_type_error(self, bad):
        for payload in ({"x": bad}, [1.0, bad], bad):
            with pytest.raises(TypeError):
                canonical_json(payload)
            with pytest.raises(TypeError):
                reference_canonical_json(payload)


class TestDigests:
    @pytest.mark.parametrize("size", [0, 65536, 200_003])
    def test_file_digest_matches_hashlib(self, tmp_path, size):
        data = np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8).tobytes()
        path = tmp_path / "blob"
        path.write_bytes(data)
        assert file_digest(path) == hashlib.sha256(data).hexdigest()

    @pytest.mark.parametrize("text", ["", "ascii", "café ☃ \U0001f600"])
    def test_text_digest_matches_hashlib(self, text):
        assert text_digest(text) == hashlib.sha256(text.encode("utf-8")).hexdigest()

    def test_estimate_without_bootstrap_loads_no_openssl(self, tmp_path):
        table = tmp_path / "table.csv"
        table.write_text(
            "trial,arm,s,y,count\n"
            "1,0,NA,0,50\n1,0,NA,1,50\n1,1,NA,0,50\n1,1,NA,1,50\n"
            "2,0,NA,0,20\n2,0,NA,1,80\n2,1,NA,0,38\n2,1,NA,1,62\n"
        )
        script = (
            "import sys, jointpo.cli\n"
            "code = jointpo.cli.main(['estimate', '--input', sys.argv[1], '--boot', '0',"
            " '--output', sys.argv[2]])\n"
            "print(code, '_hashlib' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(table), str(tmp_path / "report.json")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "False"]
        report = (tmp_path / "report.json").read_text()
        assert f'"sha256": "{hashlib.sha256(table.read_bytes()).hexdigest()}"' in report
