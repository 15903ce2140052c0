"""The README's Library example runs as written on a simulated table."""

import re
from pathlib import Path

from jointpo.data import serialize_dataset
from jointpo.simulate import DgpSpec, simulate_dataset

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(tmp_path, monkeypatch):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    ds = simulate_dataset(DgpSpec(case="c1", n_g=500), seed=7)
    (tmp_path / "trials.csv").write_text(serialize_dataset(ds), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(blocks[0], str(README), "exec"), {})
