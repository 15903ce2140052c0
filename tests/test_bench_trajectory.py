"""``tools/bench_trajectory.py`` refuses, before any benchmark run, to
overwrite a ``BENCH_*.json`` or to write both files under one label."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_trajectory.py"


@pytest.fixture
def tool(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_trajectory", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def no_run(*args, **kwargs):
        raise AssertionError("a benchmark step ran")

    monkeypatch.setattr(module, "export_commit", no_run)
    monkeypatch.setattr(module, "run_benchmark", no_run)
    return module


@pytest.mark.parametrize("existing", ["base", "change"])
def test_an_existing_file_is_not_overwritten(tool, tmp_path, capsys, existing):
    path = tmp_path / f"BENCH_{existing}.json"
    path.write_text("{}\n", encoding="utf-8")
    argv = ["--parent-label", "base", "--label", "change", "--out-dir", str(tmp_path)]
    assert tool.main(argv) == 2
    assert str(path) in capsys.readouterr().err
    assert path.read_text(encoding="utf-8") == "{}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]


def test_equal_labels_are_refused(tool, tmp_path, capsys):
    argv = ["--parent-label", "same", "--label", "same", "--out-dir", str(tmp_path)]
    assert tool.main(argv) == 2
    assert "'same'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
