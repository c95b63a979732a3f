"""Smoke tests of the scripts under scripts/, run in process at a small size."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_demo_pipeline_writes_every_step(tmp_path, capsys):
    demo = _load("demo_pipeline")
    assert demo.main([
        "--size", "16", "--length", "96", "--steps", "2", "--out-dir", str(tmp_path),
    ]) == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == ["ground_truth.pgm", "step_1.pgm", "step_2.pgm", "tfp_w64.pgm"]
    out = capsys.readouterr().out
    assert "step 2 @ tick 64" in out


@pytest.mark.parametrize("checked", [True, False])
def test_mutation_sampler_reports_one_mutant(tmp_path, monkeypatch, capsys, checked):
    # A one-point module in a repository of its own: its test either
    # checks the result, killing the mutant, or only imports it.
    (tmp_path / "src" / "spikecam").mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    module = tmp_path / "src" / "spikecam" / "tiny.py"
    module.write_text("def double(x):\n    return x + x\n")
    (tmp_path / "src" / "spikecam" / "__init__.py").write_text("")
    check = "assert double(3) == 6" if checked else "pass"
    (tmp_path / "tests" / "test_tiny.py").write_text(
        f"from spikecam.tiny import double\n\n\ndef test_double():\n    {check}\n"
    )
    (tmp_path / "tests" / "test_golden.py").write_text("def test_nothing():\n    pass\n")
    sampler = _load("mutation_sample")
    monkeypatch.setattr(sampler, "ROOT", tmp_path)
    assert sampler.main(["tiny"]) == 0
    out = capsys.readouterr().out
    assert "1 mutation points, 1 sampled" in out
    if checked:
        assert "killed (fail) line 2: + -> - in x + x" in out
        assert "1 of 1 mutants killed, 0 survived" in out
    else:
        assert "SURVIVED line 2: + -> - in x + x\n    return x + x" in out
        assert "0 of 1 mutants killed, 1 survived" in out
    assert module.read_text() == "def double(x):\n    return x + x\n"
