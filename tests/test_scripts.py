"""Smoke tests of the scripts under scripts/, run in process at a small size."""

from __future__ import annotations

import importlib.util
from pathlib import Path

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
