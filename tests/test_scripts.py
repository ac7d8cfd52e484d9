"""The experiment scripts under ``scripts/`` run end to end on a short schedule."""

import json
import runpy
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "script,plots",
    [("graph_benefit.py", True), ("depth_benefit.py", True), ("supervised_sweep.py", False)],
)
def test_script_runs_from_a_checkout(script, plots, tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    argv = [script, "--epochs", "2", "--seeds", "0", "1", "--out", str(out)]
    monkeypatch.setattr(sys, "argv", argv)
    main = runpy.run_path(str(SCRIPTS / script))["main"]
    assert main() == 0
    capsys.readouterr()
    cells = json.loads((out / "sweep.json").read_text())["cells"]
    assert cells and all(cell["error"] is None for cell in cells)
    if plots:
        assert ET.parse(out / "curves.svg").getroot().tag.endswith("svg")
