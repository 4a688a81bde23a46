"""Smoke tests for the command-line scripts under ``scripts/``."""

import importlib.util
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_search_representations_prints_one_row_per_family(monkeypatch, capsys):
    script = load_script("search_representations")
    argv = ["search_representations.py", "--budget", "5", "--seeds", "1", "--m", "2"]
    monkeypatch.setattr(sys, "argv", argv)
    assert script.main() == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header.split() == ["family", "seed", "outcome"]
    # a found representation adds indented rho lines under its row
    rows = [line for line in lines if not line.startswith(" ")]
    assert [row.split()[0] for row in rows] == [name for name, _ in script.targets()]
