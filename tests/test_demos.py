"""Smoke test: the demo scripts run and print their reference lines."""

import runpy
import sys
from pathlib import Path

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def run_demo(name, argv, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [name] + argv)
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    return capsys.readouterr().out.splitlines()


def test_golden_tables_demo(monkeypatch, capsys):
    lines = run_demo("golden_tables.py", [], monkeypatch, capsys)
    # the embedded code's combined parity row, read after the source rows
    at = lines.index("embedded {(1,2),(2,5)}: q = p1 + reversed p2 << 3")
    assert lines[at + 3] == "  q0 | 0 1 0 0 0 0 0 0 1 1 0 0 0 0"


def test_loss_curves_demo(monkeypatch, capsys):
    lines = run_demo("loss_curves.py", ["--segments", "200"], monkeypatch,
                     capsys)
    at = lines.index("user 2 loss probability (200 segments, seed 7)")
    assert lines[at + 3] == ("     ia |  0.000000  0.000000  0.000000  "
                             "0.002550  0.010500  0.016850  0.022850  "
                             "0.029450  0.034550")


def test_readme_quick_start_runs(capsys):
    readme = (DEMOS.parent / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.split() == ["5", "3"]  # slot delays 6, 7
