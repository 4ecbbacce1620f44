"""Smoke tests: each script under demos/ runs and prints its headline."""

import re
import runpy
from pathlib import Path

DEMOS = Path(__file__).parent.parent / "demos"


def run_demo(capsys, name: str) -> list[str]:
    runpy.run_path(str(DEMOS / f"{name}.py"))["main"]()
    return capsys.readouterr().out.splitlines()


def test_dial_demo_round_trips_exactly(capsys):
    lines = run_demo(capsys, "dial_demo")
    assert sum(line.endswith("exact match: True") for line in lines) == 5
    assert not any("exact match: False" in line for line in lines)
    (det_line,) = [line for line in lines if line.startswith("energy-matrix determinant")]
    eliminated, closed = re.fullmatch(
        r"energy-matrix determinant: elimination (\S+), closed form (\S+)", det_line
    ).groups()
    assert eliminated == closed


def test_grid_verification_demo_passes_both(capsys):
    lines = run_demo(capsys, "grid_verification_demo")
    assert [line.strip() for line in lines if "passed:" in line] == ["passed: True"] * 2


def test_ordering_violation_demo_reports_violation(capsys):
    lines = run_demo(capsys, "ordering_violation_demo")
    assert "Sturm-Liouville ordered: False" in lines


def test_partial_dial_demo_reproduces_pins(capsys):
    lines = [line.strip() for line in run_demo(capsys, "partial_dial_demo")]
    assert "E_0 = 1  (pinned)" in lines
    assert "E_2 = 2  (pinned)" in lines
    dropped = lines[lines.index("same pins with the h^2 term dropped:"):]
    assert "E_0 = 1" in dropped and "E_2 = 2" in dropped
