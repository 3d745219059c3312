"""Smoke tests of the scripts under scripts/: they run and print what they claim."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def table_rows(text: str) -> list[list[float]]:
    """The numeric rows of the markdown tables in ``text``."""
    rows = []
    for line in text.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        try:
            rows.append([float(cell) for cell in cells])
        except ValueError:
            continue
    return rows


def test_coefficient_blowup_tables(capsys):
    script = load_script("coefficient_blowup")
    script.main(["--t-values", "0.3,0.03,0.003", "--regular-n", "5,6,8"])
    out = capsys.readouterr().out
    rows = table_rows(out)
    blowup = [row for row in rows if len(row) == 4 and row[0] < 1.0]
    regular = [row for row in rows if len(row) == 4 and row[0] >= 5.0]
    assert [row[0] for row in blowup] == [0.3, 0.03, 0.003]
    assert [row[0] for row in regular] == [5.0, 6.0, 8.0]
    # Part 1: max s grows as the edges at the diagonal's ends shrink.
    s_max = [row[2] for row in blowup]
    assert all(b > a for a, b in zip(s_max, s_max[1:]))
    assert s_max[-1] > 100.0
    # Part 2: regular polygons never exceed the sharp bound.
    assert all(0.0 < row[3] <= 1.0 for row in regular)
