"""The README's library quickstart runs, and every exported name resolves."""

from __future__ import annotations

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import polyserend

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None, "no python block under '## Library quickstart'"
    exec(compile(block.group(1), str(README), "exec"), {})
    capsys.readouterr()


@pytest.mark.parametrize("module", [
    m.name for m in pkgutil.iter_modules(polyserend.__path__, "polyserend.")
    if m.name != "polyserend.__main__"
])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
