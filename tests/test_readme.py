"""The README's library quickstart runs, every exported name resolves, and
the package exports exactly the library modules' public names."""

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


LIBRARY_MODULES = ("barycentric", "geometry", "fem", "linalg", "quadrature", "serendipity")


def test_package_exports_the_library_modules_all():
    """Each module's ``__all__`` is the one list of public names: the package
    exports them all, once each, and nothing else."""
    joined = [name for module in LIBRARY_MODULES
              for name in importlib.import_module(f"polyserend.{module}").__all__]
    assert polyserend.__all__ == joined
    assert len(set(joined)) == len(joined)
    namespace: dict = {}
    exec("from polyserend import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(joined)
    from polyserend import AssembledMatrix, CellGroup, rule_layouts
    assert (AssembledMatrix.__module__, CellGroup.__module__, rule_layouts.__module__) == (
        "polyserend.fem", "polyserend.fem", "polyserend.quadrature")
