"""Shared pytest configuration: hypothesis profile, --deep flag, verdict lines,
and the checkout's ``src`` on the import path of subprocesses."""

from __future__ import annotations

import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

# pytest's ``pythonpath`` setting puts src/ on the tests' own import path; a
# subprocess the tests start (``python -m polyserend``) reads PYTHONPATH.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in os.environ.get("PYTHONPATH", "").split(os.pathsep):
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

settings.register_profile(
    "polyserend",
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("polyserend")

_criterion_lines: list[str] = []


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--deep",
        action="store_true",
        default=False,
        help="also run the long high-resolution convergence rows (takes minutes)",
    )


@pytest.fixture
def deep(request: pytest.FixtureRequest) -> bool:
    return bool(request.config.getoption("--deep"))


@pytest.fixture
def criterion():
    """Record one acceptance-criterion verdict, echoed in the terminal summary."""

    def record(number: int, name: str, passed: bool, detail: str = "") -> bool:
        line = f"[criterion {number}] {name}: {'PASS' if passed else 'FAIL'}"
        if detail:
            line += f"  ({detail})"
        _criterion_lines.append(line)
        print(line, flush=True)
        return passed

    return record


def pytest_terminal_summary(terminalreporter) -> None:
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in _criterion_lines:
            terminalreporter.write_line(line)
