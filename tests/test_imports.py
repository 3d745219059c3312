"""What ``import polyserend`` loads.

Most of a short run's set-up time is import time, so the package keeps
scipy subpackages it does not need off its import path.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import polyserend

# scipy.sparse.linalg is left out: a two-level preconditioner's coarse solve
# may need it.
UNLOADED = ("scipy.special", "scipy.optimize", "scipy.spatial", "scipy.integrate")


def test_import_leaves_heavy_scipy_modules_unloaded():
    src = Path(polyserend.__file__).resolve().parents[1]
    code = (
        "import sys, polyserend\n"
        f"print(' '.join(m for m in {UNLOADED!r} if m in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
