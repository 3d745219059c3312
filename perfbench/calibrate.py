"""Machine speed, measured with a fixed reference kernel between operations.

The benchmark's host is shared: its speed drifts by tens of percent over
seconds to minutes, on every core at once.  Operations alone cannot tell a
slower program from a slower machine, so ``run.py`` runs this kernel between
operations, for a fixed share of the measuring time, and divides each
operation's time by the kernel's slowdown in the seconds around it.

The kernel does the kind of work the program does (small numpy arrays in a
Python loop, einsum, a small dense solve) but calls nothing from the
program, so no change to the program moves it.
"""

from __future__ import annotations

import time

import numpy as np

# Median time of one chunk on the machine that recorded baseline.json, so
# that normalised times read as seconds on that machine.
REFERENCE_CHUNK_S = 0.017

_HEXAGON = np.array([[np.cos(a), np.sin(a)] for a in np.linspace(0.0, 2 * np.pi, 7)[:-1]])
_POINTS = 0.5 * np.random.default_rng(0).uniform(-1.0, 1.0, (36, 2))


def chunk() -> float:
    """Run one fixed chunk of reference work; return its wall time."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(360):
        d = _POINTS[:, None, :] - _HEXAGON[None, :, :]
        r = np.sqrt(np.einsum("mnk,mnk->mn", d, d))
        w = r / r.sum(axis=1, keepdims=True)
        g = np.einsum("mi,mj->ij", w, w) + 6.0 * np.eye(6)
        acc += float(np.linalg.solve(g, np.ones(6))[0])
        s = 0
        for j in range(150):
            s += j * j % 7
        acc += s
    if not acc > 0:
        raise RuntimeError("reference kernel gave a wrong result")
    return time.perf_counter() - t0


class Speed:
    """Reference-kernel samples taken over one run, in blocks between timed steps."""

    def __init__(self, share: float, window: float):
        self.share = share
        self.window = window
        self.times: list[float] = []
        self.blocks: list[tuple[float, int]] = []   # (summed chunk time, chunks)

    def warm(self) -> None:
        """Warm the kernel up, then take the block that precedes the first step."""
        chunk()
        self.blocks.append((sum(chunk() for _ in range(3)), 3))

    def after(self, step_seconds: float) -> int:
        """Run chunks for ``share`` of a step's time (at least one); return the block's index."""
        spent, n = 0.0, 0
        while spent < self.share * step_seconds or n == 0:
            self.times.append(chunk())
            spent += self.times[-1]
            n += 1
        self.blocks.append((spent, n))
        return len(self.blocks) - 1

    def near(self, block: int) -> float:
        """Slowdown around the step that ``block`` follows.

        Blocks are added on both sides of the step, one pair at a time,
        until they hold ``window`` seconds of chunks, so a short step is
        scaled by the machine speed of the few seconds around it.
        """
        lo, hi = block - 1, block + 1
        while True:
            spent = sum(b[0] for b in self.blocks[max(lo, 0):hi])
            if spent >= self.window or (lo <= 0 and hi >= len(self.blocks)):
                break
            lo, hi = lo - 1, hi + 1
        chunks = sum(b[1] for b in self.blocks[max(lo, 0):hi])
        return spent / chunks / REFERENCE_CHUNK_S

    def slowdown(self) -> float:
        """Mean chunk time over the run, over the reference chunk time."""
        return sum(self.times) / len(self.times) / REFERENCE_CHUNK_S
