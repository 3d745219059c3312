"""Closed-form reduction matrices that the tests check the constructions against.

The unit square has a hand-checked A, and every regular n-gon has a
closed form per diagonal; ``build_map`` computes neither way, so each is
an independent reference.
"""

from __future__ import annotations

import math

import numpy as np

from polyserend import SerendipityError, pair_order


def build_A_unit_square() -> np.ndarray:
    """Hand-checked reduction for the unit square (0,0),(1,0),(1,1),(0,1); a test oracle.

    The two diagonal products are split evenly over the four edge functions
    with weight 1/2 and subtracted from the opposite vertex functions.
    """
    cols = np.array(
        [
            [-1.0, 0.0],
            [0.0, -1.0],
            [-1.0, 0.0],
            [0.0, -1.0],
            [0.5, 0.5],
            [0.5, 0.5],
            [0.5, 0.5],
            [0.5, 0.5],
        ]
    )
    return np.hstack([np.eye(8), cols])


def _regular_closed_form(theta: float, sigma: float) -> tuple[float, float, float]:
    """Coefficients (c0, c_minus, c_plus) for a regular-polygon diagonal.

    The diagonal is the vertical chord between angles +-theta on the unit
    circle, with neighbors sigma away.  The 3x3 moment system has the closed
    form below; at theta = pi/2 (diagonals through the center) the raw
    expressions are 0/0 and the limits are used instead.
    """
    if abs(theta - 0.5 * math.pi) < 1e-13:
        c0 = -(1.0 + math.cos(sigma)) / (1.0 - math.cos(sigma))
        cm = 1.0 / (2.0 * (1.0 - math.cos(sigma)))
        return c0, cm, cm
    tan_t = math.tan(theta)
    cot_t = 1.0 / tan_t
    cos_s = math.cos(sigma)
    sin_s = math.sin(sigma)
    c0 = ((-1.0 + cos_s) * cot_t + (1.0 + cos_s) * tan_t) / ((-1.0 + cos_s) * (cot_t + tan_t))
    denom = 2.0 * (tan_t + cot_t) * sin_s * (cos_s - 1.0)
    cm = (cos_s - sin_s * tan_t - 1.0) / denom
    cp = (1.0 - cos_s - sin_s * tan_t) / denom
    return c0, cm, cp


def build_A_regular(n: int) -> np.ndarray:
    """Reduction matrix for the regular n-gon (any similar copy shares it); a test oracle.

    Every diagonal is mirror-symmetric in a rotated frame, which collapses
    the six coefficients to three; they depend only on the angular step
    sigma = 2 pi / n and the half-opening theta = k sigma / 2, where k is the
    number of boundary steps along the short side of the diagonal.
    """
    if n < 3:
        raise SerendipityError("regular construction requires n >= 3")
    pairs = pair_order(n)
    A = np.eye(2 * n, len(pairs))
    sigma = 2.0 * math.pi / n
    for col, (p, q) in enumerate(pairs[2 * n :], start=2 * n):
        m0 = q - p
        if m0 <= n - m0:
            a, b, k = q, p, m0
        else:
            a, b, k = p, q, n - m0
        theta = 0.5 * k * sigma
        c0, cm, cp = _regular_closed_form(theta, sigma)
        A[a, col] = c0
        A[b, col] = c0
        A[n + (a - 1) % n, col] = cm
        A[n + b, col] = cm
        A[n + a, col] = cp
        A[n + (b - 1) % n, col] = cp
    return A
