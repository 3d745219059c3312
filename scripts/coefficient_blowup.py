#!/usr/bin/env python3
"""Coefficient growth when shape regularity fails, next to the sharp bound.

Part 1 sweeps a family of hexagons inscribed in the unit circle in which one
edge at each endpoint of a fixed diagonal shrinks (arc length t -> 0).  The
rebalancing coefficients that eliminate the pairwise product attached to that
diagonal grow without bound, which is the price of losing the minimum-edge
shape condition.

Part 2 evaluates regular n-gons, which satisfy the shape conditions: there the
largest coefficient magnitude matches the sharp bound computed from the shape
margin (minimum edge length and maximum interior angle), confirming the bound
is attained and not merely an over-estimate.

Example:
    python3 scripts/coefficient_blowup.py --t-values 0.3,0.1,0.03,0.01,0.003
"""

from __future__ import annotations

import argparse

import numpy as np

from polyserend import Polygon, build_map, check_conditions, coefficient_bound, pair_order


def shrinking_edge_hexagon(t: float) -> Polygon:
    """Hexagon on the unit circle with one edge of arc length t adjacent to
    each endpoint of the horizontal diagonal (0, 3)."""
    if not 0.0 < t < 0.9:
        raise ValueError("t must lie in (0, 0.9)")
    angles = np.array(
        [np.pi, np.pi + 0.9, 2.0 * np.pi - t, 0.0, 0.9, np.pi - t]
    )
    return Polygon(np.stack([np.cos(angles), np.sin(angles)], axis=1))


def regular_polygon(n: int) -> Polygon:
    angles = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return Polygon(np.stack([np.cos(angles), np.sin(angles)], axis=1))


def diagonal_columns_max(poly: Polygon) -> tuple[float, float]:
    """Largest |entry| over the diagonal-elimination columns of A and the
    largest edge-coefficient sum s over all diagonals.

    The column of diagonal (a, b) carries s as the sum of its two edge
    coefficients at a, on edges (a - 1, a) and (a, a + 1).
    """
    n = poly.n
    diag_block = build_map(poly).A[:, 2 * n:]
    peak = float(np.max(np.abs(diag_block))) if diag_block.size else 0.0
    a = np.array([a for a, _ in pair_order(n)[2 * n:]], dtype=int)
    cols = np.arange(len(a))
    s = diag_block[n + (a - 1) % n, cols] + diag_block[n + a, cols]
    return peak, float(np.max(s, initial=0.0))


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--t-values", default="0.3,0.1,0.03,0.01,0.003,0.001",
                        help="comma-separated shrinking arc lengths")
    parser.add_argument("--regular-n", default="5,6,8,10,12",
                        help="comma-separated regular polygon sizes")
    args = parser.parse_args(argv)

    print("# Part 1: shrinking-edge hexagons (shape conditions fail as t -> 0)")
    print("| t (arc) | shortest edge | max s | max |A entry| |")
    print("|---------|---------------|-------|---------------|")
    for text in args.t_values.split(","):
        t = float(text)
        poly = shrinking_edge_hexagon(t)
        peak, s_max = diagonal_columns_max(poly)
        edges = np.linalg.norm(np.roll(poly.vertices, -1, axis=0) - poly.vertices,
                               axis=1)
        print(f"| {t:g} | {edges.min():.4e} | {s_max:.4e} | {peak:.4e} |")

    print()
    print("# Part 2: regular polygons (shape conditions hold; bound is sharp)")
    print("| n | max |A entry| | sharp bound | ratio |")
    print("|---|---------------|-------------|-------|")
    for text in args.regular_n.split(","):
        n = int(text)
        poly = regular_polygon(n)
        peak, _ = diagonal_columns_max(poly)
        side = float(np.linalg.norm(poly.vertices[1] - poly.vertices[0]))
        beta = np.pi * (n - 2) / n
        conditions = check_conditions(poly, gamma_star=10.0,
                                      d_star=side * (1.0 - 1e-9),
                                      beta_star=beta + 1e-9)
        bound = coefficient_bound(poly, conditions)
        print(f"| {n} | {peak:.6f} | {bound:.6f} | {peak / bound:.6f} |")


if __name__ == "__main__":
    main()
