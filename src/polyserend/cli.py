"""Command-line front end.

Subcommands: ``verify`` (constraint, Lagrange and reproduction residuals of
the serendipity basis on one polygon), ``sample`` (basis values over an
interior grid, as CSV), ``convergence`` (Poisson refinement study on
trapezoid meshes) and ``meshgen`` (trapezoid mesh files).

Exit codes: 0 success, 1 numerical failure (residuals over tolerance or a
coefficient blowup), 2 invalid input, 3 solver failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .barycentric import CoordinateKind, eval_coords_batch, pairwise_batch
from .fem import convergence_study, mesh_to_json, trapezoid_mesh
from .geometry import GeometryError, load_polygon, sample_interior
from .linalg import ConvergenceError
from .serendipity import (
    CoefficientBlowupError,
    build_map,
    eval_basis_batch,
    lagrange_table,
    precision_residuals,
    verify_constraints,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_INPUT = 2
EXIT_SOLVER = 3

_KINDS = [k.value for k in CoordinateKind]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyserend",
        description="Quadratic serendipity elements on convex polygons.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_kind(p: argparse.ArgumentParser) -> None:
        p.add_argument("--kind", choices=_KINDS, default=CoordinateKind.MEAN_VALUE.value,
                       help="generalized barycentric coordinate kind")

    p_verify = sub.add_parser("verify", help="check basis constraints on one polygon")
    p_verify.add_argument("path", type=Path, help="polygon JSON file")
    add_kind(p_verify)
    p_verify.add_argument("--tol", type=float, default=1e-9)
    p_verify.add_argument("--samples", type=int, default=50,
                          help="random interior points for reproduction residuals")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--json", dest="as_json", action="store_true")
    p_verify.add_argument("--dump-A", dest="dump_a", type=Path, metavar="CSV",
                          help="write the reduction matrix as dense CSV")

    p_sample = sub.add_parser("sample", help="sample basis values on an interior grid")
    p_sample.add_argument("path", type=Path, help="polygon JSON file")
    add_kind(p_sample)
    p_sample.add_argument("--resolution", type=int, default=25,
                          help="grid points per axis across the bounding box")
    p_sample.add_argument("--output", type=Path, help="CSV file (default stdout)")

    p_conv = sub.add_parser("convergence", help="Poisson refinement study")
    add_kind(p_conv)
    p_conv.add_argument("--levels", type=str, default="2,4,8,16",
                        help="comma-separated mesh sizes")
    p_conv.add_argument("--offset", type=float, default=0.25)
    p_conv.add_argument("--quad-degree", type=int, default=10)
    p_conv.add_argument("--norm-degree", type=int, default=14)
    p_conv.add_argument("--cg-tol", type=float, default=1e-12)
    p_conv.add_argument("--output", type=Path, help="CSV file")
    p_conv.add_argument("--json", dest="as_json", action="store_true")

    p_mesh = sub.add_parser("meshgen", help="write a trapezoid mesh file")
    p_mesh.add_argument("--n", type=int, default=4)
    p_mesh.add_argument("--offset", type=float, default=0.25)
    p_mesh.add_argument("--output", type=Path, help="JSON file (default stdout)")
    return parser


def _check_args(args: argparse.Namespace) -> None:
    """Reject bad option values before a command runs; ``--levels`` is parsed
    into a tuple of integers in place."""
    if "levels" in args:
        try:
            args.levels = tuple(int(tok) for tok in args.levels.split(",") if tok.strip())
        except ValueError:
            raise GeometryError(f"bad --levels value: {args.levels!r}")
        if not args.levels or any(n < 1 for n in args.levels):
            raise GeometryError(f"--levels must be positive integers, got {args.levels}")
    if "tol" in args and not 0.0 < args.tol < np.inf:
        raise GeometryError(f"--tol must be finite and positive, got {args.tol}")
    if "cg_tol" in args and not 0.0 < args.cg_tol < 1.0:
        raise GeometryError(f"--cg-tol must lie in (0, 1), got {args.cg_tol}")
    for flag in ("samples", "resolution", "seed"):
        if getattr(args, flag, 0) < 0:
            raise GeometryError(f"--{flag} must be non-negative, got {getattr(args, flag)}")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def cmd_verify(args: argparse.Namespace) -> int:
    polygon = load_polygon(args.path)
    smap = build_map(polygon)
    report = verify_constraints(polygon, smap, tol=args.tol)
    table = lagrange_table(polygon, smap)
    lagrange_dev = float(np.max(np.abs(table - np.eye(2 * polygon.n))))
    repro_dev = 0.0
    if args.samples > 0:
        rng = np.random.default_rng(args.seed)
        pts = sample_interior(polygon, args.samples, rng)
        lam, dlam = eval_coords_batch(polygon, args.kind, pts)
        mu, _ = pairwise_batch(lam, dlam)
        xi = mu @ smap.A.T
        repro_dev = float(np.max(precision_residuals(polygon, xi, pts)))
    passed = report.passed and lagrange_dev <= 1e-10 and repro_dev <= args.tol
    if args.dump_a is not None:
        np.savetxt(args.dump_a, smap.A, delimiter=",", fmt="%.17g")
    if args.as_json:
        print(json.dumps({
            "n": polygon.n,
            "strategy": smap.strategy.value,
            "kind": args.kind,
            "constraint_max_residual": report.max_residual,
            "constraint_worst_pair": list(report.worst_pair),
            "lagrange_max_deviation": lagrange_dev,
            "reproduction_max_residual": repro_dev,
            "tolerance": args.tol,
            "passed": passed,
        }, indent=2))
    else:
        print(f"polygon: {polygon.n} vertices, strategy {smap.strategy.value}, "
              f"kind {args.kind}")
        print(f"constraint residual: {report.max_residual:.3e} "
              f"(worst pair {report.worst_pair})")
        print(f"lagrange deviation:  {lagrange_dev:.3e}")
        print(f"reproduction residual at {args.samples} points: {repro_dev:.3e}")
        print(f"result: {'PASS' if passed else 'FAIL'} (tolerance {args.tol:g})")
    return EXIT_OK if passed else EXIT_NUMERICAL


def cmd_sample(args: argparse.Namespace) -> int:
    polygon = load_polygon(args.path)
    smap = build_map(polygon)
    n = polygon.n
    header = "x,y," + ",".join(f"psi_{k + 1}" for k in range(2 * n))
    rows: list[str] = []
    if args.resolution > 0:
        lo = polygon.vertices.min(axis=0)
        hi = polygon.vertices.max(axis=0)
        xs = np.linspace(lo[0], hi[0], args.resolution)
        ys = np.linspace(lo[1], hi[1], args.resolution)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        grid = np.stack([gx.ravel(), gy.ravel()], axis=1)
        eps = 1e-9 * polygon.diameter
        inside = polygon.edge_distances(grid).min(axis=1) > eps
        pts = grid[inside]
        if len(pts):
            psi, _ = eval_basis_batch(polygon, args.kind, smap, pts)
            for p, row in zip(pts, psi):
                rows.append(",".join([_fmt(p[0]), _fmt(p[1])] + [_fmt(v) for v in row]))
    text = "\n".join([header] + rows) + "\n"
    if args.output is not None:
        args.output.write_text(text)
        print(f"wrote {len(rows)} rows to {args.output}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _rate_str(rate: float | None) -> str:
    return "" if rate is None else f"{rate:.6g}"


def cmd_convergence(args: argparse.Namespace) -> int:
    rows = convergence_study(
        args.levels,
        kind=args.kind,
        offset=args.offset,
        quad_degree=args.quad_degree,
        norm_degree=args.norm_degree,
        tol=args.cg_tol,
    )
    csv_lines = ["n,dofs,l2_error,l2_rate,h1_error,h1_rate"]
    for r in rows:
        csv_lines.append(
            f"{r.n},{r.dofs},{_fmt(r.l2_error)},{_rate_str(r.l2_rate)},"
            f"{_fmt(r.h1_error)},{_rate_str(r.h1_rate)}"
        )
    if args.output is not None:
        args.output.write_text("\n".join(csv_lines) + "\n")
    if args.as_json:
        print(json.dumps([{
            "n": r.n, "dofs": r.dofs,
            "l2_error": r.l2_error, "l2_rate": r.l2_rate,
            "h1_error": r.h1_error, "h1_rate": r.h1_rate,
        } for r in rows], indent=2))
    else:
        print("| n | dofs | L2 error | rate | H1 error | rate |")
        print("|---|------|----------|------|----------|------|")
        for r in rows:
            print(f"| {r.n} | {r.dofs} | {r.l2_error:.3e} | {_rate_str(r.l2_rate) or '-'} "
                  f"| {r.h1_error:.3e} | {_rate_str(r.h1_rate) or '-'} |")
    return EXIT_OK


def cmd_meshgen(args: argparse.Namespace) -> int:
    mesh = trapezoid_mesh(args.n, args.offset)
    text = json.dumps(mesh_to_json(mesh), indent=2) + "\n"
    if args.output is not None:
        args.output.write_text(text)
        print(f"wrote {mesh.n_vertices} vertices, {mesh.n_cells} cells to {args.output}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


_COMMANDS = {
    "verify": cmd_verify,
    "sample": cmd_sample,
    "convergence": cmd_convergence,
    "meshgen": cmd_meshgen,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_args(args)
        return _COMMANDS[args.subcommand](args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except CoefficientBlowupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (GeometryError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
