#!/usr/bin/env python3
"""Compare the matrices, loads, solutions and errors of two checkouts.

PARENT and CHANGE are two checkouts of this repository.  Each is recorded in
a fresh interpreter with its own ``src/`` first on the import path, on one
fixed case list: ``trapezoid_mesh(n)`` for n = 4, 8, 16 and 64, the Voronoi
meshes of seeds 0-3 from the checkout's ``perfbench/workloads.voronoi_mesh``
and ``tests/corpus.mixed_mesh``, each with every coordinate kind that
is defined on it (not Wachspress on the flat vertex of the mixed mesh).  A case
records the stiffness ``data``, ``indices`` and ``indptr`` and the load of the
source ``1 + x y``; the same three arrays of the stiffness assembled with no
source, as ``convergence_study`` assembles it, prefixed ``zero_source_``
(that assembly forms no basis values); and the harmonic Dirichlet problem of
``convergence_study`` solved two ways: directly (scipy's ``spsolve`` of the
interior system) and
by the checkout's ``solve_dirichlet`` (conjugate gradients), each with its
interior solution and L2/H1 errors, and the CG iteration count.  The
floor of the direct-solve errors is recorded beside them, as
``direct_l2_floor`` and ``direct_h1_floor``: the largest relative move of
each error when every stored stiffness entry moves one ulp up or down, the
same way at (i, j) and (j, i), over three seeded draws.  The
trapezoid levels of each kind also give the L2/H1 rates of both solutions.
The element kernel is recorded apart from any mesh: the coordinates, their
products and the basis, each with its gradients, from the public
``eval_coords_batch``, ``pairwise_batch`` and ``eval_basis_batch``, on
seeded ``tests/corpus.random_convex_polygon`` polygons with n = 3-10, one
alone and three as one batch, with every coordinate kind.

For every array the script prints "bitwise" or the largest move relative to
the parent's largest entry.  Two kinds of move are gated: a direct-solve L2
or H1 error beyond 1e-10 (the accuracy rule of ROADMAP.md) and a direct-solve
rate beyond 1e-6, both relative.  CG results are reported ungated, since
where CG stops moves them with no change to the discretisation.  The floors
are ungated too; the change's floor is printed beside each gated error, so
a failed gate can be read against the round-off floor of its own matrix.
The exit code is 1 when a gate fails.

Example:
    python3 scripts/accuracy_diff.py ../parent .
"""

from __future__ import annotations

import argparse
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

TRAPEZOID_LEVELS = (4, 8, 16, 64)
VORONOI_SEEDS = (0, 1, 2, 3)
KERNEL_SIZES = range(3, 11)
KERNEL_BATCHES = (1, 3)
KERNEL_POINTS = 24
FLOOR_SEEDS = (0, 1, 2)
# Gated names, by their last part, and the relative move each may make.
GATES = {"direct_l2": 1e-10, "direct_h1": 1e-10, "direct_l2_rate": 1e-6, "direct_h1_rate": 1e-6}


def _source(points: np.ndarray) -> np.ndarray:
    return 1.0 + points[:, 0] * points[:, 1]


def direct_solve(fem, mesh, dofmap, kind, stiffness: sp.csr_matrix):
    """The harmonic Dirichlet problem solved by scipy's ``spsolve`` of the
    interior system of ``stiffness``; it reads no code under comparison."""
    inner, bnd = dofmap.interior_dofs, dofmap.boundary_dofs
    values = np.zeros(dofmap.n_dofs)
    values[bnd] = fem.harmonic_exact(fem.node_coordinates(mesh)[bnd])
    values[inner] = spsolve(stiffness[np.ix_(inner, inner)].tocsc(),
                            -(stiffness @ values)[inner])
    return fem.DiscreteSolution(mesh=mesh, kind=fem.CoordinateKind(kind), values=values,
                                report=fem.SolveReport(values[inner], 0, 0.0, True))


def one_ulp(stiffness: sp.csr_matrix, seed: int) -> sp.csr_matrix:
    """``stiffness`` with every stored entry moved one ulp up or down, at
    random from ``seed`` and the same way at (i, j) and (j, i)."""
    coo = stiffness.tocoo()
    lo, hi = np.minimum(coo.row, coo.col), np.maximum(coo.row, coo.col)
    _, pair = np.unique(lo.astype(np.int64) * stiffness.shape[0] + hi, return_inverse=True)
    up = np.random.default_rng(seed).integers(0, 2, pair.max() + 1)[pair] == 1
    data = np.nextafter(coo.data, np.where(up, np.inf, -np.inf))
    return sp.csr_matrix((data, (coo.row, coo.col)), shape=stiffness.shape)


def record_case(fem, mesh, kind) -> dict[str, np.ndarray]:
    """The arrays of one case, as the module docstring lists them."""
    dofmap = fem.dof_map(mesh)
    matrix, load = fem.assemble(mesh, kind, source=_source)
    zero = np.zeros(dofmap.n_dofs)
    cg = fem.solve_dirichlet(matrix, zero, mesh, dofmap, kind, fem.harmonic_exact)
    n, inner = dofmap.n_dofs, dofmap.interior_dofs
    stiffness = sp.csr_matrix((matrix.data, matrix.indices, matrix.indptr), shape=(n, n))
    direct = direct_solve(fem, mesh, dofmap, kind, stiffness)
    unloaded, _ = fem.assemble(mesh, kind)
    out = {"stiffness_data": matrix.data, "stiffness_indices": matrix.indices,
           "stiffness_indptr": matrix.indptr, "load": load,
           "zero_source_stiffness_data": unloaded.data,
           "zero_source_stiffness_indices": unloaded.indices,
           "zero_source_stiffness_indptr": unloaded.indptr,
           "cg_iterations": np.array(cg.report.iterations)}
    for name, solution in (("direct", direct), ("cg", cg)):
        err = fem.error_norms(solution, fem.harmonic_exact, fem.harmonic_gradient)
        out[f"{name}_solution"] = solution.values[inner]
        out[f"{name}_l2"], out[f"{name}_h1"] = np.array(err.l2), np.array(err.h1)
    moved = [fem.error_norms(direct_solve(fem, mesh, dofmap, kind, one_ulp(stiffness, seed)),
                             fem.harmonic_exact, fem.harmonic_gradient) for seed in FLOOR_SEEDS]
    for norm in ("l2", "h1"):
        error = float(out[f"direct_{norm}"])
        out[f"direct_{norm}_floor"] = np.array(
            max(abs(getattr(err, norm) - error) for err in moved) / error)
    return out


def record_kernels(corpus, polyserend) -> dict[str, np.ndarray]:
    """The element kernel's arrays, by "kernel-n{n}-batch{b}-{kind}/{array}"
    name: a batch of 1 is one ``Polygon`` with points (m, 2), a batch of 3
    one ``PolygonBatch`` with points (3, m, 2).  The points are seeded
    convex combinations of the vertices, so they depend on no program code."""
    arrays: dict[str, np.ndarray] = {}
    for n in KERNEL_SIZES:
        for size in KERNEL_BATCHES:
            rng = np.random.default_rng(100 * n + size)
            polys = [corpus.random_convex_polygon(rng, n) for _ in range(size)]
            points = np.stack([rng.dirichlet(np.ones(n), KERNEL_POINTS) @ p.vertices
                               for p in polys])
            if size == 1:
                polygon, points = polys[0], points[0]
            else:
                polygon = polyserend.PolygonBatch.from_vertices(np.stack([p.vertices
                                                                          for p in polys]))
            maps = polyserend.build_map(polygon)
            for kind in polyserend.CoordinateKind:
                lam, dlam = polyserend.eval_coords_batch(polygon, kind, points)
                mu, dmu = polyserend.pairwise_batch(lam, dlam)
                psi, dpsi = polyserend.eval_basis_batch(polygon, kind, maps, points)
                arrays.update({f"kernel-n{n}-batch{size}-{kind.value}/{name}": value
                               for name, value in (("lam", lam), ("dlam", dlam), ("mu", mu),
                                                   ("dmu", dmu), ("psi", psi), ("dpsi", dpsi))})
    return arrays


def record(checkout: Path) -> dict[str, np.ndarray]:
    """Every case of ``checkout``, by "case/array" name; run in a fresh
    interpreter whose import path starts with the checkout's own code."""
    for sub in ("tests", "perfbench", "src"):
        sys.path.insert(0, str(checkout / sub))
    import corpus
    import workloads

    import polyserend
    from polyserend import fem

    arrays = record_kernels(corpus, polyserend)
    for kind in [k.value for k in fem.CoordinateKind]:
        errors = {}
        for n in TRAPEZOID_LEVELS:
            case = record_case(fem, fem.trapezoid_mesh(n), kind)
            arrays.update({f"trapezoid{n}-{kind}/{k}": v for k, v in case.items()})
            errors[n] = case
        for norm in ("direct_l2", "direct_h1", "cg_l2", "cg_h1"):
            arrays[f"trapezoid-rates-{kind}/{norm}_rate"] = np.array([
                math.log(float(errors[a][norm] / errors[b][norm])) / math.log(b / a)
                for a, b in zip(TRAPEZOID_LEVELS, TRAPEZOID_LEVELS[1:])])
        for seed in VORONOI_SEEDS:
            mesh = fem.PolyMesh.build(*workloads.voronoi_mesh(seed))
            arrays.update({f"voronoi{seed}-{kind}/{k}": v
                           for k, v in record_case(fem, mesh, kind).items()})
        if kind != "wachspress":
            arrays.update({f"mixed-{kind}/{k}": v
                           for k, v in record_case(fem, corpus.mixed_mesh(), kind).items()})
    return arrays


def compare(parent: np.ndarray, change: np.ndarray) -> tuple[str, float | None]:
    """("bitwise", 0.0) for arrays of one dtype, shape and bits; else a
    verdict and the largest move relative to the parent's largest entry
    (None when the shapes differ)."""
    if parent.shape != change.shape:
        return f"shape {parent.shape} -> {change.shape}", None
    if parent.dtype == change.dtype and parent.tobytes() == change.tobytes():
        return "bitwise", 0.0
    a, b = parent.astype(float), change.astype(float)
    scale = float(np.max(np.abs(a), initial=0.0))
    move = float(np.max(np.abs(a - b), initial=0.0))
    relative = move / scale if scale else (0.0 if move == 0.0 else math.inf)
    note = "" if parent.dtype == change.dtype else f" (dtype {parent.dtype} -> {change.dtype})"
    return f"{relative:.3g}{note}", relative


def diff_rows(parent: dict[str, np.ndarray], change: dict[str, np.ndarray]) -> list[dict]:
    """One row per array name of either side: its verdict, whether it
    passes its gate ("ok" or "FAIL"; "-" for an ungated array), and the
    change's ``_floor`` of that array, if it has one (else None)."""
    rows = []
    for name in sorted(parent.keys() | change.keys()):
        if name not in change or name not in parent:
            verdict, relative = f"only in {'parent' if name in parent else 'change'}", None
        else:
            verdict, relative = compare(parent[name], change[name])
        tol = GATES.get(name.rsplit("/", 1)[1])
        gate = "-" if tol is None else ("ok" if relative is not None and relative <= tol
                                        else "FAIL")
        floor = change.get(f"{name}_floor")
        rows.append({"name": name, "verdict": verdict, "gate": gate,
                     "floor": None if floor is None else float(floor)})
    return rows


def render(rows: list[dict]) -> str:
    bitwise = sum(row["verdict"] == "bitwise" for row in rows)
    failed = [row["name"] for row in rows if row["gate"] == "FAIL"]
    lines = ["| array | parent -> change | gate |", "|---|---|---|"]
    lines += [f"| {row['name']} | {row['verdict']} | {row['gate']}"
              + ("" if row["floor"] is None else f" (floor {row['floor']:.3g})") + " |"
              for row in rows]
    lines.append(f"\n{bitwise} of {len(rows)} arrays bitwise; "
                 + (f"gates failed: {', '.join(failed)}" if failed else "every gate passed"))
    return "\n".join(lines)


def record_in_subprocess(checkout: Path, out: Path) -> dict[str, np.ndarray]:
    """``record(checkout)`` run by this script in a fresh interpreter."""
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--record", str(checkout),
                    str(out)], check=True)
    with np.load(out) as data:
        return {name: data[name] for name in data.files}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--record"]:
        _, checkout, out = argv
        np.savez(out, **record(Path(checkout)))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        sides = [record_in_subprocess(checkout.resolve(), Path(tmp) / f"{side}.npz")
                 for side, checkout in (("parent", args.parent), ("change", args.change))]
    rows = diff_rows(*sides)
    print(render(rows))
    return int(any(row["gate"] == "FAIL" for row in rows))

if __name__ == "__main__":
    sys.exit(main())
