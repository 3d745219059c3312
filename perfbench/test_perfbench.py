"""Tests of the benchmark itself: inputs, checks and tracing."""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager

import numpy as np
import pytest

import calibrate
import run
import workloads as W
from polyserend import fem
from spans import Tracer


@pytest.fixture(scope="module")
def sweep():
    w = W.DirichletSweep(W.DEFAULT_SEED)
    w.setup()
    return w


@contextmanager
def perturbed(delta: float):
    """Add ``delta`` times a fixed pattern to every solved interior value."""
    original = fem.solve_dirichlet

    def solve(*args, **kwargs):
        sol = original(*args, **kwargs)
        values = sol.values.copy()
        inner = sol.dofmap.interior_dofs
        values[inner] += delta * np.cos(np.arange(len(inner)))
        return dataclasses.replace(sol, values=values)

    fem.solve_dirichlet = solve
    try:
        yield
    finally:
        fem.solve_dirichlet = original


@pytest.mark.parametrize("cls", [W.TrapezoidStudy, W.VoronoiPoisson, W.DirichletSweep])
def test_same_seed_gives_identical_inputs(cls):
    assert cls(7).input_bytes() == cls(7).input_bytes()
    assert cls(7).input_bytes() != cls(8).input_bytes()


@pytest.mark.parametrize("seed", range(4))
def test_voronoi_mesh_tiles_the_unit_square(seed):
    vertices, cells = W.voronoi_mesh(seed)
    mesh = fem.PolyMesh.build(vertices, cells)
    assert sum(p.area for p in mesh.polygons) == pytest.approx(1.0, abs=1e-12)
    assert sorted({v for c in cells for v in c}) == list(range(len(vertices)))
    hexagons = np.mean([len(c) == 6 for c in cells])
    props = W.input_properties([mesh])
    print(f"seed {seed}: hexagon share {hexagons:.3f}")
    assert hexagons >= 0.8
    assert props["input.repeated_shape_ratio"] == 0.0


def test_trapezoid_shapes_repeat():
    props = W.input_properties(W.TrapezoidStudy(W.DEFAULT_SEED).meshes())
    # Per level: two interior shapes, two on the bottom row, two on the top row.
    assert props["input.repeated_shape_ratio"] == pytest.approx((336 - 18) / 336)
    assert props["input.generic_cell_ratio"] == 0.0


def test_trapezoid_reference_check_catches_small_perturbation():
    w = W.TrapezoidStudy(W.DEFAULT_SEED, kinds=("triangulation",))
    with perturbed(1e-8):
        problems = w.check(0, w.op(0))
    assert problems and all("reference" in p for p in problems)


def test_trapezoid_bounds_check_catches_large_perturbation():
    w = W.TrapezoidStudy(5, kinds=("triangulation",))
    assert w.check(0, w.op(0)) == []
    with perturbed(1e-3):
        assert w.check(0, w.op(0))


def test_voronoi_reference_check_catches_small_perturbation():
    w = W.VoronoiPoisson(W.DEFAULT_SEED)
    with perturbed(1e-9):
        problems = w.check(0, w.op(0))
    assert problems == ["errors differ from the reference"]


def test_voronoi_bounds_check_catches_large_perturbation():
    w = W.VoronoiPoisson(3)
    with perturbed(1e-3):
        assert w.check(0, w.op(0))


def test_nodal_reproduction_check_catches_perturbation(sweep):
    assert sweep.check(1, sweep.op(1)) == []
    with perturbed(1e-6):
        assert sweep.check(1, sweep.op(1))


def test_traced_and_untraced_runs_agree(sweep):
    cases = [
        W.TrapezoidStudy(W.DEFAULT_SEED, kinds=("wachspress",)),
        W.VoronoiPoisson(W.DEFAULT_SEED),
        sweep,
    ]
    plain = [w.op(2) for w in cases]
    original = fem.assemble
    tracer = Tracer()
    with tracer.install():
        assert fem.assemble is not original
        traced = []
        for w in cases:
            with tracer.span("op"):
                traced.append(w.op(2))
    assert fem.assemble is original
    assert not tracer.absent
    assert plain[0] == traced[0] and plain[1] == traced[1]
    np.testing.assert_array_equal(plain[2], traced[2])
    for w, result in zip(cases, traced):
        assert w.check(2, result) == []
    totals = tracer.totals()["op"]
    assert totals["linalg.matvec.calls"] > 0
    assert "linalg.matvec" not in tracer.names


def test_missing_targets_are_absent_not_fatal():
    tracer = Tracer()
    targets = [
        ("polyserend.fem", "no_such_function", "fem.gone", None, None),
        ("polyserend.fem", "SparseMatrix.no_such_method", "linalg.gone", None, None),
        ("polyserend.fem", "NoSuchClass.method", "fem.gone2", None, None),
    ]
    with tracer.install(targets):
        pass
    assert len(tracer.absent) == 3
    assert tracer.totals()["op"]["fem.gone.calls"] == 0


def test_self_time_subtracts_child_coverage():
    tracer = Tracer()
    tracer.names = ["op", "a", "b", "c"]
    tracer.parents = [-1, 0, 0, 0]
    tracer.starts = [0.0, 1.0, 2.0, 8.0]
    tracer.ends = [10.0, 3.0, 5.0, 9.0]
    assert tracer.self_times() == [5.0, 2.0, 3.0, 1.0]


def test_accounting_leaves_out_unreported_spans():
    tracer = Tracer()
    tracer.names = ["op", "study", "assemble", "op", "assemble"]
    tracer.parents = [-1, 0, 1, -1, 3]
    tracer.starts = [0.0, 1.0, 2.0, 10.0, 11.0]
    tracer.ends = [9.0, 8.0, 4.0, 20.0, 19.0]
    assert tracer.root_self_times({"assemble"}) == {0: 2.0, 3: 8.0}
    assert tracer.root_self_times({"assemble", "study"}) == {0: 7.0, 3: 8.0}


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([float(i) for i in range(1, 31)]) == (20.0, pytest.approx(200 / 3))
    assert run.tail([float(i) for i in range(1, 16)]) == (8.0, 50.0)


def test_speed_blocks_take_their_share_and_scale_by_their_neighbours():
    speed = calibrate.Speed(0.5, window=0.0)
    speed.warm()
    assert speed.blocks[speed.after(0.1)][0] >= 0.05
    assert speed.blocks[speed.after(0.0)][1] == 1
    ref = calibrate.REFERENCE_CHUNK_S
    speed.blocks = [(2 * ref, 2), (6 * ref, 2), (4 * ref, 1), (12 * ref, 3)]
    speed.window = 0.0
    assert speed.near(2) == pytest.approx(10 / 3)       # blocks 1 and 2
    speed.window = 11 * ref
    assert speed.near(2) == pytest.approx(24 / 8)       # widened to all four
    speed.times = [0.5 * ref, 1.5 * ref]
    assert speed.slowdown() == pytest.approx(1.0)
