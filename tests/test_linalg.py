"""Sparse matrix container and the preconditioned conjugate-gradient solver,
checked against dense numpy factorizations."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

import corpus
import oracles
from polyserend import (ConvergenceError, CoordinateKind, SparseMatrix, assemble, cg_solve, dof_map,
                        linalg, trapezoid_mesh)


def random_spd(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Well-conditioned dense SPD matrix."""
    Q = rng.normal(size=(dim, dim))
    return Q @ Q.T + dim * np.eye(dim)


def sparse_from_dense(dense: np.ndarray) -> SparseMatrix:
    rows, cols = np.nonzero(dense)
    return SparseMatrix.from_triplets(len(dense), rows, cols, dense[rows, cols])


def same_as_reference(report, matrix: SparseMatrix, b: np.ndarray, **budget) -> bool:
    """Whether ``report`` holds the solution bits, iteration count and
    residual of the reference loop ``oracles.jacobi_pcg``."""
    solution, iterations, residual = oracles.jacobi_pcg(matrix, b, **budget)
    return (report.solution.tobytes(), report.iterations, report.residual) == (
        solution.tobytes(), iterations, residual)


class TestSparseMatrix:
    def test_duplicates_are_summed(self):
        m = SparseMatrix.from_triplets(2, [0, 0, 1], [0, 0, 1], [1.0, 2.0, 5.0])
        expected = np.array([[3.0, 0.0], [0.0, 5.0]])
        assert m.toarray() == pytest.approx(expected, abs=0.0)

    def test_empty_triplets_give_zero_matrix(self):
        m = SparseMatrix.from_triplets(3, [], [], [])
        assert m.toarray() == pytest.approx(np.zeros((3, 3)), abs=0.0)
        assert m.matvec(np.ones(3)) == pytest.approx(np.zeros(3), abs=0.0)

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError):
            SparseMatrix.from_triplets(2, [0, 2], [0, 0], [1.0, 1.0])

    @pytest.mark.parametrize("rows, cols, values, message", [
        # The float indices once became (1, 0), with no error.
        ([1.7], [0.2], [5.0], "rows must be integers"),
        ([1], [0.0], [5.0], "cols must be integers"),
        ([True], [0], [5.0], "rows must be integers"),
        ([1], [0], [np.nan], "values must be finite"),
        ([1, 2], [0, 2], [1.0, -np.inf], "values must be finite"),
        ([0, 1], [0, 1], ["1", "2"], "values must be numbers"),
        ([0, 1], [0, 1], [True, True], "values must be numbers"),
        ([0, 1], [0, 1], [1.0, True], "values must be numbers"),
    ])
    def test_non_integer_index_or_non_finite_value_rejected(self, rows, cols, values, message):
        with pytest.raises(ValueError, match=message):
            SparseMatrix.from_triplets(3, rows, cols, values)

    @pytest.mark.parametrize("name", ["data", "indices", "indptr"])
    def test_arrays_are_read_only(self, name):
        """A write would leave the cached scipy view, and an interior system
        derived from the matrix, out of date."""
        m = sparse_from_dense(np.array([[2.0, 1.0], [1.0, 3.0]]))
        m.matvec(np.ones(2))
        with pytest.raises(ValueError, match="read-only"):
            getattr(m, name)[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            getattr(m._csr, name)[0] = 0
        assert m.matvec(np.ones(2)) == pytest.approx([3.0, 4.0], abs=0.0)

    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(0)
        dense = rng.normal(size=(50, 50))
        dense[np.abs(dense) < 0.8] = 0.0
        m = sparse_from_dense(dense)
        for _ in range(5):
            x = rng.normal(size=50)
            assert m.matvec(x) == pytest.approx(dense @ x, abs=1e-12)

    def test_views_match_dense(self):
        rng = np.random.default_rng(1)
        dense = random_spd(rng, 20)
        dense[np.abs(dense) < 1.0] = 0.0
        np.fill_diagonal(dense, np.diag(random_spd(rng, 20)))
        m = sparse_from_dense(dense)
        assert m.diagonal() == pytest.approx(np.diag(dense), abs=0.0)
        keep = np.array([2, 3, 7, 11, 19])
        assert m.submatrix(keep).toarray() == pytest.approx(
            dense[np.ix_(keep, keep)], abs=0.0
        )

    @pytest.mark.parametrize("keep", [
        [2, 3, 7, 11, 19], list(range(20)), [0], [19], [], np.arange(1, 20, 2, dtype=np.int32),
        [3, 2], [2, 2, 3],
    ])
    def test_submatrix_is_scipy_fancy_indexing_bitwise(self, keep):
        rng = np.random.default_rng(2)
        dense = rng.normal(size=(20, 20))
        dense[np.abs(dense) < 0.7] = 0.0
        dense[5] = 0.0                                  # an empty row
        m = sparse_from_dense(dense)
        index = np.asarray(keep, dtype=np.int64)
        want = m._csr[np.ix_(index, index)]
        got = m.submatrix(keep)
        assert got.dim == len(keep)
        assert np.array_equal(got.toarray(), dense[np.ix_(index, index)])
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("keep", [[-1, 2], [0, 20], [[1, 2]], [0.0, 1.0]])
    def test_submatrix_needs_indices_in_range(self, keep):
        """scipy itself would count -1 from the end and cast 1.0 to an index."""
        m = sparse_from_dense(np.eye(20))
        with pytest.raises(ValueError, match="keep"):
            m.submatrix(keep)

    def test_scipy_matrix_is_built_once(self, monkeypatch):
        m = sparse_from_dense(np.diag([1.0, 2.0, 3.0]))
        built = []
        real = sp.csr_matrix
        monkeypatch.setattr(sp, "csr_matrix", lambda *a, **k: built.append(1) or real(*a, **k))
        for _ in range(3):
            m.matvec(np.ones(3))
        m.diagonal()
        m.toarray()
        assert len(built) == 1


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
def test_kernel_call_is_scipy_matvec_bitwise(index_dtype):
    """``cg_solve`` calls the compiled kernel that ``csr @ x`` ends in,
    scipy's private ``_sparsetools.csr_matvec``, on the matrix's own arrays;
    a scipy release that moves or changes that kernel fails here."""
    rng = np.random.default_rng(3)
    dense = random_spd(rng, 40)
    dense[np.abs(dense) < 1.0] = 0.0
    dense += 40.0 * np.eye(40)
    triplets = sparse_from_dense(dense)
    m = SparseMatrix(40, triplets.data, triplets.indices.astype(index_dtype),
                     triplets.indptr.astype(index_dtype))
    x = rng.normal(size=40)
    got = np.zeros(40)
    linalg.csr_matvec(40, 40, m.indptr, m.indices, m.data, x, got)
    want = sp.csr_matrix((m.data, m.indices, m.indptr), shape=(40, 40)) @ x
    assert m.indices.dtype == index_dtype and got.tobytes() == want.tobytes()
    assert same_as_reference(cg_solve(m, x), m, x)


class TestConjugateGradients:
    def test_identity_converges_immediately(self):
        m = SparseMatrix.from_triplets(4, range(4), range(4), np.ones(4))
        b = np.array([1.0, -2.0, 3.0, 0.5])
        report = cg_solve(m, b)
        assert report.solution == pytest.approx(b, abs=1e-14)
        assert report.iterations == 1
        assert report.converged

    def test_small_system_exact_solution(self):
        m = SparseMatrix.from_triplets(
            2, [0, 0, 1, 1], [0, 1, 0, 1], [4.0, 1.0, 1.0, 3.0]
        )
        report = cg_solve(m, np.array([1.0, 2.0]))
        assert report.solution == pytest.approx([1.0 / 11.0, 7.0 / 11.0], abs=1e-13)

    def test_tridiagonal_poisson_chain(self):
        n = 100
        main = np.full(n, 2.0)
        rows = np.concatenate([np.arange(n), np.arange(n - 1), np.arange(1, n)])
        cols = np.concatenate([np.arange(n), np.arange(1, n), np.arange(n - 1)])
        vals = np.concatenate([main, np.full(n - 1, -1.0), np.full(n - 1, -1.0)])
        m = SparseMatrix.from_triplets(n, rows, cols, vals)
        b = np.ones(n)
        report = cg_solve(m, b, tol=1e-13)
        expected = np.linalg.solve(m.toarray(), b)
        assert report.solution == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("dim", [10, 60, 200])
    def test_random_spd_matches_cholesky(self, dim):
        rng = np.random.default_rng(dim)
        dense = random_spd(rng, dim)
        m = sparse_from_dense(dense)
        b = rng.normal(size=dim)
        report = cg_solve(m, b, tol=1e-13)
        L = np.linalg.cholesky(dense)
        expected = np.linalg.solve(L.T, np.linalg.solve(L, b))
        scale = float(np.max(np.abs(expected)))
        assert np.max(np.abs(report.solution - expected)) <= 1e-9 * max(1.0, scale)
        assert report.residual <= 1e-13

    def test_zero_rhs_short_circuits(self):
        m = SparseMatrix.from_triplets(3, range(3), range(3), [2.0, 2.0, 2.0])
        report = cg_solve(m, np.zeros(3))
        assert report.solution == pytest.approx(np.zeros(3), abs=0.0)
        assert report.iterations == 0
        assert report.converged

    def test_non_positive_diagonal_rejected(self):
        m = SparseMatrix.from_triplets(2, [0, 1], [0, 1], [1.0, -1.0])
        with pytest.raises(ValueError, match="diagonal"):
            cg_solve(m, np.ones(2))
        zero_diag = SparseMatrix.from_triplets(2, [0, 1], [1, 0], [1.0, 1.0])
        with pytest.raises(ValueError, match="diagonal"):
            cg_solve(zero_diag, np.ones(2))

    @pytest.mark.parametrize("tol", [0.0, -1e-3, 1.0, 2.0, np.nan])
    def test_tolerance_outside_unit_interval_rejected(self, tol):
        # tol >= 1 used to stop at iteration 0 with the zero start reported converged.
        m = SparseMatrix.from_triplets(3, range(3), range(3), [2.0, 2.0, 2.0])
        with pytest.raises(ValueError, match="tol"):
            cg_solve(m, np.ones(3), tol=tol)

    @pytest.mark.parametrize("max_iter", [-3, 0])
    def test_iteration_budget_below_one_rejected(self, max_iter):
        """A budget below one is bad input; it used to raise ConvergenceError."""
        m = SparseMatrix.from_triplets(3, range(3), range(3), [2.0, 2.0, 2.0])
        with pytest.raises(ValueError, match="max_iter must be an integer >= 1"):
            cg_solve(m, np.ones(3), max_iter=max_iter)

    def test_rhs_shape_validated(self):
        m = SparseMatrix.from_triplets(3, range(3), range(3), np.ones(3))
        with pytest.raises(ValueError, match="shape"):
            cg_solve(m, np.ones(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rhs_rejected(self, bad):
        """A non-finite right-hand side is bad input, not a solver failure."""
        m = SparseMatrix.from_triplets(3, range(3), range(3), np.ones(3))
        with pytest.raises(ValueError, match="rhs must be finite"):
            cg_solve(m, np.array([1.0, bad, 0.0]))

    def test_budget_exhaustion_raises_with_best_iterate(self):
        rng = np.random.default_rng(7)
        dense = random_spd(rng, 40)
        m = sparse_from_dense(dense)
        b = rng.normal(size=40)
        with pytest.raises(ConvergenceError) as excinfo:
            cg_solve(m, b, tol=1e-14, max_iter=1)
        report = excinfo.value.report
        assert not report.converged
        assert report.iterations == 1
        assert report.residual > 1e-14
        assert len(report.residual_history) == 2
        assert report.residual_history[-1] == report.residual
        assert report.solution.shape == (40,)
        # the carried iterate is the actual CG step, not garbage
        r = b - dense @ report.solution
        assert float(np.linalg.norm(r) / np.linalg.norm(b)) == pytest.approx(
            report.residual, rel=1e-9
        )

    def test_residual_history_holds_every_iterate(self):
        """The history starts at the zero iterate's relative residual, 1, and
        ends at the report's; its entry k is the residual a solve stopped
        after k iterations reports."""
        mesh = trapezoid_mesh(8)
        matrix, load = assemble(mesh, CoordinateKind.MEAN_VALUE, source=lambda p: 1.0 + p[:, 0])
        system, b = matrix.interior, load[dof_map(mesh).interior_dofs]
        report = cg_solve(system, b)
        history = report.residual_history
        assert history.shape == (report.iterations + 1,)
        assert history[0] == pytest.approx(1.0, rel=1e-15)
        assert history[-1] == report.residual <= 1e-12
        for budget in (1, report.iterations // 2, report.iterations - 1):
            with pytest.raises(ConvergenceError) as excinfo:
                cg_solve(system, b, max_iter=budget)
            stalled = excinfo.value.report.residual_history
            assert np.array_equal(stalled, history[:budget + 1])
        assert np.array_equal(cg_solve(system, np.zeros_like(b)).residual_history, [0.0])

    @pytest.mark.parametrize("build, kind", [
        *((lambda: trapezoid_mesh(8), kind) for kind in CoordinateKind),
        (corpus.mixed_mesh, CoordinateKind.MEAN_VALUE),
        (corpus.voronoi_mesh, CoordinateKind.WACHSPRESS),
    ], ids=[f"trapezoid-{kind.value}" for kind in CoordinateKind] + ["mixed", "voronoi"])
    def test_iterates_match_the_reference_loop_bitwise(self, build, kind):
        """The in-place loop does the reference loop's operations in its
        order: the same solution bits, iteration count and residual, also
        for the iterate a stalled solve carries."""
        mesh = build()
        matrix, load = assemble(mesh, kind, source=lambda p: 1.0 + p[:, 0] * p[:, 1])
        system, b = matrix.interior, load[dof_map(mesh).interior_dofs]
        report = cg_solve(system, b)
        assert report.iterations > 1 and same_as_reference(report, system, b)
        budget = report.iterations // 2
        with pytest.raises(ConvergenceError) as excinfo:
            cg_solve(system, b, max_iter=budget)
        assert same_as_reference(excinfo.value.report, system, b, max_iter=budget)
