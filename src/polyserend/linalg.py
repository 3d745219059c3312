"""Minimal sparse symmetric-positive-definite linear algebra.

Storage uses compressed sparse rows, built by scipy's COO-to-CSR conversion
(which also sums duplicate triplets from element assembly) straight from the
caller's triplet arrays: int32 indices and float64 values pass through
without a copy.  The arrays of a matrix are read-only, so neither the scipy
view built on first use nor any system a caller derives from the matrix and
keeps can go stale.  A principal submatrix is scipy's own fancy indexing.
The solver is a hand-rolled conjugate gradient method with Jacobi
(diagonal) preconditioning.  The stiffness systems this package produces are
conditioned like h^-2 in the mesh size h, so on an n x n trapezoid mesh it
takes about 10-12 n iterations to a relative residual of 1e-12.

The loop allocates its work vectors once per solve and updates them in
place, and it forms A p with one call per iteration of ``csr_matvec``, the
compiled kernel that scipy's ``csr @ p`` ends in, on the matrix's own
arrays.  It does the floating-point operations of the textbook loop (a fresh
vector per update, ``csr @ p`` per product) in their order, so its iterates
are bitwise that loop's.  The kernel is private to scipy
(``scipy.sparse._sparsetools``); it is called directly because scipy's
``@`` wraps it in a dispatch and a fresh result vector that cost about a
tenth of the kernel on each iteration.  ``test_kernel_call_is_scipy_matvec_bitwise``
in ``tests/test_linalg.py`` checks the call against ``csr @ x`` for int32
and int64 indices, so a scipy release that moves or changes the kernel
fails there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec

from .geometry import _as_array

__all__ = [
    "SparseMatrix",
    "SolveReport",
    "ConvergenceError",
    "cg_solve",
]


class ConvergenceError(RuntimeError):
    """Iterative solve failed to reach the requested tolerance."""

    def __init__(self, message: str, report: "SolveReport"):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True, eq=False)
class SparseMatrix:
    """Square CSR matrix (data / column indices / row pointers), read-only.

    The scipy view of the arrays is built on first use and kept.
    """

    dim: int
    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray

    def __post_init__(self) -> None:
        for array in (self.data, self.indices, self.indptr):
            array.setflags(write=False)

    @classmethod
    def from_triplets(
        cls,
        dim: int,
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
    ) -> "SparseMatrix":
        """Build from COO triplets, summing duplicates.

        ``dim`` must be an integer >= 0, ``rows`` and ``cols`` must hold
        integers and ``values`` finite numbers; anything else raises
        ValueError.  Arrays of int32 indices and float64 values are converted
        without a copy.
        """
        if _as_array(dim, ValueError, "dim must be an integer, got {entry!r}",
                     integer=True).ndim or dim < 0:
            raise ValueError(f"dim must be an integer >= 0, got {dim}")
        rows = _as_array(rows, ValueError, "rows must be integers, got {entry!r}", integer=True)
        cols = _as_array(cols, ValueError, "cols must be integers, got {entry!r}", integer=True)
        values = _as_array(values, ValueError, "values must be numbers, got {entry!r}")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        m = sp.coo_matrix((values, (rows, cols)), shape=(dim, dim)).tocsr()
        return cls(dim=dim, data=m.data, indices=m.indices, indptr=m.indptr)

    @cached_property
    def _csr(self) -> sp.csr_matrix:
        return sp.csr_matrix((self.data, self.indices, self.indptr), shape=(self.dim, self.dim))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self._csr @ _as_array(x, ValueError, "x must be an array of numbers, got {entry!r}")

    def diagonal(self) -> np.ndarray:
        return self._csr.diagonal()

    def toarray(self) -> np.ndarray:
        return self._csr.toarray()

    def submatrix(self, keep: np.ndarray) -> "SparseMatrix":
        """Principal submatrix on the indices ``keep``: scipy's ``A[np.ix_(keep, keep)]``.

        ``keep`` must be a 1-D array of integers in [0, dim); anything else
        raises ValueError, since scipy would count a negative index from the end.
        """
        keep = _as_array(keep, ValueError, "keep must be integers, got {entry!r}", integer=True)
        if keep.ndim != 1 or keep.size and (keep.min() < 0 or keep.max() >= self.dim):
            raise ValueError(f"keep must be a 1-D array of indices in [0, {self.dim})")
        sub = self._csr[np.ix_(keep, keep)]
        return SparseMatrix(dim=len(keep), data=sub.data, indices=sub.indices, indptr=sub.indptr)


@dataclass(frozen=True)
class SolveReport:
    solution: np.ndarray
    iterations: int
    residual: float
    converged: bool


def cg_solve(
    matrix: SparseMatrix,
    rhs: np.ndarray,
    tol: float = 1e-12,
    max_iter: int | None = None,
) -> SolveReport:
    """Jacobi-preconditioned conjugate gradients for SPD systems, from x = 0.

    Stops when ||b - A x|| <= tol * ||b||, for 0 < tol < 1 (a tolerance of 1
    or more would accept the zero start as converged); raises
    ConvergenceError (carrying the best iterate in its ``report``) if the
    iteration budget, ``max_iter`` >= 1 iterations (10 n if None), is
    exhausted.  A non-finite right-hand side raises ValueError: it is bad
    input, not a solver failure.
    """
    if _as_array(tol, ValueError, "tol must be a number, got {entry!r}").ndim or not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    b = _as_array(rhs, ValueError, "rhs must be an array of numbers, got {entry!r}")
    n = matrix.dim
    if b.shape != (n,):
        raise ValueError(f"rhs has shape {b.shape}, expected ({n},)")
    if not np.all(np.isfinite(b)):
        raise ValueError("rhs must be finite")
    if max_iter is None:
        max_iter = 10 * n
    elif _as_array(max_iter, ValueError, "max_iter must be an integer, got {entry!r}",
                   integer=True).ndim or max_iter < 1:
        raise ValueError(f"max_iter must be an integer >= 1, got {max_iter}")
    diag = matrix.diagonal()
    if np.any(diag <= 0.0):
        raise ValueError("matrix has non-positive diagonal entries; not SPD")
    inv_diag = 1.0 / diag
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return SolveReport(solution=np.zeros(n), iterations=0, residual=0.0, converged=True)
    x, Ap, scaled = np.zeros(n), np.empty(n), np.empty(n)
    r = b.copy()
    z = inv_diag * r
    p = z.copy()
    rz = float(r @ z)
    res = math.sqrt(r @ r)
    it = 0
    while res > tol * b_norm and it < max_iter:
        Ap.fill(0.0)                                        # csr_matvec adds A p to Ap
        csr_matvec(n, n, matrix.indptr, matrix.indices, matrix.data, p, Ap)
        alpha = rz / float(p @ Ap)
        x += np.multiply(p, alpha, out=scaled)
        r -= np.multiply(Ap, alpha, out=scaled)
        np.multiply(inv_diag, r, out=z)
        rz_new = float(r @ z)
        p *= rz_new / rz
        p += z
        rz = rz_new
        res = math.sqrt(r @ r)
        it += 1
    converged = res <= tol * b_norm
    report = SolveReport(solution=x, iterations=it, residual=res / b_norm, converged=converged)
    if not converged:
        raise ConvergenceError(
            f"conjugate gradients stalled at relative residual {res / b_norm:.3e} "
            f"after {it} iterations",
            report,
        )
    return report
