"""The one input rule: an array, index or count a caller passes in is numbers,
or it raises the typed error of the module that takes it.

Every call below used to succeed: numpy parsed the numeric strings and read
the booleans as 0 and 1, so each gave the result of the numbers they spell.
The scalar counts, sizes and parameters of the ``SCALARS`` table used to
succeed too, or to end in a bare TypeError from Python's own arithmetic.
"""

from __future__ import annotations

import numpy as np
import pytest

from polyserend import (
    GeometryError,
    MeshError,
    Polygon,
    SerendipityError,
    SparseMatrix,
    assemble,
    bound_from_margin,
    build_map,
    cg_solve,
    check_conditions,
    dof_map,
    error_norms,
    eval_boundary,
    eval_coords_batch,
    harmonic_gradient,
    integrate,
    polygon_rule,
    precision_residuals,
    sample_interior,
    solve_dirichlet,
    trapezoid_mesh,
    verify_constraints,
)
from polyserend.barycentric import pair_order
from polyserend.fem import DiscreteSolution
from polyserend.geometry import _as_array
from polyserend.linalg import SolveReport
from polyserend.quadrature import triangle_rule
from polyserend.serendipity import build_A, build_B

SQUARE = Polygon([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
STRING_CENTRE = [["0.5", "0.5"]]


def strings(points):
    return np.array(["1"] * len(points))


def bools(points):
    return np.ones(len(points), dtype=bool)


def diagonal():
    return SparseMatrix.from_triplets(2, [0, 1], [0, 1], [1.0, 2.0])


def solve_with_rhs(rhs):
    mesh = trapezoid_mesh(2)
    matrix, _ = assemble(mesh, "meanvalue")
    return solve_dirichlet(matrix, rhs, mesh, dof_map(mesh), "meanvalue", lambda p: np.zeros(len(p)))


def norms_against(u_exact):
    mesh = trapezoid_mesh(2)
    values = np.zeros(dof_map(mesh).n_dofs)
    solution = DiscreteSolution(mesh, "meanvalue", values, SolveReport(values, 0, 0.0, True))
    return error_norms(solution, u_exact, harmonic_gradient)


CALLS = {
    "eval_boundary-string-t": (lambda: eval_boundary(SQUARE, 1, "0.5"),
                               GeometryError, "edge parameters must be numbers, got '0.5'"),
    "eval_boundary-bool-t": (lambda: eval_boundary(SQUARE, 1, True),
                             GeometryError, "edge parameters must be numbers, got True"),
    "eval_coords_batch-strings": (lambda: eval_coords_batch(SQUARE, "meanvalue", STRING_CENTRE),
                                  GeometryError, "points must be an array of numbers"),
    "edge_distances-strings": (lambda: SQUARE.edge_distances(STRING_CENTRE),
                               GeometryError, "points must be an array of numbers"),
    "build_A-strings": (lambda: build_A([[["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]]]),
                        SerendipityError, "vertices must be an array of numbers, got '0'"),
    "precision_residuals-strings": (lambda: precision_residuals(SQUARE, np.zeros((1, 8)), STRING_CENTRE),
                                    SerendipityError, "points must be an array of numbers"),
    "cg_solve-strings": (lambda: cg_solve(diagonal(), ["1", "2"]),
                         ValueError, "rhs must be an array of numbers, got '1'"),
    "matvec-strings": (lambda: diagonal().matvec(["1", "2"]),
                       ValueError, "x must be an array of numbers, got '1'"),
    "assemble-bool-source": (lambda: assemble(trapezoid_mesh(2), "meanvalue", source=bools),
                             ValueError, "source must return numbers, got True"),
    "assemble-string-source": (lambda: assemble(trapezoid_mesh(2), "meanvalue", source=strings),
                               ValueError, "source must return numbers, got '1'"),
    "error_norms-string-exact": (lambda: norms_against(strings),
                                 ValueError, "u_exact must return numbers, got '1'"),
    "integrate-strings": (lambda: integrate(polygon_rule(SQUARE, 4), strings),
                          GeometryError, "f must return numbers, got '1'"),
    "sample_interior-bool-count": (lambda: sample_interior(SQUARE, True, np.random.default_rng(0)),
                                   GeometryError, "sample count must be an integer, got True"),
    "solve_dirichlet-bool-rhs": (lambda: solve_with_rhs(np.ones(21, dtype=bool)),
                                 ValueError, "rhs must be an array of numbers, got True"),
    "DiscreteSolution-strings": (lambda: DiscreteSolution(trapezoid_mesh(2), "meanvalue", ["0"] * 21, None),
                                 ValueError, "values must be numbers, got '0'"),
}


SCALARS = {
    "from_triplets-bool-dim": (lambda: SparseMatrix.from_triplets(True, [0], [0], [1.0]),
                               ValueError, "dim must be an integer, got True"),
    "cg_solve-float-max_iter": (lambda: cg_solve(diagonal(), [1.0, 2.0], max_iter=1.5),
                                ValueError, "max_iter must be an integer, got 1.5"),
    "cg_solve-bool-max_iter": (lambda: cg_solve(diagonal(), [1.0, 2.0], max_iter=True),
                               ValueError, "max_iter must be an integer, got True"),
    "cg_solve-string-tol": (lambda: cg_solve(diagonal(), [1.0, 2.0], tol="1e-3"),
                            ValueError, "tol must be a number, got '1e-3'"),
    "pair_order-float": (lambda: pair_order(3.0),
                         GeometryError, "pair ordering requires an integer n, got 3.0"),
    "build_B-float": (lambda: build_B(4.0),
                      SerendipityError, "nodal transform requires an integer n, got 4.0"),
    "build_B-string": (lambda: build_B("4"),
                       SerendipityError, "nodal transform requires an integer n, got '4'"),
    "triangle_rule-array": (lambda: triangle_rule(np.array([3])),
                            GeometryError, r"quadrature degree must be in \[1, \d+\], got \[3\]"),
    "trapezoid_mesh-string-offset": (lambda: trapezoid_mesh(4, "0.1"),
                                     MeshError, "offset must be a number, got '0.1'"),
    "trapezoid_mesh-bool-offset": (lambda: trapezoid_mesh(4, False),
                                   MeshError, "offset must be a number, got False"),
    "trapezoid_mesh-array-offset": (lambda: trapezoid_mesh(4, np.array([0.1])),
                                    MeshError, r"offset must lie in \[0, 0.5\), got \[0.1\]"),
    "check_conditions-string-gamma": (lambda: check_conditions(SQUARE, "3", 0.1, 2.5),
                                      GeometryError, "gamma_star must be a number, got '3'"),
    "check_conditions-bool-d_star": (lambda: check_conditions(SQUARE, 3.0, True, 2.5),
                                     GeometryError, "d_star must be a number, got True"),
    "check_conditions-array-beta": (lambda: check_conditions(SQUARE, 3.0, 0.1, np.array([2.5])),
                                    GeometryError, r"beta_star must be a single number, got array"),
    "bound_from_margin-string": (lambda: bound_from_margin("0.1"),
                                 SerendipityError, "margin must be a number, got '0.1'"),
    "bound_from_margin-bool": (lambda: bound_from_margin(True),
                               SerendipityError, "margin must be a number, got True"),
    "sample_interior-string-margin": (lambda: sample_interior(SQUARE, 3, np.random.default_rng(0),
                                                              margin="0.1"),
                                      GeometryError, "margin must be a number, got '0.1'"),
    "sample_interior-nan-margin": (lambda: sample_interior(SQUARE, 3, np.random.default_rng(0),
                                                           margin=float("nan")),
                                   GeometryError, "margin must be one finite number, got nan"),
    "verify_constraints-string-tol": (lambda: verify_constraints(SQUARE, build_map(SQUARE), tol="1e-9"),
                                      SerendipityError, "tol must be a number, got '1e-9'"),
    "verify_constraints-negative-tol": (lambda: verify_constraints(SQUARE, build_map(SQUARE), tol=-1.0),
                                        SerendipityError, "tol must be finite and positive, got -1.0"),
}


@pytest.mark.parametrize("call, error, message", [*CALLS.values(), *SCALARS.values()],
                         ids=[*CALLS, *SCALARS])
def test_input_that_is_not_numbers_rejected(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_float64_and_integer_arrays_pass_uncopied():
    """Valid array input costs the rule no copy: int32 triplets reach scipy
    as they are, and so does every float64 vector conjugate gradients makes."""
    for array, integer in [(np.zeros(3), False), (np.zeros(3, np.int32), True),
                           (np.zeros((2, 2), np.uint16), True)]:
        assert _as_array(array, ValueError, "", integer=integer) is array
    ints = np.arange(3)
    assert _as_array(ints, ValueError, "").dtype == np.float64
    assert np.array_equal(_as_array(ints, ValueError, ""), [0.0, 1.0, 2.0])
    assert _as_array([[0, 1]], ValueError, "", integer=True).dtype == np.int64
    assert _as_array([], ValueError, "", integer=True).dtype == np.int64
