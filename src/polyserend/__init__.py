"""Quadratic serendipity finite elements on convex polygons.

Pipeline: generalized barycentric coordinates (``barycentric``) are squared
into pairwise products, reduced to 2n boundary-associated functions by a
sparse constrained combination (``serendipity``), and used as a conforming
quadratic element on polygonal meshes (``fem``), with supporting geometry,
quadrature and sparse linear algebra modules.
"""

from .barycentric import (
    DEFAULT_BOUNDARY_EPS,
    BoundaryEvaluationError,
    CoordinateKind,
    eval_boundary,
    eval_coords_batch,
    fan_apex,
    pair_order,
    pairwise_batch,
)
from .geometry import (
    DiagonalFrame,
    GeometryError,
    InvalidPolygonError,
    Polygon,
    ShapeConditions,
    ShapeMetrics,
    check_conditions,
    diagonal_frame,
    interior_angles,
    load_polygon,
    polygon_from_json,
    polygon_to_json,
    sample_interior,
    save_polygon,
    shape_metrics,
)
from .fem import (
    ConvergenceRow,
    DiscreteSolution,
    DofMap,
    ErrorNorms,
    MeshError,
    PolyMesh,
    assemble,
    cell_maps,
    convergence_study,
    dof_map,
    error_norms,
    harmonic_exact,
    harmonic_gradient,
    load_mesh,
    mesh_from_json,
    mesh_to_json,
    node_coordinates,
    save_mesh,
    solve_dirichlet,
    trapezoid_mesh,
)
from .linalg import ConvergenceError, SolveReport, SparseMatrix, cg_solve
from .quadrature import (
    MAX_DEGREE,
    QuadratureRule,
    fan_rule,
    integrate,
    polygon_rule,
    triangle_rule,
)
from .serendipity import (
    CoefficientBlowupError,
    ConstraintReport,
    DiagonalCoefficients,
    SerendipityError,
    SerendipityMap,
    Strategy,
    basis_nodes,
    bound_from_margin,
    boundary_basis_values,
    build_A_generic,
    build_A_quadrilateral,
    build_A_regular,
    build_A_unit_square,
    build_B,
    build_map,
    coefficient_bound,
    eval_basis_batch,
    generic_diagonal_coefficients,
    lagrange_table,
    precision_residuals,
    quadrilateral_diagonal_coefficients,
    verify_constraints,
)

__version__ = "0.1.0"
