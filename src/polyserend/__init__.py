"""Quadratic serendipity finite elements on convex polygons.

Pipeline: generalized barycentric coordinates (``barycentric``) are squared
into pairwise products, reduced to 2n boundary-associated functions by a
sparse constrained combination (``serendipity``), and used as a conforming
quadratic element on polygonal meshes (``fem``), with supporting geometry,
quadrature and sparse linear algebra modules.

The package exports every name in those six modules' ``__all__``, and
nothing else: each module's ``__all__`` is the one list of its public names.
"""

from . import barycentric, fem, geometry, linalg, quadrature, serendipity
from .barycentric import *
from .geometry import *
from .fem import *
from .linalg import *
from .quadrature import *
from .serendipity import *

__all__ = [*barycentric.__all__, *geometry.__all__, *fem.__all__,
           *linalg.__all__, *quadrature.__all__, *serendipity.__all__]

__version__ = "0.1.0"
