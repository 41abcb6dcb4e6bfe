"""
lensq: exact quad-coordinate normal surface computations in the natural
p-tetrahedron triangulations of (p,q)-lens spaces.

The package builds the triangulation combinatorics, assembles the quad
and full matching systems, enumerates fundamental (Hilbert basis) and
vertex solutions over the non-negative integers, reconstructs normal
surfaces from quad coordinates, and classifies them topologically.  All
core arithmetic is exact (integers and fractions); floats never enter.
"""

__version__ = "0.1.0"

from .catalog import (
    ExpectedCatalog,
    Fixture,
    alternating_vector,
    axis_torus_vector,
    enumerate_q_fundamental,
    expected_for,
    fixtures,
    verify_fixture,
    verify_theorems,
)
from .cone import (
    Budget,
    SolutionCone,
    hilbert_basis,
    is_fundamental,
    is_vertex,
)
from .errors import (
    ArityMismatch,
    BudgetExceeded,
    DimensionMismatch,
    EmptyVector,
    InconsistentPropagation,
    InconsistentWeights,
    IntegralityViolated,
    InternalInvariantError,
    InvalidParams,
    LensQError,
    NegativeEntry,
    NoExpectation,
    NotASolution,
    SingularSystem,
    SquareConditionViolated,
)
from .qsystem import (
    BasisCoefficients,
    QMatrix,
    basis_vectors,
    decompose,
    expand,
    integrality_class,
    is_q_solution,
    q_matrix,
    square_condition,
    square_fundamental_solutions,
)
from .surface import (
    DiskGraph,
    FullCoordinates,
    SurfaceReport,
    classify,
    edge_weights,
    euler_characteristic,
    glue_disks,
    haken_matrix,
    reconstruct_trigons,
    surface_name,
)
from .triangulation import (
    LensParams,
    LensTriangulation,
    build_triangulation,
)
