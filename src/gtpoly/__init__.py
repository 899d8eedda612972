"""Exact certification of vertices and minimal faces of Gelfand-Tsetlin
polytopes, with lattice-point counting and an independent polyhedral
cross-check.  All arithmetic is exact rational; there is no floating
point anywhere in the package."""

from .combinatorics import (
    EhrhartReport,
    EhrhartSample,
    LatticePoints,
    Tableau,
    count_lattice_points,
    ehrhart_polynomial,
    ehrhart_values,
    enumerate_lattice_points,
    kostka,
    pattern_to_tableau,
    tableau_to_pattern,
)
from .core import (
    GTPattern,
    PolytopeSpec,
    embed,
    embed_spec,
    is_valid,
    membership,
    membership_report,
    parse_rational,
    rational_to_json,
    require_membership,
    row_sums,
    spec_of,
    validate_pattern,
    weight_of,
)
from .errors import (
    GTError,
    InputError,
    MembershipError,
    ScaleGuardError,
    ShapeError,
    TilingDriftError,
    VerificationError,
)
from .faces import (
    ConstructionResult,
    FaceCertificate,
    NonIntegralityCertificate,
    construct_nonintegral_vertex,
    face_basis,
    face_dimension,
    is_vertex,
    nonintegrality_certificate,
    truncate_integral,
)
from .family import (
    FamilyInstance,
    counterexample,
    counterexample_even_n,
    denominator_bound,
)
from .oracle import (
    ConstraintSystem,
    constraint_system,
    enumerate_vertices,
    face_dimension_oracle,
    polytope_dimension,
    sample_points,
)
from .tiling import Tiling, TilingMatrix, compute_tiling, tiling_matrix, tiling_matrix_of

__version__ = "0.1.0"
