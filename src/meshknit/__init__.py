"""meshknit: exact mesh-category calculations with a matrix-model oracle.

The package computes radical layer tables (knitting), graded Hom spaces
and diamond cokernels in mesh categories of stable translation quivers,
models graded-center elements and their support propagation, and checks
everything on the tube against a brute-force matrix model of the stable
module category of k[t]/(t^n).
"""

from .errors import (
    DegreeError,
    DimensionError,
    FieldMismatchError,
    InternalCheckError,
    InvalidVertexError,
    MeshknitError,
    MixedPathLengthError,
    PreconditionError,
    QuiverKindError,
    UnsupportedParameterError,
    WindowError,
)
from .linalg import GF, GF5, QQ, Field, Matrix
from .quiver import (
    Arrow,
    DihedralFamily,
    Mesh,
    TranslationQuiver,
    Tube,
    Vertex,
    ZAInf,
    build_dihedral_family,
    build_tube,
    build_za_inf,
)
from .mesh import (
    HomSpace,
    LayerTable,
    PathSignReport,
    diamond_cokernel,
    hom_dim_mesh,
    knit_layers,
    path_sign_check,
    rim_obstruction_check,
)
from .jordan import (
    ARSequence,
    AlmostVanishingReport,
    CheckReport,
    JordanModule,
    SocleReport,
    SolverReport,
    StableMap,
    almost_vanishing_agreement_suite,
    almost_vanishing_class,
    ar_sequence,
    compose,
    composition_factors_equivalence_check,
    hom_basis,
    image_comp_factors,
    indec,
    is_almost_vanishing,
    mono_representable_split_check,
    omega,
    omega_map,
    radical_layers_bruteforce,
    serre_duality_check,
    simple_fp_check,
    simple_fp_suite,
    single_object_support_solver,
    socle_of_representable,
    socle_suite,
    stable_basis,
    stable_class_lines,
    stable_hom_dim,
)
from .center import (
    DiamondElement,
    GradedCenterElement,
    ObstructionReport,
    PropagationReport,
    SingleOrbitElement,
    SumElement,
    SupportReport,
    a_inf_obstruction,
    check_propagation,
    cross_component_vanishing,
    factor_distance_ok,
    mu_element,
    naturality_on_arrow,
    single_orbit_element,
    sum_elements,
    support_report,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
