"""The names ``import meshknit`` exports."""

import meshknit

EXPORTS = (
    "ARSequence", "AlmostVanishingReport", "Arrow", "CheckReport", "DegreeError",
    "DiamondElement", "DihedralFamily", "DimensionError", "Field", "FieldMismatchError",
    "GF", "GF5", "GradedCenterElement", "HomSpace", "InternalCheckError",
    "InvalidVertexError", "JordanModule", "LayerTable", "Matrix", "Mesh", "MeshknitError",
    "MixedPathLengthError", "ObstructionReport", "PathSignReport", "PreconditionError",
    "PropagationReport", "QQ", "QuiverKindError", "SingleOrbitElement", "SocleReport",
    "SolverReport", "StableMap", "SumElement", "SupportReport",
    "TranslationQuiver", "Tube", "UnsupportedParameterError", "Vertex", "WindowError",
    "ZAInf", "a_inf_obstruction", "almost_vanishing_agreement_suite",
    "almost_vanishing_class", "ar_sequence", "build_dihedral_family", "build_tube",
    "build_za_inf", "center", "check_propagation", "compose",
    "composition_factors_equivalence_check", "cross_component_vanishing",
    "diamond_cokernel", "errors", "factor_distance_ok", "hom_basis", "hom_dim_mesh",
    "image_comp_factors", "indec", "is_almost_vanishing", "jordan", "knit_layers",
    "linalg", "mesh", "mono_representable_split_check", "mu_element",
    "naturality_on_arrow", "omega", "omega_map", "path_sign_check", "quiver",
    "radical_layers_bruteforce", "rim_obstruction_check", "serre_duality_check",
    "simple_fp_check", "simple_fp_suite", "single_object_support_solver",
    "single_orbit_element", "socle_of_representable", "socle_suite", "stable_basis",
    "stable_class_lines", "stable_hom_dim", "sum_elements", "support_report",
)


def test_all_is_the_recorded_surface():
    assert tuple(meshknit.__all__) == EXPORTS


def test_every_exported_name_resolves():
    for name in meshknit.__all__:
        assert getattr(meshknit, name) is not None, name
