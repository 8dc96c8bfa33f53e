"""The names ``import meshknit`` exports, and the private code the package calls."""

import ast
from collections import Counter
from pathlib import Path

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
    "simple_fp_suite", "single_object_support_solver",
    "single_orbit_element", "socle_of_representable", "socle_suite", "stable_basis",
    "stable_class_lines", "stable_hom_dim", "sum_elements", "support_report",
)


def test_all_is_the_recorded_surface():
    assert tuple(meshknit.__all__) == EXPORTS


def test_every_exported_name_resolves():
    for name in meshknit.__all__:
        assert getattr(meshknit, name) is not None, name


def _names(node) -> Counter:
    """Every name and attribute name read or written under node."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def test_every_private_function_is_referenced_in_the_package():
    trees = [ast.parse(path.read_text()) for path in sorted(Path(meshknit.__file__).parent.glob("*.py"))]
    # module-level functions and methods
    defined = [node for tree in trees for top in tree.body
               for node in (top.body if isinstance(top, ast.ClassDef) else [top])]
    private = [
        node for node in defined
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_") and not node.name.endswith("__")
    ]
    everywhere = sum(map(_names, trees), Counter())
    # a name read only inside its own definition (a recursion) counts as unreferenced
    unreferenced = [node.name for node in private if everywhere[node.name] == _names(node)[node.name]]
    assert private and not unreferenced, unreferenced
