"""Vertices are checked once, where they enter.

The public quiver methods and the mesh and center entry points validate
their vertex arguments; everything past them calls the shapes' private
hooks, which validate nothing.  Two contracts make that sound:

* hook soundness: every vertex a hook builds from a valid vertex is
  valid, and every vertex the computations hand to a hook is valid;
* the boundary: each entry point still rejects each kind of bad vertex
  with the same ``InvalidVertexError`` message as before.
"""

import copy
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from meshknit import center, mesh, quiver
from meshknit.errors import InvalidVertexError, MeshknitError, QuiverKindError
from meshknit.linalg import GF, QQ

V = quiver.Vertex
HOOKS = ("_arrows", "_tau", "_sigma_pow", "_distance", "_in_window")


# -- hook soundness, shape by shape --------------------------------------------

TUBES = {n: quiver.build_tube(n) for n in range(3, 8)}
DIHEDRAL = quiver.build_dihedral_family(4)
ZA = quiver.build_za_inf(4)

tube_vertices = st.integers(3, 7).flatmap(
    lambda n: st.tuples(st.just(TUBES[n]), st.integers(1, n - 1).map(lambda i: TUBES[n].vertex(i)))
)
dihedral_vertices = st.tuples(st.integers(-8, 8), st.integers(-4, 4)).map(
    lambda c: (DIHEDRAL, DIHEDRAL.vertex(c[0], c[0] + 2 * c[1]))
)
za_vertices = st.tuples(st.integers(1, 9), st.integers(-8, 8)).map(
    lambda c: (ZA, ZA.vertex(*c))
)
valid_vertices = st.one_of(tube_vertices, dihedral_vertices, za_vertices)


@st.composite
def vertex_pairs(draw):
    """(quiver, u, m): two valid vertices of one quiver."""
    q, u = draw(valid_vertices)
    if isinstance(q, quiver.Tube):
        return q, u, q.vertex(draw(st.integers(1, q.n - 1)))
    if isinstance(q, quiver.DihedralFamily):
        i = draw(st.integers(-8, 8))
        return q, u, q.vertex(i, i + 2 * draw(st.integers(-4, 4)))
    return q, u, q.vertex(draw(st.integers(1, 9)), draw(st.integers(-8, 8)))


def _bfs_distance(q, u, m, limit=48):
    """Shortest directed path u -> m along arrows_out, up to ``limit`` steps."""
    frontier = {u}
    for d in range(limit + 1):
        if m in frontier:
            return d
        frontier = {a.target for x in frontier for a in q.arrows_out(x)}
    return None


@given(valid_vertices, st.integers(-6, 6))
@settings(max_examples=300)
def test_hooks_build_only_valid_vertices(case, k):
    q, v = case
    for _, w in q._arrows(v):
        assert q.validate(w) == w
    assert q.validate(q._tau(v, k)) == q._tau(v, k)
    try:
        shifted = q._sigma_pow(v, k)
    except QuiverKindError:
        assert isinstance(q, quiver.ZAInf) and k % 2
    else:
        assert q.validate(shifted) == shifted
    mesh_v = q._mesh(v)
    for w in (mesh_v.start, *mesh_v.middles):
        assert q.validate(w) == w
    assert q.window(2) == [q.validate(w) for w in q.window(2)]


@given(vertex_pairs(), st.integers(1, 6), st.integers(-6, 6))
@settings(max_examples=300)
def test_hooks_agree_with_the_public_methods(case, radius, r):
    q, u, m = case
    assert q._distance(u, m) == q.distance(u, m) == _bfs_distance(q, u, m)
    assert q._in_window(u, radius) == q.in_window(u, radius) == (u in q.window(radius))
    try:
        shifted = q.sigma_pow(u, r)
    except QuiverKindError as exc:
        with pytest.raises(QuiverKindError, match=re.escape(str(exc))):
            q._sigma_pow(u, r)
    else:
        assert q._sigma_pow(u, r) == shifted
    assert q._tau(u, 1) == q.tau(u) and q._tau(u, -1) == q.tau_inv(u)


# -- hook soundness inside the computations ----------------------------------


def _checked(q):
    """A fresh copy of q whose hooks validate every vertex they take or build.

    The calls per hook are counted in ``hook_calls``.
    """
    twin = copy.copy(q)
    twin._meshes, twin._arrows_out = {}, {}
    twin.hook_calls = Counter()

    def guard(name):
        hook = getattr(type(q), name).__get__(twin)

        def checked(v, *rest):
            for w in (v, *rest):
                if isinstance(w, V):
                    twin.validate(w)
            out = hook(v, *rest)
            built = [t for _, t in out] if name == "_arrows" else [out]
            for w in built:
                if isinstance(w, V):
                    twin.validate(w)
            twin.hook_calls[name] += 1
            return out

        return checked

    for name in HOOKS:
        setattr(twin, name, guard(name))
    return twin


def _outcome(fn, *args, **kwargs):
    try:
        result = fn(*args, **kwargs)
    except MeshknitError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(result, mesh.PathSignReport):
        return result, result.flip_edges
    return result


SIGN_TUBES = {n: quiver.build_tube(n) for n in range(3, 7)}
SIGN_ZA = quiver.build_za_inf(12)
SIGN_DIHEDRAL = quiver.build_dihedral_family(20)


@st.composite
def sign_requests(draw):
    """(quiver, u, m, grade, window) on one of the three shapes, some failing the window."""
    shape = draw(st.sampled_from(["tube", "za-inf", "dihedral"]))
    window = draw(st.integers(1, 10))
    if shape == "tube":
        q = SIGN_TUBES[draw(st.integers(3, 6))]
        u, m = (q.vertex(draw(st.integers(1, q.n - 1))) for _ in range(2))
        return q, u, m, draw(st.integers(0, 7)), window
    if shape == "za-inf":
        u = SIGN_ZA.vertex(draw(st.integers(1, 4)), draw(st.integers(-1, 4)))
        return SIGN_ZA, u, SIGN_ZA.vertex(draw(st.integers(1, 4)), 0), None, window
    c, a, b = draw(st.integers(-1, 1)), draw(st.integers(-1, 5)), draw(st.integers(-1, 5))
    q = SIGN_DIHEDRAL
    return q, q.vertex(c + 2 * a, c + 2 * b), q.vertex(c, c), None, window


@given(sign_requests(), st.sampled_from([QQ, GF(2), GF(3), GF(101)]), st.integers(0, 12))
@settings(max_examples=200, deadline=None)
def test_computations_hand_the_hooks_only_valid_vertices(case, field, k_max):
    q, u, m, grade, window = case
    twin = _checked(q)
    for fn, args, kwargs in (
        (mesh.path_sign_check, (u, m, window), {"grade": grade, "field": field}),
        (mesh.hom_dim_mesh, (u, m, window), {"grade": grade, "field": field}),
        (mesh.knit_layers, (m, k_max, window), {}),
    ):
        assert _outcome(fn, twin, *args, **kwargs) == _outcome(fn, q, *args, **kwargs)
    assert twin.hook_calls["_in_window"]


def _center_elements(qs):
    """(quiver, element, window) triples on the quivers of ``qs``."""
    d, t, z = qs
    return [
        (d, center.mu_element(d, 1), 2),
        (d, center.mu_element(d, 2), 3),
        (d, center.single_orbit_element(d, d.vertex(0, 0), 1), 2),
        (t, center.single_orbit_element(t, t.vertex(1), 1), 1),
        (z, center.sum_elements([], quiver=z), 2),
    ]


def test_center_hands_the_hooks_only_valid_vertices():
    plain = (quiver.build_dihedral_family(6), quiver.build_tube(4), quiver.build_za_inf(4))
    twins = tuple(_checked(q) for q in plain)
    for (q, e, window), (twin, twin_e, _) in zip(_center_elements(plain), _center_elements(twins)):
        assert center.check_propagation(twin, twin_e, window) == center.check_propagation(
            q, e, window
        )
    assert center.a_inf_obstruction(twins[2], 1, 3) == center.a_inf_obstruction(plain[2], 1, 3)
    for twin in twins:
        assert {"_tau", "_arrows"} <= set(twin.hook_calls)
    assert twins[0].hook_calls["_in_window"] and twins[2].hook_calls["_in_window"]


# -- the boundary: each entry point rejects each bad vertex as before --------

BAD = [
    # (shape, bad vertex, the message every entry point raises)
    ("tube", V(quiver.DIHEDRAL_EVEN, (0, 0)), "not a tube vertex: 0,0"),
    ("tube", V(quiver.TUBE, (5,)), "tube index out of range: J5 (valid: J1..J4)"),
    ("tube", V(quiver.TUBE, (0,)), "tube index out of range: J0 (valid: J1..J4)"),
    ("dihedral", V(quiver.TUBE, (1,)), "not a dihedral-family vertex: J1"),
    ("dihedral", V(quiver.DIHEDRAL_EVEN, (0, 1)), "coordinate parity violation: 0,1"),
    ("dihedral", V(quiver.DIHEDRAL_ODD, (0, 0)), "component tag does not match parity: 0,0"),
    ("za-inf", V(quiver.DIHEDRAL_EVEN, (1, 1)), "not a ZA-infinity vertex: 1,1"),
    ("za-inf", V(quiver.ZA_INF, (0, 3)), "level must be >= 1: 0,3"),
]


def _boundary_quivers():
    tube, dihedral, za = quiver.build_tube(5), quiver.build_dihedral_family(4), quiver.build_za_inf(4)
    return {
        "tube": (tube, tube.vertex(2)),
        "dihedral": (dihedral, dihedral.vertex(0, 0)),
        "za-inf": (za, za.vertex(2, 0)),
    }


# Entry points, as (name, shapes it applies to or None for all, call(q, bad, good)).
ENTRY_POINTS = [
    ("tau", None, lambda q, v, g: q.tau(v)),
    ("tau_inv", None, lambda q, v, g: q.tau_inv(v)),
    ("sigma", ("tube", "dihedral"), lambda q, v, g: q.sigma(v)),
    ("sigma_pow", None, lambda q, v, g: q.sigma_pow(v, 2)),
    ("serre", None, lambda q, v, g: q.serre(v)),
    ("in_window", None, lambda q, v, g: q.in_window(v, 3)),
    ("distance from", None, lambda q, v, g: q.distance(v, g)),
    ("distance to", None, lambda q, v, g: q.distance(g, v)),
    ("mesh", None, lambda q, v, g: q.mesh(v)),
    ("arrows_out", None, lambda q, v, g: q.arrows_out(v)),
    ("arrows_in", None, lambda q, v, g: q.arrows_in(v)),
    ("arrow_between", None, lambda q, v, g: q.arrow_between(v, g)),
    ("path_sign_check from", None, lambda q, v, g: mesh.path_sign_check(q, v, g, 4, grade=2)),
    ("path_sign_check to", None, lambda q, v, g: mesh.path_sign_check(q, g, v, 4)),
    ("path_sign_check GF(2)", None,
     lambda q, v, g: mesh.path_sign_check(q, g, v, 4, grade=2, field=GF(2))),
    ("hom_dim_mesh from", None, lambda q, v, g: mesh.hom_dim_mesh(q, v, g, 4, grade=2)),
    ("hom_dim_mesh to", None, lambda q, v, g: mesh.hom_dim_mesh(q, g, v, 4)),
    ("knit_layers", None, lambda q, v, g: mesh.knit_layers(q, v, 3, 4)),
    ("diamond_cokernel", ("dihedral",), lambda q, v, g: mesh.diamond_cokernel(q, v, 1, 4)),
    ("rim_obstruction_check", ("za-inf",), lambda q, v, g: mesh.rim_obstruction_check(q, v, 4)),
    ("single_orbit_element", None, lambda q, v, g: center.single_orbit_element(q, v, 1)),
    ("image_table", ("dihedral",), lambda q, v, g: center.mu_element(q, 1).image_table(v)),
    ("supports", ("dihedral",), lambda q, v, g: center.mu_element(q, 1).supports(v)),
    ("factor_distance_ok", ("dihedral",),
     lambda q, v, g: center.factor_distance_ok(center.mu_element(q, 1), v)),
    ("cross_component_vanishing source", ("dihedral",),
     lambda q, v, g: center.cross_component_vanishing(center.mu_element(q, 1), v, q.vertex(1, 1))),
    ("cross_component_vanishing target", ("dihedral",),
     lambda q, v, g: center.cross_component_vanishing(center.mu_element(q, 1), q.vertex(1, 1), v)),
]


BOUNDARY_CASES = [
    (shape, bad, message, name, call)
    for shape, bad, message in BAD
    for name, shapes, call in ENTRY_POINTS
    if shapes is None or shape in shapes
]


@pytest.mark.parametrize(
    "shape, bad, message, name, call",
    BOUNDARY_CASES,
    ids=[f"{shape}:{bad}:{name}" for shape, bad, _, name, _ in BOUNDARY_CASES],
)
def test_every_entry_point_rejects_the_bad_vertex(shape, bad, message, name, call):
    q, good = _boundary_quivers()[shape]
    with pytest.raises(InvalidVertexError) as err:
        q.validate(bad)
    assert str(err.value) == message
    with pytest.raises(InvalidVertexError) as err:
        call(q, bad, good)
    assert str(err.value) == message
    assert bad not in q._meshes and bad not in q._arrows_out


def test_za_sigma_refuses_before_it_validates():
    # The odd shift leaves the component, whatever the vertex: the refusal
    # comes first, as it always has.
    q = quiver.build_za_inf(4)
    for v in (q.vertex(1, 0), V(quiver.ZA_INF, (0, 3))):
        with pytest.raises(QuiverKindError, match="odd shift power leaves"):
            q.sigma(v)
