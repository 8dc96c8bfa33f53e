"""Shape bookkeeping for the three translation-quiver families."""

import pytest
from hypothesis import given, settings, strategies as st

from meshknit import center, mesh, quiver
from meshknit.errors import (
    InvalidVertexError,
    QuiverKindError,
    UnsupportedParameterError,
)


# -- tube -----------------------------------------------------------------


def test_tube_window_lists_all_vertices():
    q = quiver.build_tube(4)
    names = [str(v) for v in q.window(1)]
    assert names == ["J1", "J2", "J3"]


def test_tube_requires_n_at_least_three():
    with pytest.raises(UnsupportedParameterError):
        quiver.build_tube(2)


def test_tube_vertex_range_is_checked():
    q = quiver.build_tube(4)
    with pytest.raises(InvalidVertexError):
        q.vertex(0)
    with pytest.raises(InvalidVertexError):
        q.vertex(4)


def test_tube_translation_is_identity():
    q = quiver.build_tube(5)
    for v in q.window(1):
        assert q.tau(v) == v
        assert q.tau_inv(v) == v


def test_tube_shift_swaps_ends():
    q = quiver.build_tube(4)
    assert q.sigma(q.vertex(1)) == q.vertex(3)
    assert q.sigma(q.vertex(2)) == q.vertex(2)
    for v in q.window(1):
        assert q.sigma(q.sigma(v)) == v
        assert q.sigma_pow(v, 2) == v
        assert q.sigma_pow(v, -3) == q.sigma(v)


def test_tube_meshes():
    q = quiver.build_tube(4)
    inner = q.mesh(q.vertex(2))
    assert inner.start == q.vertex(2)
    assert inner.end == q.vertex(2)
    assert set(inner.middles) == {q.vertex(1), q.vertex(3)}
    edge = q.mesh(q.vertex(1))
    assert edge.middles == (q.vertex(2),)


def test_tube_grade_is_not_forced():
    # J2 -> J1 -> J2 and the trivial path share endpoints but not length.
    assert quiver.build_tube(4).grade_forced is False


# -- dihedral family ------------------------------------------------------


def test_dihedral_vertex_parity():
    q = quiver.build_dihedral_family(4)
    even = q.vertex(0, 2)
    odd = q.vertex(1, -1)
    assert even.component == quiver.DIHEDRAL_EVEN
    assert odd.component == quiver.DIHEDRAL_ODD
    with pytest.raises(InvalidVertexError):
        q.vertex(0, 1)


def test_dihedral_component_tag_must_match_parity():
    q = quiver.build_dihedral_family(4)
    forged = quiver.Vertex(quiver.DIHEDRAL_ODD, (0, 0))
    with pytest.raises(InvalidVertexError):
        q.validate(forged)


def test_dihedral_translation_and_shift():
    q = quiver.build_dihedral_family(4)
    v = q.vertex(0, 0)
    assert q.tau(v) == q.vertex(2, 2)
    assert q.tau_inv(v) == q.vertex(-2, -2)
    assert q.sigma(v) == q.vertex(-1, -1)
    assert q.sigma(v).component == quiver.DIHEDRAL_ODD
    assert q.sigma_pow(v, -2) == q.tau(v)
    assert q.serre(v) == q.vertex(1, 1)


def test_dihedral_mesh_has_two_middles():
    q = quiver.build_dihedral_family(4)
    m = q.mesh(q.vertex(0, 0))
    assert m.start == q.vertex(2, 2)
    assert set(m.middles) == {q.vertex(0, 2), q.vertex(2, 0)}
    assert m.end == q.vertex(0, 0)


def test_dihedral_arrows_lower_one_coordinate():
    q = quiver.build_dihedral_family(4)
    v = q.vertex(2, 2)
    targets = {a.target for a in q.arrows_out(v)}
    assert targets == {q.vertex(0, 2), q.vertex(2, 0)}
    sources = {a.source for a in q.arrows_in(v)}
    assert sources == {q.vertex(4, 2), q.vertex(2, 4)}


def test_dihedral_distance():
    q = quiver.build_dihedral_family(4)
    assert q.distance(q.vertex(2, 2), q.vertex(0, 0)) == 2
    assert q.distance(q.vertex(4, 0), q.vertex(0, 0)) == 2
    assert q.distance(q.vertex(0, 0), q.vertex(2, 2)) is None
    assert q.distance(q.vertex(0, 0), q.vertex(1, 1)) is None


def test_dihedral_grade_is_forced():
    assert quiver.build_dihedral_family(4).grade_forced is True


# -- ZA-infinity ----------------------------------------------------------


def test_za_levels_start_at_one():
    q = quiver.build_za_inf(4)
    with pytest.raises(InvalidVertexError):
        q.vertex(0, 0)


def test_za_translation_moves_along_the_rim():
    q = quiver.build_za_inf(4)
    v = q.vertex(2, 0)
    assert q.tau(v) == q.vertex(2, 1)
    assert q.tau_inv(v) == q.vertex(2, -1)


def test_za_odd_shift_powers_are_rejected():
    q = quiver.build_za_inf(4)
    v = q.vertex(1, 0)
    with pytest.raises(QuiverKindError):
        q.sigma(v)
    with pytest.raises(QuiverKindError):
        q.sigma_pow(v, 3)
    assert q.sigma_pow(v, 2) == q.tau_inv(v)
    assert q.sigma_pow(v, -4) == q.vertex(1, 2)


def test_za_rim_mesh_has_single_middle():
    q = quiver.build_za_inf(4)
    rim = q.mesh(q.vertex(1, 0))
    assert len(rim.middles) == 1
    interior = q.mesh(q.vertex(2, 0))
    assert len(interior.middles) == 2


def test_za_window_counts():
    q = quiver.build_za_inf(4)
    vertices = q.window(2)
    assert len(vertices) == 3 * 5
    assert all(q.in_window(v, 2) for v in vertices)
    assert not q.in_window(q.vertex(1, 3), 2)
    assert not q.in_window(q.vertex(4, 0), 2)


def test_za_distance_counts_arrow_steps():
    q = quiver.build_za_inf(4)
    assert q.distance(q.vertex(1, 1), q.vertex(1, 0)) == 2
    assert q.distance(q.vertex(2, 0), q.vertex(1, 0)) == 1
    assert q.distance(q.vertex(1, 0), q.vertex(1, 1)) is None


# -- shared structure ------------------------------------------------------

dihedral_vertices = st.tuples(
    st.integers(min_value=-8, max_value=8), st.integers(min_value=-8, max_value=8)
).filter(lambda c: (c[0] - c[1]) % 2 == 0)


@given(dihedral_vertices)
def test_dihedral_shift_commutes_with_translation(coords):
    q = quiver.build_dihedral_family(4)
    v = q.vertex(*coords)
    assert q.sigma(q.tau(v)) == q.tau(q.sigma(v))


@given(dihedral_vertices, st.integers(min_value=-6, max_value=6))
def test_dihedral_shift_powers_compose(coords, r):
    q = quiver.build_dihedral_family(4)
    v = q.vertex(*coords)
    assert q.sigma_pow(v, r + 2) == q.tau_inv(q.sigma_pow(v, r))
    assert q.sigma_pow(q.sigma_pow(v, r), -r) == v


# -- the derived API against the per-shape formulas ------------------------
#
# tau, tau_inv, arrows_out and arrows_in written out per shape: the
# reference for the versions TranslationQuiver derives from _arrows and
# _tau.

V = quiver.Vertex


def _old_tau(q, v, k):
    q.validate(v)
    if isinstance(q, quiver.Tube):
        return v
    if isinstance(q, quiver.DihedralFamily):
        i, j = v.coords
        return q.vertex(i + 2 * k, j + 2 * k)
    level, pos = v.coords
    return V(quiver.ZA_INF, (level, pos + k))


def _old_arrows_out(q, v):
    q.validate(v)
    A = quiver.Arrow
    if isinstance(q, quiver.Tube):
        i = v.coords[0]
        arrows = []
        if i - 1 >= 1:
            arrows.append(A(v, V(quiver.TUBE, (i - 1,)), "down"))
        if i + 1 <= q.n - 1:
            arrows.append(A(v, V(quiver.TUBE, (i + 1,)), "up"))
        return tuple(arrows)
    if isinstance(q, quiver.DihedralFamily):
        i, j = v.coords
        return (A(v, q.vertex(i, j - 2), "gamma"), A(v, q.vertex(i - 2, j), "gamma_prime"))
    level, pos = v.coords
    arrows = []
    if level >= 2:
        arrows.append(A(v, V(quiver.ZA_INF, (level - 1, pos)), "down"))
    arrows.append(A(v, V(quiver.ZA_INF, (level + 1, pos - 1)), "up"))
    return tuple(arrows)


def _old_arrows_in(q, v):
    q.validate(v)
    A = quiver.Arrow
    if isinstance(q, quiver.Tube):
        i = v.coords[0]
        arrows = []
        if i - 1 >= 1:
            arrows.append(A(V(quiver.TUBE, (i - 1,)), v, "up"))
        if i + 1 <= q.n - 1:
            arrows.append(A(V(quiver.TUBE, (i + 1,)), v, "down"))
        return tuple(arrows)
    if isinstance(q, quiver.DihedralFamily):
        i, j = v.coords
        return (A(q.vertex(i, j + 2), v, "gamma"), A(q.vertex(i + 2, j), v, "gamma_prime"))
    level, pos = v.coords
    arrows = [A(V(quiver.ZA_INF, (level + 1, pos)), v, "down")]
    if level >= 2:
        arrows.append(A(V(quiver.ZA_INF, (level - 1, pos + 1)), v, "up"))
    return tuple(arrows)


def _old_mesh(q, v):
    middles = tuple(sorted(a.source for a in _old_arrows_in(q, v)))
    return quiver.Mesh(_old_tau(q, v, 1), middles, v)


def _at(q, *coords):
    return q, q.vertex(*coords)


tube_cases = st.integers(3, 9).flatmap(
    lambda n: st.integers(1, n - 1).map(lambda i: _at(quiver.build_tube(n), i))
)
dihedral_cases = dihedral_vertices.map(lambda c: _at(quiver.build_dihedral_family(4), *c))
za_cases = st.tuples(st.integers(1, 9), st.integers(-8, 8)).map(
    lambda c: _at(quiver.build_za_inf(4), *c)
)
valid_cases = st.one_of(tube_cases, dihedral_cases, za_cases)

invalid_cases = st.one_of(
    st.integers(3, 9).flatmap(
        lambda n: st.tuples(
            st.just(quiver.build_tube(n)),
            st.sampled_from(
                [V(quiver.TUBE, (0,)), V(quiver.TUBE, (n,)), V(quiver.TUBE, (1, 1)),
                 V(quiver.ZA_INF, (1,)), V(quiver.DIHEDRAL_EVEN, (1,))]
            ),
        )
    ),
    st.tuples(
        st.just(quiver.build_dihedral_family(4)),
        st.sampled_from(
            [V(quiver.DIHEDRAL_ODD, (0, 0)), V(quiver.DIHEDRAL_EVEN, (1, 1)),
             V(quiver.DIHEDRAL_EVEN, (0, 1)), V(quiver.DIHEDRAL_ODD, (0, 1)),
             V(quiver.DIHEDRAL_EVEN, (0,)), V(quiver.TUBE, (0, 0))]
        ),
    ),
    st.tuples(
        st.just(quiver.build_za_inf(4)),
        st.sampled_from(
            [V(quiver.ZA_INF, (0, 0)), V(quiver.ZA_INF, (-2, 3)), V(quiver.ZA_INF, (1,)),
             V(quiver.DIHEDRAL_EVEN, (2, 0))]
        ),
    ),
)

DERIVED = ("tau", "tau_inv", "mesh", "arrows_out", "arrows_in")


# Public methods that validate their vertex arguments, defined once on
# TranslationQuiver.  (ZAInf keeps its own ``sigma``: a refusal that
# comes before any vertex check.)
VALIDATING = DERIVED + ("sigma", "sigma_pow", "serre", "distance", "in_window")
HOOKS = ("_arrows", "_tau", "_sigma_pow", "_distance", "_in_window")


def test_shapes_supply_only_the_primitives():
    for shape in (quiver.Tube, quiver.DihedralFamily, quiver.ZAInf):
        own = set(vars(shape)) - ({"sigma"} if shape is quiver.ZAInf else set())
        assert not set(VALIDATING) & own, shape
        assert {*HOOKS, "parse", "tau_orbit", "shift_orbit"} <= own, shape


@given(valid_cases)
@settings(max_examples=300)
def test_derived_api_matches_the_per_shape_formulas(case):
    q, v = case
    assert q.arrows_out(v) == _old_arrows_out(q, v)
    assert set(q.arrows_in(v)) == set(_old_arrows_in(q, v))
    assert q.mesh(v) == _old_mesh(q, v)
    assert q.tau(v) == _old_tau(q, v, 1)
    assert q.tau_inv(v) == _old_tau(q, v, -1)
    # Interned: a second call hands back the same Arrow objects.
    assert q.arrows_out(v) is q.arrows_out(v)


@given(invalid_cases)
def test_derived_api_rejects_invalid_vertices(case):
    q, v = case
    for name in DERIVED:
        with pytest.raises(InvalidVertexError):
            getattr(q, name)(v)
    # A rejected vertex leaves no cached mesh behind.
    with pytest.raises(InvalidVertexError):
        q.mesh(v)
    assert v not in q._meshes


@given(valid_cases)
def test_meshes_are_cached_per_vertex(case):
    q, v = case
    first = q.mesh(v)
    assert q.mesh(v) is first
    # An equal vertex made anew reads the same cached mesh.
    assert q.mesh(V(v.component, tuple(v.coords))) is first
    assert first == _old_mesh(q, v)


@given(valid_cases)
def test_mesh_middles_match_incoming_arrows(case):
    q, v = case
    mesh = q.mesh(v)
    assert set(mesh.middles) == {a.source for a in q.arrows_in(v)}
    # Each middle receives an arrow from tau(v) as well.
    for mid in mesh.middles:
        assert mesh.start in {a.source for a in q.arrows_in(mid)}


# -- vertex syntax -------------------------------------------------------------
#
# The per-shape parser as it stood in the serialization layer: the
# reference for each shape's own parse.


def _old_parse_vertex(q, text):
    text = text.strip()
    if isinstance(q, quiver.Tube):
        if not text.startswith("J"):
            raise InvalidVertexError(f"tube vertices look like J<i>, got {text!r}")
        try:
            i = int(text[1:])
        except ValueError:
            raise InvalidVertexError(f"bad tube vertex {text!r}") from None
        return q.vertex(i)
    if isinstance(q, quiver.DihedralFamily):
        head, sep, suffix = text.partition(":")
        coords = head.split(",")
        if len(coords) != 2:
            raise InvalidVertexError(f"dihedral vertices look like <i>,<j>, got {text!r}")
        try:
            i, j = (int(c) for c in coords)
        except ValueError:
            raise InvalidVertexError(f"bad dihedral vertex {text!r}") from None
        v = q.vertex(i, j)
        if sep:
            if suffix not in ("odd", "even"):
                raise InvalidVertexError(f"unknown parity tag {suffix!r}")
            is_odd = v.component == quiver.DIHEDRAL_ODD
            if (suffix == "odd") != is_odd:
                raise InvalidVertexError(
                    f"parity tag {suffix!r} contradicts coordinates {head}"
                )
        return v
    coords = text.split(",")
    if len(coords) != 2:
        raise InvalidVertexError(
            f"ZA-infinity vertices look like <level>,<pos>, got {text!r}"
        )
    try:
        level, pos = (int(c) for c in coords)
    except ValueError:
        raise InvalidVertexError(f"bad ZA-infinity vertex {text!r}") from None
    return q.vertex(level, pos)


def _outcome(parse, q, text):
    try:
        return parse(q, text)
    except Exception as exc:
        return type(exc), str(exc)


PARSE_QUIVERS = (
    quiver.build_tube(3),
    quiver.build_tube(6),
    quiver.build_dihedral_family(4),
    quiver.build_za_inf(4),
)
coordinate = st.integers(-12, 12).map(str)
padding = st.sampled_from(["", " ", "  ", "\t", " \n"])
well_formed = st.builds(
    lambda pad, head, coords, tag, tail: pad + head + ",".join(coords) + tag + tail,
    padding,
    st.sampled_from(["", "J"]),
    st.lists(coordinate, min_size=1, max_size=3),
    st.sampled_from(["", ":odd", ":even", ":Odd", ":", ":odd:even"]),
    padding,
)
malformed = st.text(alphabet="J0123456789,-+: oddevn\tx", max_size=10)


@given(st.sampled_from(PARSE_QUIVERS), st.one_of(well_formed, malformed))
@settings(max_examples=400)
def test_parse_matches_the_old_parser(q, text):
    assert _outcome(type(q).parse, q, text) == _outcome(_old_parse_vertex, q, text)


@pytest.mark.parametrize("q", PARSE_QUIVERS, ids=repr)
def test_parse_inverts_str_on_the_window(q):
    for v in q.window(3):
        assert q.parse(str(v)) == v


@given(
    st.sampled_from([quiver.TUBE, quiver.DIHEDRAL_EVEN, quiver.DIHEDRAL_ODD, quiver.ZA_INF]),
    st.lists(st.integers(min_value=-10**6, max_value=10**6), min_size=1, max_size=3),
)
def test_vertex_labels_join_their_coordinates(component, coords):
    v = quiver.Vertex(component, tuple(coords))
    expected = f"J{coords[0]}" if component == quiver.TUBE else ",".join(map(str, coords))
    assert str(v) == expected


@given(
    st.sampled_from([quiver.TUBE, quiver.DIHEDRAL_EVEN, quiver.DIHEDRAL_ODD, quiver.ZA_INF]),
    st.lists(st.integers(min_value=-10**6, max_value=10**6), min_size=1, max_size=3),
)
def test_new_vertex_is_the_named_tuple(component, coords):
    v = quiver.new_vertex((component, tuple(coords)))
    w = quiver.Vertex(component, tuple(coords))
    assert type(v) is quiver.Vertex
    assert (v, hash(v), str(v), repr(v)) == (w, hash(w), str(w), repr(w))
    assert (v.component, v.coords) == (w.component, w.coords)
    assert {v: 1} == {w: 1} and v in {w}


def test_knit_rows_and_shifted_supports_hold_named_tuples():
    q = quiver.build_dihedral_family(8)
    for v in (q.vertex(0, 0), q.vertex(3, -1), q.vertex(-6, 4)):
        table = mesh.knit_layers(q, v, 12, 8)
        for row in table.layers.values():
            assert all(type(w) is quiver.Vertex and w == quiver.Vertex(*w) for w in row)
        e = center.mu_element(q, 2)
        assert all(type(w) is quiver.Vertex and w == quiver.Vertex(*w) for w in e.image_support(v))


def _all_named(vertices) -> bool:
    # A plain tuple compares equal to a Vertex and is labelled the same, so
    # only a type check catches a hook that builds one.
    return all(type(w) is quiver.Vertex and w == quiver.Vertex(*w) for w in vertices)


@given(valid_cases, st.integers(-3, 3), st.integers(1, 3))
@settings(max_examples=300)
def test_hooks_and_windows_build_named_tuples(case, k, radius):
    q, v = case
    built = [q._tau(v, k), *(t for _, t in q._arrows(v)), *q.window(radius), q.parse(str(v))]
    built.append(q._sigma_pow(v, 2 * k if isinstance(q, quiver.ZAInf) else k))
    if isinstance(q, quiver.DihedralFamily):
        i, j = v.coords
        built += [q._shift(v, k, k + 2), q.vertex(i + k, j - k)]
    assert _all_named(built)


@given(
    dihedral_vertices,
    st.integers(1, 3),
    st.tuples(st.integers(-3, 3), st.integers(-2, 2)).map(lambda o: (o[0], o[0] + 2 * o[1])),
)
@settings(max_examples=100, deadline=None)
def test_center_tables_and_supports_build_named_tuples(coords, n, offset):
    q = quiver.build_dihedral_family(8)
    v = q.vertex(*coords)
    e = center.mu_element(q, n)
    orbit = center.single_orbit_element(q, v, degree=1)
    tables = [
        e.image_table(v),
        orbit.image_table(v),
        orbit.image_table(q.vertex(coords[0], coords[1] + 2)),
        mesh.diamond_cokernel(q, v, n, 12),
        e.image_table(q.vertex(coords[0] + offset[0], coords[1] + offset[1])),
    ]
    for table in tables:
        assert _all_named([table.target, *(w for row in table.layers.values() for w in row)])
    assert _all_named(e.image_support(v)) and _all_named(e._image_supports([v])[0])
    per_vertex = center.support_report(e, 2).per_vertex_hom_support
    assert _all_named([*per_vertex, *(w for ws in per_vertex.values() for w in ws)])


def test_windows_are_the_sorted_boxes():
    # the dihedral and ZA-infinity windows are built in vertex order, with no sort
    dihedral, za = quiver.build_dihedral_family(4), quiver.build_za_inf(4)
    for radius in range(1, 6):
        bound = 2 * radius
        assert dihedral.window(radius) == sorted(
            quiver.Vertex(quiver.DIHEDRAL_ODD if i % 2 else quiver.DIHEDRAL_EVEN, (i, j))
            for i in range(-bound, bound + 1)
            for j in range(-bound + i % 2, bound + 1, 2)
        )
        assert za.window(radius) == sorted(
            quiver.Vertex(quiver.ZA_INF, (level, pos))
            for level in range(1, radius + 2)
            for pos in range(-radius, radius + 1)
        )
