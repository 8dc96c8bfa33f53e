"""Graded-center elements: orbits, diamonds, sums, propagation."""

import dataclasses
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from meshknit import center, cli, mesh, quiver, serialize
from meshknit.errors import (
    DegreeError,
    InvalidVertexError,
    PreconditionError,
    QuiverKindError,
    UnsupportedParameterError,
)
import references


@pytest.fixture(scope="module")
def dihedral():
    return quiver.build_dihedral_family(10)


@pytest.fixture(scope="module")
def za():
    return quiver.build_za_inf(8)


# -- single-orbit elements ----------------------------------------------------


def test_tube_orbit_element_spans_the_shift_orbit():
    q = quiver.build_tube(4)
    e = center.single_orbit_element(q, q.vertex(1), degree=1)
    assert e.degree == 1
    assert [str(v) for v in q.window(4) if e.supports(v)] == ["J1", "J3"]
    table = e.image_table(q.vertex(1))
    assert table.multiplicities() == {q.vertex(1): 1}
    assert e.image_table(q.vertex(2)).multiplicities() == {}


def test_tube_fixed_point_accepts_any_degree():
    # sigma fixes J2 when n = 4, so even degrees hit the Serre image too.
    q = quiver.build_tube(4)
    for degree in (1, 2, 3):
        e = center.single_orbit_element(q, q.vertex(2), degree=degree)
        assert [v for v in q.window(4) if e.supports(v)] == [q.vertex(2)]


def test_tube_even_degree_misses_the_serre_image():
    q = quiver.build_tube(4)
    with pytest.raises(DegreeError):
        center.single_orbit_element(q, q.vertex(1), degree=2)


def test_orbit_with_arrow_neighbors_is_rejected():
    q = quiver.build_tube(5)
    # The orbit {J2, J3} crosses an arrow, so naturality is not automatic.
    with pytest.raises(PreconditionError):
        center.single_orbit_element(q, q.vertex(2), degree=1)


def test_dihedral_orbit_element_degree_rule(dihedral):
    v = dihedral.vertex(0, 0)
    e = center.single_orbit_element(dihedral, v, degree=1)
    assert e.supports(v)
    assert e.supports(dihedral.vertex(3, 3))
    assert not e.supports(dihedral.vertex(0, 2))
    with pytest.raises(DegreeError):
        center.single_orbit_element(dihedral, v, degree=3)


def test_orbit_scalars_are_validated(dihedral):
    v = dihedral.vertex(0, 0)
    e = center.single_orbit_element(dihedral, v, degree=1, scalars={v: 2})
    assert e.image_table(v).multiplicities() == {v: 1}
    with pytest.raises(PreconditionError):
        center.single_orbit_element(dihedral, v, degree=1, scalars={v: 0})
    with pytest.raises(PreconditionError):
        center.single_orbit_element(
            dihedral, v, degree=1, scalars={dihedral.vertex(0, 2): 1}
        )


def test_za_orbit_elements_are_out_of_scope(za):
    with pytest.raises(QuiverKindError):
        center.single_orbit_element(za, za.vertex(1, 0), degree=1)


def test_far_orbit_is_degree_checked():
    # The orbit of (40, 40) misses the default window; the base is checked.
    q = quiver.build_dihedral_family(20)
    with pytest.raises(DegreeError):
        center.single_orbit_element(q, q.vertex(40, 40), degree=3)


def test_orbit_covers_the_whole_window():
    q = quiver.build_dihedral_family(20)
    e = center.single_orbit_element(q, q.vertex(20, 20), degree=1)
    assert set(e.scalars) == {q.vertex(k, k) for k in range(-8, 9)}
    assert len(e.scalars) == 17


def test_orbit_contains_is_false_on_invalid_vertices(dihedral):
    e = center.single_orbit_element(dihedral, dihedral.vertex(0, 0), degree=1)
    for v in (
        quiver.Vertex(quiver.DIHEDRAL_ODD, (2, 2)),
        quiver.Vertex(quiver.DIHEDRAL_EVEN, (0, 1)),
        quiver.Vertex(quiver.TUBE, (1,)),
    ):
        assert not e.orbit_contains(v)


def test_orbit_contains_raises_on_non_vertices(dihedral):
    e = center.single_orbit_element(dihedral, dihedral.vertex(0, 0), degree=1)
    for bad in (None, "0,0", 3):
        with pytest.raises(AttributeError):
            e.orbit_contains(bad)


# The orbit tests as they stood before the shapes keyed their own orbits:
# the reference for tau_orbit and shift_orbit.


def _old_same_tau_orbit(q, u, w):
    if isinstance(q, quiver.Tube):
        return u == w
    if isinstance(q, quiver.DihedralFamily):
        di = w.coords[0] - u.coords[0]
        dj = w.coords[1] - u.coords[1]
        return di == dj and di % 2 == 0
    return u.coords[0] == w.coords[0]


def _old_orbit_contains(q, base, v):
    try:
        q.validate(v)
    except Exception:
        return False
    if isinstance(q, quiver.Tube):
        return v in (base, q.sigma(base))
    if isinstance(q, quiver.DihedralFamily):
        di = v.coords[0] - base.coords[0]
        dj = v.coords[1] - base.coords[1]
        return di == dj
    raise QuiverKindError(f"single-orbit membership undefined on {q.kind}")


ORBIT_QUIVERS = [quiver.build_tube(n) for n in range(3, 8)] + [
    quiver.build_dihedral_family(3),
    quiver.build_za_inf(3),
]


@pytest.mark.parametrize("q", ORBIT_QUIVERS, ids=repr)
def test_orbit_keys_match_the_old_orbit_tests(q):
    vertices = q.window(3)
    for u in vertices:
        element = center.SingleOrbitElement(q, u, 1, {})
        for w in vertices:
            assert (q.tau_orbit(u) == q.tau_orbit(w)) == _old_same_tau_orbit(q, u, w)
            if isinstance(q, quiver.ZAInf):
                with pytest.raises(QuiverKindError):
                    element.orbit_contains(w)
                with pytest.raises(QuiverKindError):
                    _old_orbit_contains(q, u, w)
            else:
                assert element.orbit_contains(w) == _old_orbit_contains(q, u, w)


# -- diamond elements ------------------------------------------------------------


def test_mu_degree_is_odd(dihedral):
    assert center.mu_element(dihedral, 1).degree == 1
    assert center.mu_element(dihedral, 2).degree == 3
    assert center.mu_element(dihedral, 3).degree == 5


def test_mu1_image_is_one_simple_everywhere(dihedral):
    mu1 = center.mu_element(dihedral, 1)
    for coords in ((0, 0), (2, 4), (1, -3)):
        v = dihedral.vertex(*coords)
        assert mu1.image_table(v).multiplicities() == {v: 1}


def test_mu2_image_is_the_two_by_two_grid(dihedral):
    mu2 = center.mu_element(dihedral, 2)
    v = dihedral.vertex(0, 0)
    expected = {
        dihedral.vertex(0, 0): 1,
        dihedral.vertex(0, 2): 1,
        dihedral.vertex(2, 0): 1,
        dihedral.vertex(2, 2): 1,
    }
    assert mu2.image_table(v).multiplicities() == expected


DIAMOND_FAMILY = quiver.build_dihedral_family(4)


@st.composite
def _diamond_vertices_and_windows(draw):
    """n, a vertex of either component with |i|, |j| <= 80, and a window holding its corners."""
    n, odd = draw(st.integers(1, 4)), draw(st.booleans())
    i, j = (2 * draw(st.integers(-40, 39)) + odd for _ in range(2))
    need = -(-max(abs(i), abs(j), abs(i + 2 * n), abs(j + 2 * n)) // 2)
    return n, DIAMOND_FAMILY.vertex(i, j), draw(st.integers(need, need + 6))


@given(_diamond_vertices_and_windows())
@example((1, DIAMOND_FAMILY.vertex(0, 0), 1))
@example((4, DIAMOND_FAMILY.vertex(-79, 79), 44))
@example((4, DIAMOND_FAMILY.vertex(78, -80), 43))
@settings(max_examples=150, deadline=None)
def test_diamond_image_tables_are_the_cokernels_at_their_vertex(case):
    # image_table builds the cokernel at v on its own window; any window that
    # holds v's corners gives the same table, row for row.
    n, v, window = case
    table = center.mu_element(DIAMOND_FAMILY, n).image_table(v)
    direct = mesh.diamond_cokernel(DIAMOND_FAMILY, v, n, window)
    fields = [(t.target, t.rows, t.k_max, t.valid_through) for t in (table, direct)]
    assert fields[0] == fields[1]


def test_image_tables_do_not_share_the_anchor_table():
    q = quiver.build_dihedral_family(4)
    e = center.mu_element(q, 1)
    e.image_table(q.vertex(0, 0)).layers.clear()
    assert e.image_table(q.vertex(2, 2)).multiplicities() == {q.vertex(2, 2): 1}
    for row in e.image_table(q.vertex(1, 1)).layers.values():
        row.clear()
    assert e.image_table(q.vertex(1, 1)).multiplicities() == {q.vertex(1, 1): 1}
    assert e.image_support(q.vertex(1, 1)) == [q.vertex(1, 1)]


def test_image_supports_are_fresh_lists():
    q = quiver.build_dihedral_family(4)
    e = center.mu_element(q, 2)
    for v in (q.vertex(0, 0), q.vertex(1, 1), q.vertex(4, -2)):
        want = sorted(e.image_table(v).multiplicities())
        got = e.image_support(v)
        assert got == want
        got.clear()
        got = e.image_support(v)
        got.append(q.vertex(9, 9))
        got[0] = q.vertex(7, 7)
        assert e.image_support(v) == want
        assert e.image_support(v) is not e.image_support(v)
    assert sorted(e.image_table(q.vertex(0, 0)).multiplicities()) == e.image_support(q.vertex(0, 0))


MU_ELEMENTS = {n: center.mu_element(quiver.build_dihedral_family(4), n) for n in range(1, 5)}


@given(
    st.integers(1, 4),
    st.booleans(),
    st.integers(-40, 40),
    st.integers(-20, 20),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_image_support_is_the_sorted_image_table(n, odd, a, b, fresh):
    e = MU_ELEMENTS[n]
    if fresh:  # the support is read before any table is cached
        e = center.mu_element(e.quiver, n)
    i = 2 * a + odd
    v = e.quiver.vertex(i, i + 2 * b)
    got = e.image_support(v)
    assert got == sorted(e.image_table(v).multiplicities())
    assert all(type(w) is quiver.Vertex and w.component == v.component for w in got)


def test_factor_distance_bound(dihedral):
    for n in (1, 2):
        e = center.mu_element(dihedral, n)
        assert center.factor_distance_ok(e, dihedral.vertex(0, 0))
        assert center.factor_distance_ok(e, dihedral.vertex(1, 1))


# -- sums ---------------------------------------------------------------------------


def test_sum_of_disjoint_orbits(dihedral):
    a = center.single_orbit_element(dihedral, dihedral.vertex(0, 0), degree=1)
    b = center.single_orbit_element(dihedral, dihedral.vertex(0, 2), degree=1)
    total = center.sum_elements([a, b])
    assert total.supports(dihedral.vertex(0, 0))
    assert total.supports(dihedral.vertex(1, 3))
    assert not total.supports(dihedral.vertex(0, 4))
    v = dihedral.vertex(0, 0)
    assert total.image_table(v).multiplicities() == {v: 1}


def test_sum_rejects_overlapping_orbits(dihedral):
    a = center.single_orbit_element(dihedral, dihedral.vertex(0, 0), degree=1)
    # (1,1) lies on the sigma orbit of (0,0), one component over.
    b = center.single_orbit_element(dihedral, dihedral.vertex(1, 1), degree=1)
    with pytest.raises(PreconditionError):
        center.sum_elements([a, b])


def test_sum_rejects_diamond_overlap(dihedral):
    mu1 = center.mu_element(dihedral, 1)
    a = center.single_orbit_element(dihedral, dihedral.vertex(0, 0), degree=1)
    with pytest.raises(PreconditionError):
        center.sum_elements([mu1, a])


def test_sum_rejects_mixed_degrees(dihedral):
    a = center.single_orbit_element(dihedral, dihedral.vertex(0, 0), degree=1)
    mu2 = center.mu_element(dihedral, 2)
    with pytest.raises(PreconditionError):
        center.sum_elements([a, mu2])


def test_empty_sum_is_zero(dihedral):
    zero = center.sum_elements([], quiver=dihedral)
    assert not zero.supports(dihedral.vertex(0, 0))
    assert zero.image_table(dihedral.vertex(0, 0)).multiplicities() == {}
    with pytest.raises(PreconditionError):
        center.sum_elements([])


def test_sums_flatten(dihedral):
    a = center.single_orbit_element(dihedral, dihedral.vertex(0, 0), degree=1)
    b = center.single_orbit_element(dihedral, dihedral.vertex(0, 2), degree=1)
    c = center.single_orbit_element(dihedral, dihedral.vertex(0, 4), degree=1)
    nested = center.sum_elements([center.sum_elements([a, b]), c])
    assert len(nested.parts) == 3


# -- support reports ------------------------------------------------------------------


def test_support_report_mu1(dihedral):
    report = center.support_report(center.mu_element(dihedral, 1), window=2)
    window = dihedral.window(2)
    assert report.element_support == sorted(window)
    assert all(len(v) == 1 for v in report.per_vertex_hom_support.values())
    assert all(report.finite_flags.values())


def test_support_report_single_orbit(dihedral):
    e = center.single_orbit_element(dihedral, dihedral.vertex(0, 0), degree=1)
    report = center.support_report(e, window=2)
    assert dihedral.vertex(0, 0) in report.element_support
    assert dihedral.vertex(0, 2) not in report.element_support
    assert report.per_vertex_hom_support[dihedral.vertex(1, 1)] == [
        dihedral.vertex(1, 1)
    ]


# -- propagation -----------------------------------------------------------------------


def test_propagation_mu1(dihedral):
    report = center.check_propagation(dihedral, center.mu_element(dihedral, 1), window=4)
    assert report.hypotheses_hold
    assert not report.support_min_two
    assert not report.applicable
    assert report.conclusion
    assert set(report.hom_support_sizes.values()) == {1}
    assert report.notes


def test_propagation_mu2(dihedral):
    report = center.check_propagation(dihedral, center.mu_element(dihedral, 2), window=6)
    assert report.hypotheses_hold
    assert report.support_min_two
    assert report.applicable
    assert report.conclusion
    assert set(report.hom_support_sizes.values()) == {4}


def test_propagation_single_orbit_is_not_applicable(dihedral):
    e = center.single_orbit_element(dihedral, dihedral.vertex(0, 0), degree=1)
    report = center.check_propagation(dihedral, e, window=3)
    assert report.hypotheses_hold
    assert not report.support_min_two
    assert not report.applicable


def test_propagation_on_za_uses_even_power_surrogate(za):
    zero = center.sum_elements([], quiver=za)
    report = center.check_propagation(za, zero, window=3)
    assert report.hypotheses["calabi_yau"]
    assert any("even" in note for note in report.notes)
    assert not report.conclusion


def test_propagation_requires_matching_quiver(dihedral, za):
    mu1 = center.mu_element(dihedral, 1)
    with pytest.raises(PreconditionError):
        center.check_propagation(za, mu1, window=3)


# -- obstruction on ZA-infinity ------------------------------------------------------------


def test_a_inf_obstruction_sweep(za):
    for window in (2, 3, 4, 5):
        report = center.a_inf_obstruction(za, 3, window=window)
        assert report.ok
        assert bool(report)
        assert not report.small_window
        assert report.rim_positions == list(range(-window, window))


def test_a_inf_obstruction_is_degree_independent(za):
    assert center.a_inf_obstruction(za, 1, window=2).ok
    assert center.a_inf_obstruction(za, 6, window=2).ok


def test_a_inf_obstruction_small_window_is_flagged(za):
    report = center.a_inf_obstruction(za, 3, window=1)
    assert report.ok
    assert report.small_window


def test_a_inf_obstruction_rejects_other_quivers(dihedral):
    with pytest.raises(QuiverKindError):
        center.a_inf_obstruction(dihedral, 3, window=3)
    with pytest.raises(UnsupportedParameterError):
        center.a_inf_obstruction(quiver.build_za_inf(4), 3, window=0)


# -- cross-component compositions -------------------------------------------------------------


def test_cross_component_composition_vanishes(dihedral):
    mu2 = center.mu_element(dihedral, 2)
    assert center.cross_component_vanishing(mu2, dihedral.vertex(0, 0), dihedral.vertex(1, 1))
    e = center.single_orbit_element(dihedral, dihedral.vertex(0, 0), degree=1)
    assert center.cross_component_vanishing(e, dihedral.vertex(1, 1), dihedral.vertex(0, 0))


def test_cross_component_requires_distinct_components(dihedral):
    mu1 = center.mu_element(dihedral, 1)
    with pytest.raises(PreconditionError):
        center.cross_component_vanishing(mu1, dihedral.vertex(0, 0), dihedral.vertex(2, 2))


# -- naturality across arrows ------------------------------------------------------------------


def test_naturality_on_arrows(dihedral):
    v = dihedral.vertex(0, 0)
    for e in (center.mu_element(dihedral, 1), center.mu_element(dihedral, 2)):
        for arrow in dihedral.arrows_out(v) + dihedral.arrows_in(v):
            assert center.naturality_on_arrow(e, arrow)


def test_naturality_single_orbit(dihedral):
    e = center.single_orbit_element(dihedral, dihedral.vertex(0, 0), degree=1)
    for arrow in dihedral.arrows_out(dihedral.vertex(0, 0)):
        assert center.naturality_on_arrow(e, arrow)


def test_naturality_rejects_fake_arrows(dihedral):
    mu1 = center.mu_element(dihedral, 1)
    fake = quiver.Arrow(dihedral.vertex(0, 0), dihedral.vertex(4, 4), "gamma")
    with pytest.raises(PreconditionError):
        center.naturality_on_arrow(mu1, fake)


def test_naturality_needs_the_dihedral_family():
    q = quiver.build_tube(4)
    e = center.single_orbit_element(q, q.vertex(1), degree=1)
    arrow = q.arrows_out(q.vertex(1))[0]
    with pytest.raises(QuiverKindError):
        center.naturality_on_arrow(e, arrow)


# -- reports against the per-vertex image tables -------------------------------------------


def _reference_support_report(e, window):
    """support_report as it read each support off a per-vertex image table."""
    per_vertex = {v: sorted(e.image_table(v).multiplicities()) for v in e.quiver.window(window)}
    return center.SupportReport(
        element_kind=e.kind,
        degree=e.degree,
        window=window,
        element_support=[v for v, ws in per_vertex.items() if ws],
        per_vertex_hom_support=per_vertex,
        finite_flags=dict.fromkeys(per_vertex, True),
    )


def _reference_support_payload(support, propagation, config):
    """support_payload as it labelled each vertex with str, once per use."""
    payload = {
        "schema": serialize.SCHEMA_VERSION,
        "kind": support.element_kind,
        "config": dict(config),
        "degree": support.degree,
        "window": support.window,
        "support": [str(v) for v in sorted(support.element_support)],
        "per_vertex": {str(v): [str(w) for w in ws] for v, ws in support.per_vertex_hom_support.items()},
        "finite_flags": {str(v): flag for v, flag in support.finite_flags.items()},
    }
    if propagation is not None:
        payload["hypotheses"] = dict(propagation.hypotheses)
        payload["support_min_two"] = propagation.support_min_two
        payload["applicable"] = propagation.applicable
        payload["conclusion"] = propagation.conclusion
        payload["notes"] = list(propagation.notes)
    return payload


def _report_elements():
    dihedral = quiver.build_dihedral_family(5)
    tube = quiver.build_tube(6)
    za = quiver.build_za_inf(5)
    orbit = center.single_orbit_element(dihedral, dihedral.vertex(0, 0), degree=1)
    other = center.single_orbit_element(dihedral, dihedral.vertex(0, 2), degree=1)
    yield from (center.mu_element(dihedral, n) for n in (1, 2, 3))
    yield orbit
    yield center.sum_elements([orbit, other])
    yield center.sum_elements([center.single_orbit_element(dihedral, dihedral.vertex(3, -1), degree=1)])
    yield center.sum_elements([], quiver=dihedral)
    yield center.single_orbit_element(tube, tube.vertex(1), degree=1)
    yield center.sum_elements([center.single_orbit_element(tube, tube.vertex(3), degree=1)])
    yield center.sum_elements([], quiver=za)


REPORT_ELEMENTS = list(_report_elements())


# Two references for the report and its payload: supports read off per-vertex
# image tables and labelled by str, and the request path as it was before the
# report read the window through map and the payload labelled from coordinates.
REPORT_REFERENCES = {
    "image-tables": (_reference_support_report, _reference_support_payload),
    "previous": (references.support_report, references.support_payload),
}


@pytest.mark.parametrize("refs", REPORT_REFERENCES)
@pytest.mark.parametrize("window", range(1, 6))
@pytest.mark.parametrize(
    "e", REPORT_ELEMENTS, ids=[f"{e.kind}-{e.quiver.kind}-{i}" for i, e in enumerate(REPORT_ELEMENTS)]
)
def test_reports_match_the_references(e, window, refs, monkeypatch):
    reference_report, reference_payload = REPORT_REFERENCES[refs]
    q = e.quiver
    support = center.support_report(e, window)
    want = reference_report(e, window)
    assert support == want
    for field in dataclasses.fields(want):  # equal values of equal types, field by field
        got_value, want_value = getattr(support, field.name), getattr(want, field.name)
        assert type(got_value) is type(want_value) and got_value == want_value, field.name
    assert list(support.per_vertex_hom_support) == list(want.per_vertex_hom_support)
    propagation = center.check_propagation(q, e, window)
    assert propagation.hypotheses["meshes_at_most_two_middles"] == all(
        len(q.mesh(v).middles) <= 2 for v in q.window(window)
    )
    with monkeypatch.context() as m:
        m.setattr(center, "support_report", reference_report)
        want_propagation = center.check_propagation(q, e, window)
    assert propagation == want_propagation
    config = {"command": "center", "window": window, "format": "json"}
    for got, want_payload in (
        (serialize.support_payload(support, None, config), reference_payload(want, None, config)),
        (
            serialize.support_payload(support, propagation, config),
            reference_payload(want, want_propagation, config),
        ),
    ):
        assert got == want_payload
        assert serialize.canonical_json(got) == serialize.canonical_json(want_payload)


@pytest.mark.parametrize("refs", REPORT_REFERENCES)
@pytest.mark.parametrize("report", [(), ("--report",)])
@pytest.mark.parametrize("window", range(1, 6))
@pytest.mark.parametrize("mu", (1, 2, 3))
def test_center_artifact_matches_the_references(mu, window, report, refs, tmp_path, monkeypatch):
    reference_report, reference_payload = REPORT_REFERENCES[refs]
    monkeypatch.delenv("MESHKNIT_WINDOW", raising=False)
    out = tmp_path / "artifact"
    assert cli.main(["center", "--mu", str(mu), "--window", str(window), *report, "--out", str(out)]) == 0
    got = out.read_bytes()
    q = quiver.build_dihedral_family(window)
    e = center.mu_element(q, mu)
    with monkeypatch.context() as m:
        m.setattr(center, "support_report", reference_report)
        propagation = center.check_propagation(q, e, window) if report else None
    support = propagation.support if report else reference_report(e, window)
    config = json.loads(got)["config"]
    assert config["mu"] == mu and config["window"] == window
    want = serialize.canonical_json(reference_payload(support, propagation, config))
    assert got == want.encode()


def _reference_cross_component(e, f_target):
    limit = 2 * e.n - 2
    for w in e.image_table(f_target).multiplicities():
        a = w.coords[0] - f_target.coords[0]
        b = w.coords[1] - f_target.coords[1]
        if not (0 <= a <= limit and 0 <= b <= limit):
            return False
    return True


def _reference_factor_distance(e, m):
    return all(
        e.quiver.distance(w, m) is not None and e.quiver.distance(w, m) <= 2 * e.n
        for w in e.image_table(m).multiplicities()
    )


def _reference_naturality(e, arrow):
    q, u, v = e.quiver, arrow.source, arrow.target
    supp_u = set(e.image_table(u).multiplicities())
    supp_v = set(e.image_table(v).multiplicities())
    return {w for w in supp_v if q.distance(w, u) is not None} == (supp_u & supp_v)


@pytest.mark.parametrize("n", (1, 2, 3))
def test_support_checks_match_the_per_vertex_image_tables(n):
    q = quiver.build_dihedral_family(3)
    e = center.mu_element(q, n)
    other = {quiver.DIHEDRAL_EVEN: q.vertex(1, 1), quiver.DIHEDRAL_ODD: q.vertex(0, 0)}
    for v in q.window(2):
        assert center.cross_component_vanishing(e, other[v.component], v) == _reference_cross_component(e, v)
        assert center.factor_distance_ok(e, v) == _reference_factor_distance(e, v)
        for arrow in q.arrows_out(v) + q.arrows_in(v):
            assert center.naturality_on_arrow(e, arrow) == _reference_naturality(e, arrow)
    orbit = center.single_orbit_element(q, q.vertex(0, 0), degree=1)
    for v in q.window(2):
        for arrow in q.arrows_out(v):
            assert center.naturality_on_arrow(orbit, arrow) == _reference_naturality(orbit, arrow)


# -- every hypothesis is evaluated at every window vertex ---------------------------


def _wrong_at(q, hook, at, wrong):
    """q's hook, answering wrong(q, its answer, *args) at the vertex at."""
    right = getattr(q, hook)
    return lambda v, *args: wrong(q, right(v, *args), *args) if v == at else right(v, *args)


# the hook, where it goes wrong (from a window vertex v), its wrong answer,
# and the one hypothesis that must turn False; Diamond(1) has degree 1, so
# the orbit hypothesis reads sigma^2 and the Calabi-Yau one sigma^-1
FAULTS = [
    ("_sigma_pow", lambda q, v: v, lambda q, w, r: q._tau(w, 1) if r == -1 else w, "calabi_yau"),
    ("_tau", lambda q, v: v, lambda q, w, k: q._shift(w, 2, 0), "calabi_yau"),
    (
        "_sigma_pow",
        lambda q, v: v,
        lambda q, w, r: q._shift(w, 2, 0) if r == 2 else w,
        "shift_preserves_tau_orbits",
    ),
    (
        "_arrows",
        lambda q, v: q._tau(v, 1),
        lambda q, arrows: arrows + arrows[:1],
        "meshes_at_most_two_middles",
    ),
]


@pytest.mark.parametrize("hook, where, wrong, hypothesis", FAULTS, ids=[f[0] + "-" + f[3] for f in FAULTS])
@pytest.mark.parametrize("window", (1, 2))
def test_a_hook_wrong_at_one_window_vertex_fails_its_hypothesis(window, hook, where, wrong, hypothesis):
    q = quiver.build_dihedral_family(window)
    e = center.mu_element(q, 1)
    want_support = center.support_report(e, window)
    assert all(center.check_propagation(q, e, window).hypotheses.values())
    for v in q.window(window):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(q, hook, _wrong_at(q, hook, where(q, v), wrong))
            report = center.check_propagation(q, e, window)
        assert [name for name, ok in report.hypotheses.items() if not ok] == [hypothesis], v
        assert report.support == want_support


def test_single_orbit_image_table_validates_once(dihedral, monkeypatch):
    e = center.single_orbit_element(dihedral, dihedral.vertex(0, 0), degree=1)
    validate, seen = dihedral.validate, []
    monkeypatch.setattr(dihedral, "validate", lambda v: seen.append(v) or validate(v))
    for v, size in ((dihedral.vertex(2, 2), 1), (dihedral.vertex(0, 2), 0)):
        seen.clear()
        assert len(e.image_table(v).multiplicities()) == size
        assert seen == [v]
    with pytest.raises(InvalidVertexError):
        e.image_table(quiver.Vertex(quiver.DIHEDRAL_ODD, (0, 0)))
