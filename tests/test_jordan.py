"""Brute-force matrix model of the stable category of k[t]/(t^n)."""

import gc
import weakref
from collections import Counter, OrderedDict
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import meshknit as mk
from meshknit import cli, jordan
from meshknit.jordan import context, indec
from meshknit.linalg import GF, GF5, QQ, Subspace
from meshknit.errors import FieldMismatchError, PreconditionError, UnsupportedParameterError


# -- modules ----------------------------------------------------------------


def test_blocks_are_sorted_and_validated():
    m = jordan.JordanModule((1, 3, 2), 4)
    assert m.blocks == (3, 2, 1)
    assert m.dim == 6
    assert str(m) == "J3+J2+J1"
    with pytest.raises(UnsupportedParameterError):
        jordan.JordanModule((1,), 2)
    with pytest.raises(PreconditionError):
        jordan.JordanModule((5,), 4)


def test_indecomposables_and_projectives():
    m = indec(4, 2)
    assert m.is_indecomposable
    assert not m.is_projective
    assert str(m.vertex()) == "J2"
    p = indec(4, 4)
    assert p.is_projective
    with pytest.raises(PreconditionError):
        p.vertex()
    zero = jordan.JordanModule((), 4)
    assert zero.dim == 0
    assert not zero.is_indecomposable


# -- Hom and stable Hom -------------------------------------------------------


def test_hom_dims_count_shift_maps():
    assert len(mk.hom_basis(indec(4, 2), indec(4, 3))) == 2
    assert len(mk.hom_basis(indec(4, 1), indec(4, 3))) == 1
    assert len(mk.hom_basis(indec(4, 3), indec(4, 3))) == 3


def test_stable_dims_on_the_tube_n4():
    grid = [
        [mk.stable_hom_dim(indec(4, i), indec(4, j)) for j in (1, 2, 3)]
        for i in (1, 2, 3)
    ]
    assert grid == [[1, 1, 1], [1, 2, 1], [1, 1, 1]]


def test_maps_through_projectives_die_stably():
    # J1 -> J3 has a 1-dim Hom space; composing through J4 kills nothing
    # here, but J3 -> J1 factors two of its three shift maps away.
    assert mk.stable_hom_dim(indec(4, 3), indec(4, 1)) == 1
    classes = mk.stable_basis(indec(4, 3), indec(4, 1))
    assert len(classes) == 1
    assert not classes[0].is_zero


small_n = st.integers(min_value=3, max_value=6)


@given(small_n, st.data())
@settings(max_examples=30, deadline=None)
def test_stable_dim_formula(n, data):
    i = data.draw(st.integers(min_value=1, max_value=n - 1))
    j = data.draw(st.integers(min_value=1, max_value=n - 1))
    expected = min(i, j, n - i, n - j)
    assert mk.stable_hom_dim(indec(n, i), indec(n, j)) == expected


# -- syzygy -------------------------------------------------------------------


def test_omega_swaps_complementary_blocks():
    assert mk.omega(indec(4, 1)) == indec(4, 3)
    assert mk.omega(indec(4, 2)) == indec(4, 2)
    assert mk.omega(mk.omega(indec(5, 2))) == indec(5, 2)
    with pytest.raises(PreconditionError):
        mk.omega(indec(4, 4))


def test_omega_map_is_a_class_level_involution():
    g = mk.stable_basis(indec(4, 1), indec(4, 3))[0]
    og = mk.omega_map(g)
    assert og.source == indec(4, 3)
    assert og.target == indec(4, 1)
    assert mk.omega_map(og) == g


def test_omega_map_preserves_composition():
    f = mk.stable_basis(indec(4, 1), indec(4, 2))[0]
    g = mk.stable_basis(indec(4, 2), indec(4, 3))[0]
    lhs = mk.omega_map(mk.compose(g, f))
    rhs = mk.compose(mk.omega_map(g), mk.omega_map(f))
    assert lhs == rhs


@given(small_n, st.data())
@settings(max_examples=30, deadline=None)
def test_omega_preserves_stable_dims(n, data):
    i = data.draw(st.integers(min_value=1, max_value=n - 1))
    j = data.draw(st.integers(min_value=1, max_value=n - 1))
    x, y = indec(n, i), indec(n, j)
    assert mk.stable_hom_dim(x, y) == mk.stable_hom_dim(mk.omega(x), mk.omega(y))


# -- almost split sequences ----------------------------------------------------


def test_ar_sequence_middles_n4():
    assert mk.ar_sequence(indec(4, 1)).middle == jordan.JordanModule((2,), 4)
    assert mk.ar_sequence(indec(4, 2)).middle == jordan.JordanModule((3, 1), 4)
    top = mk.ar_sequence(indec(4, 3))
    assert top.middle == jordan.JordanModule((4, 2), 4)
    assert top.has_projective_summand


def test_ar_sequences_verify_their_own_exactness():
    for i in (1, 2, 3):
        seq = mk.ar_sequence(indec(4, i))
        assert seq.verified, seq.checks
        assert set(seq.checks) == {
            "composite_zero",
            "left_injective",
            "right_surjective",
            "exact_at_middle",
            "non_split",
            "lifting",
        }


def test_ar_sequence_rejects_projectives():
    with pytest.raises(PreconditionError):
        mk.ar_sequence(indec(4, 4))


# -- almost-vanishing classes ---------------------------------------------------


def test_av_class_of_the_middle_vertex_is_multiplication_by_t():
    av = mk.almost_vanishing_class(indec(4, 2))
    assert av.source == indec(4, 2)
    assert av.target == indec(4, 2)
    t = context(4).t_matrix(indec(4, 2))
    assert av == context(4).classify(indec(4, 2), indec(4, 2), t)


def test_av_class_squares_to_zero():
    av = mk.almost_vanishing_class(indec(4, 2))
    assert mk.compose(av, av).is_zero


def test_compose_works_over_the_field_of_its_maps():
    # Composing in a GF(5) context reduced 6 to 1 here.
    ctx = context(4, GF(7))
    x = indec(4, 2)
    ident = ctx.identity_map(x)
    six = ctx.classify(x, x, ident.matrix.scale(6))
    got = mk.compose(six, ident)
    assert got.key == (6, 0, 0, 6)
    assert got == six
    assert mk.omega_map(six).matrix.field == GF(7)


def test_av_report_accepts_the_av_class():
    report = mk.is_almost_vanishing(mk.almost_vanishing_class(indec(4, 2)))
    assert report.verdict
    assert report.agreement
    assert all(report.conditions.values())


def test_av_report_rejects_the_identity():
    ident = context(4).identity_map(indec(4, 2))
    report = mk.is_almost_vanishing(ident)
    assert not report.verdict
    assert not report.conditions["kills_non_split_epis"]
    assert report.agreement


def test_av_report_rejects_wrong_codomain():
    for f in mk.stable_class_lines(indec(4, 1), indec(4, 2)):
        report = mk.is_almost_vanishing(f)
        assert not report.verdict
        assert report.agreement


def test_av_report_on_spanning_class_to_the_syzygy():
    g = mk.stable_basis(indec(4, 1), indec(4, 3))[0]
    assert mk.is_almost_vanishing(g).verdict


def test_av_report_flags_the_zero_class():
    zero = context(4).zero_map(indec(4, 2), indec(4, 2))
    report = mk.is_almost_vanishing(zero)
    assert not report.verdict
    assert report.note == "stably zero class"
    assert report.conditions == {}
    assert report.agreement


def test_av_classes_require_a_finite_field():
    with pytest.raises(UnsupportedParameterError):
        mk.stable_class_lines(indec(4, 2), indec(4, 2), field=QQ)


def test_av_agreement_suite_full_enumeration():
    report = mk.almost_vanishing_agreement_suite(4)
    assert report.ok
    assert report.stats["classes"] == 56
    # One line per object, four nonzero scalars each.
    assert report.stats["almost_vanishing"] == 12


# -- composition factors ---------------------------------------------------------


def test_image_comp_factors_of_identity():
    ident = context(4).identity_map(indec(4, 2))
    factors = mk.image_comp_factors(ident)
    assert factors == {indec(4, 1): 1, indec(4, 2): 2, indec(4, 3): 1}


def test_image_comp_factors_of_av_class_is_one_simple():
    g = mk.stable_basis(indec(4, 1), indec(4, 3))[0]
    assert mk.image_comp_factors(g) == {indec(4, 1): 1}


def test_image_comp_factors_of_zero_class_is_empty():
    zero = context(4).zero_map(indec(4, 1), indec(4, 2))
    assert mk.image_comp_factors(zero) == {}


def test_simple_fp_holds_for_every_indecomposable():
    for i in (1, 2, 3):
        assert mk.simple_fp_check(indec(4, i))
    assert mk.simple_fp_suite(5).ok


def test_composition_factors_match_radical_layers():
    assert mk.composition_factors_equivalence_check(4).ok
    assert mk.composition_factors_equivalence_check(5).ok


# -- socle and duality -------------------------------------------------------------


def test_socle_sits_at_the_syzygy_vertex():
    report = mk.socle_of_representable(indec(4, 1))
    assert report.ok
    assert str(report.socle_vertex) == "J3"
    assert report.dims == {1: 0, 2: 0, 3: 1}
    assert str(mk.socle_of_representable(indec(4, 2)).socle_vertex) == "J2"
    assert str(mk.socle_of_representable(indec(5, 1)).socle_vertex) == "J4"
    assert mk.socle_suite(6).ok


def test_serre_duality_on_stable_dims():
    for n in (3, 4, 5, 6):
        assert mk.serre_duality_check(n).ok


# -- radical layers ------------------------------------------------------------------


def test_bruteforce_layers_n4_middle():
    m = indec(4, 2)
    table = mk.radical_layers_bruteforce(m, k_max=3)
    v = {i: indec(4, i).vertex() for i in (1, 2, 3)}
    assert table.row(0) == {v[2]: 1}
    assert table.row(1) == {v[1]: 1, v[3]: 1}
    assert table.row(2) == {v[2]: 1}
    assert table.row(3) == {}
    assert table.valid_through == 3


def test_bruteforce_layer_totals_recover_stable_dims():
    m = indec(5, 2)
    table = mk.radical_layers_bruteforce(m, k_max=6)
    for i in (1, 2, 3, 4):
        x = indec(5, i)
        assert table.total_at(x.vertex()) == mk.stable_hom_dim(x, m)


def test_bruteforce_layers_match_knitting():
    from meshknit import mesh, quiver

    q = quiver.build_tube(4)
    table = mk.radical_layers_bruteforce(indec(4, 1), k_max=3)
    knit = mesh.knit_layers(q, q.vertex(1), k_max=3, window=4)
    for k in range(4):
        assert table.row(k) == knit.row(k)


# -- splitting and the solver -----------------------------------------------------------


def test_mono_representable_split_check():
    assert mk.mono_representable_split_check(4).ok
    assert mk.mono_representable_split_check(6).ok
    with pytest.raises(UnsupportedParameterError):
        mk.mono_representable_split_check(7)


def test_solver_zero_when_codomain_is_not_the_syzygy():
    report = mk.single_object_support_solver(indec(4, 1), 0)
    assert report.codomain == indec(4, 1)
    assert not report.omega_rule
    assert report.dim == 0
    assert report.matches_rule


def test_solver_one_dim_when_codomain_is_the_syzygy():
    report = mk.single_object_support_solver(indec(4, 1), 1)
    assert report.codomain == indec(4, 3)
    assert report.omega_rule
    assert report.dim == 1
    assert report.spanned_by_almost_vanishing
    assert report.matches_rule


def test_solver_middle_vertex_is_syzygy_fixed():
    # omega fixes J2 when n = 4, so both parities hit the syzygy rule.
    for r in (0, 1):
        report = mk.single_object_support_solver(indec(4, 2), r)
        assert report.omega_rule
        assert report.dim == 1
        assert report.spanned_by_almost_vanishing


def test_solver_matches_rule_everywhere_n5():
    for i in (1, 2, 3, 4):
        for r in (0, 1):
            assert mk.single_object_support_solver(indec(5, i), r).matches_rule


# -- cross-field sanity ---------------------------------------------------------------


def test_stable_dims_are_field_independent():
    for field in (QQ, GF(3), GF(7)):
        assert mk.stable_hom_dim(indec(4, 2), indec(4, 2), field=field) == 2
        assert mk.stable_hom_dim(indec(5, 2), indec(5, 3), field=field) == 2


def test_class_enumeration_counts_mod_5():
    classes = _classes_by_filter(context(4), indec(4, 2), indec(4, 2), False)
    assert len(classes) == 24
    lines = mk.stable_class_lines(indec(4, 2), indec(4, 2))
    assert len(lines) == 6


def _classes_by_filter(ctx, x, y, up_to_scalar):
    """Reference enumeration: every coefficient tuple, filtered by its lead."""
    basis = ctx.stable_basis(x, y)
    out = []
    for coeffs in product(range(ctx.field.char), repeat=len(basis)):
        lead = next((c for c in coeffs if c), None)
        if lead is None or (up_to_scalar and lead != 1):
            continue
        out.append(ctx.combine(x, y, basis, coeffs))
    return out


def _conditions_by_loops(ctx, f):
    """Reference almost-vanishing conditions, one flag-and-break loop each."""
    x, y = f.source, f.target
    conditions = {}
    ok = True
    for u in ctx.indecomposables():
        for u_class in ctx.class_lines(u, y):
            span = Subspace(ctx.field, x.dim * y.dim)
            for b in ctx.stable_basis(x, u):
                span.insert(ctx.residue(x, y, u_class.matrix.mul(b.matrix)))
            if not span.contains(f.key):
                ok = False
                break
        if not ok:
            break
    conditions["factors_through_incoming"] = ok
    ok = True
    for v in ctx.indecomposables():
        for v_class in ctx.class_lines(x, v):
            span = Subspace(ctx.field, x.dim * y.dim)
            for b in ctx.stable_basis(v, y):
                span.insert(ctx.residue(x, y, b.matrix.mul(v_class.matrix)))
            if not span.contains(f.key):
                ok = False
                break
        if not ok:
            break
    conditions["factors_through_outgoing"] = ok
    ok = True
    for u in ctx.indecomposables():
        for g in ctx.rad_stable_basis(u, x):
            if any(ctx.residue(u, y, f.matrix.mul(g.matrix))):
                ok = False
                break
        if not ok:
            break
    conditions["kills_non_split_epis"] = ok
    ok = True
    for u in ctx.indecomposables():
        for h in ctx.rad_stable_basis(y, u):
            if any(ctx.residue(x, u, h.matrix.mul(f.matrix))):
                ok = False
                break
        if not ok:
            break
    conditions["killed_by_non_split_monos"] = ok
    conditions["image_is_simple"] = sum(_image_comp_factors_by_class(ctx, f).values()) == 1
    return conditions


def _span(ctx, x, y, composites):
    """Subspace spanned by the residues of maps x -> y."""
    span = Subspace(ctx.field, x.dim * y.dim)
    span.extend(ctx.residue(x, y, c) for c in composites)
    return span


def _image_comp_factors_by_class(ctx, f):
    """Reference image multiplicities, from this class's own composites.

    The multiplicity is the quotient dimension of their span against the
    zero subspace, that is its rank.
    """
    out = {}
    for v in ctx.indecomposables():
        composites = (f.matrix.mul(b.matrix) for b in ctx.stable_basis(v, f.source))
        mult = _span(ctx, v, f.target, composites).rank
        if mult:
            out[v] = mult
    return out


def _av_report_by_class(f):
    """Reference ``is_almost_vanishing``: every span rebuilt for this class."""
    ctx = context(f.source.n, f.matrix.field)
    x, y = f.source, f.target
    if f.is_zero:
        return jordan.AlmostVanishingReport(x, y, False, {}, note="stably zero class")
    indecs = ctx.indecomposables()

    def spans_f(composites):
        return _span(ctx, x, y, composites).contains(f.key)

    conditions = {
        "factors_through_incoming": all(
            spans_f(c.matrix.mul(b.matrix) for b in ctx.stable_basis(x, u))
            for u in indecs
            for c in ctx.class_lines(u, y)
        ),
        "factors_through_outgoing": all(
            spans_f(b.matrix.mul(c.matrix) for b in ctx.stable_basis(v, y))
            for v in indecs
            for c in ctx.class_lines(x, v)
        ),
        "kills_non_split_epis": not any(
            any(ctx.residue(u, y, f.matrix.mul(g.matrix)))
            for u in indecs
            for g in ctx.rad_stable_basis(u, x)
        ),
        "killed_by_non_split_monos": not any(
            any(ctx.residue(x, u, h.matrix.mul(f.matrix)))
            for u in indecs
            for h in ctx.rad_stable_basis(y, u)
        ),
        "image_is_simple": sum(_image_comp_factors_by_class(ctx, f).values()) == 1,
    }
    return jordan.AlmostVanishingReport(x, y, all(conditions.values()), conditions)


def _injective_by_class(ctx, theta, x):
    """Reference: composing with theta is injective on the classes x -> theta.source."""
    basis = ctx.stable_basis(x, theta.source)
    composites = (theta.matrix.mul(b.matrix) for b in basis)
    return _span(ctx, x, theta.target, composites).rank == len(basis)


def _splits_by_class(ctx, theta):
    """Reference: some class b . theta is the identity, solved for per class."""
    u, v = theta.source, theta.target
    columns = [ctx.residue(u, u, b.matrix.mul(theta.matrix)) for b in ctx.stable_basis(v, u)]
    return jordan._combination(ctx.field, columns, ctx.identity_map(u).key) is not None


def _mono_split_by_class(n, field):
    """Reference split-mono sweep: image ranks and a section solved per class."""
    ctx = context(n, field)
    indecs = ctx.indecomposables()
    failures = []
    monos = checked = 0
    for u in indecs:
        for v in indecs:
            for theta in ctx.class_lines(u, v):
                checked += 1
                if not all(_injective_by_class(ctx, theta, x) for x in indecs):
                    continue
                monos += 1
                if not _splits_by_class(ctx, theta):
                    failures.append({"source": str(u), "target": str(v), "class": theta.key})
    return not failures, failures, {"classes_checked": checked, "functor_monos": monos}


@given(st.sampled_from([3, 4, 5]), st.sampled_from([2, 3, 5, 7]))
@settings(max_examples=30, deadline=None)
def test_shared_images_match_the_per_class_references(n, p):
    field = GF(p)
    ctx = context(n, field)
    for x in ctx.indecomposables():
        for y in ctx.indecomposables():
            for f in ctx.class_lines(x, y):
                assert mk.is_almost_vanishing(f).conditions == _av_report_by_class(f).conditions
                assert mk.image_comp_factors(f) == _image_comp_factors_by_class(ctx, f)
                for u in ctx.indecomposables():
                    image = ctx.post_image(f, u)
                    assert (image.rank == ctx.stable_dim(u, x)) == _injective_by_class(ctx, f, u)
                identity = ctx.identity_map(x).key
                assert ctx.pre_image(f, x).contains(identity) == _splits_by_class(ctx, f)
    report = mk.mono_representable_split_check(n, field)
    assert (report.ok, report.failures, report.stats) == _mono_split_by_class(n, field)
    for up_to_scalar in (False, True):
        report = mk.almost_vanishing_agreement_suite(n, field, up_to_scalar)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(jordan, "is_almost_vanishing", _av_report_by_class)
            reference = mk.almost_vanishing_agreement_suite(n, field, up_to_scalar)
        assert (report.ok, report.failures, report.stats) == (
            reference.ok,
            reference.failures,
            reference.stats,
        )


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_class_enumeration_and_conditions_match_the_reference(n, p):
    ctx = context(n, GF(p))
    for x in ctx.indecomposables():
        for y in ctx.indecomposables():
            lines = ctx.class_lines(x, y)
            assert [c.key for c in lines] == [c.key for c in _classes_by_filter(ctx, x, y, True)]
            # The p - 1 nonzero multiples of the lines are every class, once.
            multiples = [ctx.classify(x, y, f.matrix.scale(c)).key for f in lines for c in range(1, p)]
            assert sorted(multiples) == sorted(c.key for c in _classes_by_filter(ctx, x, y, False))
            for f in lines:
                report = mk.is_almost_vanishing(f)
                assert report.conditions == _conditions_by_loops(ctx, f)


def _suite_by_classes(n, field, up_to_scalar):
    """Reference agreement suite: one check per class, in coefficient order."""
    ctx = context(n, field)
    failures = []
    classes = found = 0
    for x in ctx.indecomposables():
        for y in ctx.indecomposables():
            for f in _classes_by_filter(ctx, x, y, up_to_scalar):
                classes += 1
                rep = jordan.is_almost_vanishing(f)
                if not rep.agreement:
                    failures.append({"x": str(x), "y": str(y), "conditions": rep.conditions})
                if rep.verdict:
                    found += 1
                    if y != ctx.omega_object(x):
                        failures.append({"x": str(x), "y": str(y), "error": "wrong codomain"})
    stats = {"classes": classes, "almost_vanishing": found, "up_to_scalar": up_to_scalar}
    return not failures, failures, stats


@pytest.mark.parametrize("up_to_scalar", [False, True])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_agreement_suite_matches_the_class_by_class_reference(n, p, up_to_scalar):
    report = mk.almost_vanishing_agreement_suite(n, GF(p), up_to_scalar)
    assert (report.ok, report.failures, report.stats) == _suite_by_classes(n, GF(p), up_to_scalar)


@pytest.mark.parametrize("p", [2, 5, 7])
def test_a_disagreeing_line_fails_once_per_class(p, monkeypatch):
    ctx = context(4, GF(p))
    x = y = indec(4, 2)
    line = ctx.class_lines(x, y)[1]
    on_line = {ctx.classify(x, y, line.matrix.scale(c)).key for c in range(1, p)}
    checked = jordan.is_almost_vanishing

    def disagreeing(f):
        report = checked(f)
        if (f.source, f.target) == (x, y) and f.key in on_line:
            report.conditions["image_is_simple"] = not report.conditions["image_is_simple"]
        return report

    monkeypatch.setattr(jordan, "is_almost_vanishing", disagreeing)
    for up_to_scalar, entries in ((False, p - 1), (True, 1)):
        report = mk.almost_vanishing_agreement_suite(4, GF(p), up_to_scalar)
        assert not report.ok
        assert len(report.failures) == entries
        assert all(entry["x"] == entry["y"] == "J2" for entry in report.failures)
        assert (report.ok, report.failures, report.stats) == _suite_by_classes(4, GF(p), up_to_scalar)


def test_oracle_checks_one_class_per_line(monkeypatch, tmp_path):
    calls = []
    checked = jordan.is_almost_vanishing

    def counting(f):
        calls.append(f)
        return checked(f)

    monkeypatch.setattr(jordan, "is_almost_vanishing", counting)
    assert cli.main(["oracle", "--n", "4", "--field", "p:101", "--out", str(tmp_path / "a")]) == 0
    # Eight pairs of indecomposables with a one-dimensional stable Hom, one
    # line each, and J2 -> J2 with a plane: 101 + 1 lines.  A sweep of every
    # class makes 8 * 100 + (101**2 - 1) = 11000 checks.
    assert len(calls) == 8 + 102


def test_class_lines_are_built_once_per_context():
    ctx = jordan._Context(4, GF(7))
    x = y = indec(4, 2)
    d = ctx.stable_dim(x, y)
    first = ctx.class_lines(x, y)
    assert ctx.class_lines(x, y) is first
    assert len(first) == (7**d - 1) // (7 - 1)
    assert [key for key in ctx._memo if key[0] == "class_lines"] == [("class_lines", x, y)]
    assert ctx._memo["class_lines", x, y] is first


def test_failed_calls_are_not_memoized():
    ctx = jordan._Context(4, GF(7))
    for _ in range(2):
        with pytest.raises(PreconditionError):
            ctx.omega_object(indec(4, 4))
        with pytest.raises(PreconditionError):
            ctx.rad_stable_basis(jordan.JordanModule((2, 1), 4), indec(4, 2))
        with pytest.raises(FieldMismatchError):
            ctx.hom_basis(indec(5, 2), indec(5, 2))
    assert ctx._memo == {}
    with pytest.raises(UnsupportedParameterError):
        jordan._Context(4, QQ).class_lines(indec(4, 2), indec(4, 2))


def test_composition_images_are_built_once_per_context(monkeypatch):
    built = Counter()
    requested = Counter()
    for name in ("post_image", "pre_image"):
        build = getattr(jordan._Context, name).__wrapped__

        def counting(self, *args, _build=build):
            built[_build.__name__, *args] += 1
            return _build(self, *args)

        counting.__name__ = name
        memoized = jordan._memo(counting)

        def requesting(self, *args, _memoized=memoized, _name=name):
            requested[_name] += 1
            return _memoized(self, *args)

        monkeypatch.setattr(jordan._Context, name, requesting)
    monkeypatch.setattr(jordan, "_contexts", OrderedDict())
    field = GF(7)
    assert mk.mono_representable_split_check(5, field).ok
    assert mk.almost_vanishing_agreement_suite(5, field).ok
    ctx = context(5, field)
    assert set(built.values()) == {1}
    assert set(built) == {key for key in ctx._memo if key[0] in ("post_image", "pre_image")}
    # Both sweeps and every checked class share the images.
    assert sum(requested.values()) > len(built)


@pytest.mark.parametrize("p", [2, 3, 31])
def test_scalar_multiples_share_their_line_images(p, monkeypatch):
    # Every nonzero multiple of a class, whatever its representative
    # matrix, reads its images from the span stored for the class's line.
    monkeypatch.setattr(jordan, "_contexts", OrderedDict())
    ctx = context(5, GF(p))
    x = indec(5, 3)
    lines = ctx.class_lines(x, x)
    assert len(lines) == p + 1
    factors = [mk.image_comp_factors(f) for f in lines]
    zero = ctx.zero_map(x, x)
    assert mk.image_comp_factors(zero) == {}
    size = len(ctx._memo)
    # a nonzero map x -> x that factors through the projective
    proj = ctx.projective
    through = next(
        g.mul(h)
        for h in ctx.hom_basis(x, proj)
        for g in ctx.hom_basis(proj, x)
        if g.mul(h) != zero.matrix
    )
    assert ctx.classify(x, x, through) == zero
    for f, expected in zip(lines, factors):
        for c in range(1, p):
            g = ctx.classify(x, x, f.matrix.scale(c).add(through))
            assert g.matrix != f.matrix
            assert ctx.line(g) == f
            assert mk.image_comp_factors(g) == expected
    assert mk.image_comp_factors(ctx.classify(x, x, through)) == {}
    assert len(ctx._memo) == size


# -- context cache ----------------------------------------------------------------


def test_an_evicted_context_frees_its_memo():
    ctx = context(3, GF(83))
    ctx.av_class(indec(3, 1))
    assert ctx._memo
    gone = weakref.ref(ctx)
    subspace = weakref.ref(ctx.proj_subspace(indec(3, 1), indec(3, 2)))
    line = ctx.class_lines(indec(3, 1), indec(3, 2))[0]
    images = [
        weakref.ref(ctx.post_image(line, indec(3, 2))),
        weakref.ref(ctx.pre_image(line, indec(3, 1))),
    ]
    del ctx
    for p in (89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167):
        context(3, GF(p))
    assert (3, 83) not in jordan._contexts
    gc.collect()
    assert gone() is None
    assert subspace() is None
    assert [image() for image in images] == [None, None]


def test_context_cache_keeps_the_most_recently_used():
    primes = [p for p in range(2, 80) if all(p % d for d in range(2, p))]
    first, last = primes[:20], primes[20]
    for p in first:
        context(3, GF(p))
    assert len(jordan._contexts) <= jordan.MAX_CONTEXTS == 16
    # The oldest survivor is refreshed by a hit, so the next new context
    # evicts the one after it instead.
    oldest, next_oldest = [p for _, p in jordan._contexts][:2]
    kept = context(3, GF(oldest))
    context(3, GF(last))
    assert context(3, GF(oldest)) is kept
    assert (3, next_oldest) not in jordan._contexts
    assert len(jordan._contexts) <= 16
