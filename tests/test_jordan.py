"""Brute-force matrix model of the stable category of k[t]/(t^n)."""

import gc
import sys
import weakref
from collections import Counter, OrderedDict
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings, strategies as st

import meshknit as mk
from meshknit import cli, jordan, linalg
from meshknit.jordan import context, indec
from meshknit.linalg import GF, GF5, QQ
from meshknit.errors import (
    DimensionError,
    FieldMismatchError,
    InternalCheckError,
    PreconditionError,
    UnsupportedParameterError,
)
from references import (
    Subspace,
    dense_key,
    dense_post,
    dense_pre,
    dense_table,
    matrix_sum,
    reduced,
    span_contains,
    span_dim,
    stable_maps,
    stable_residue,
    zero_map,
)


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
    assert str(m.vertex()) == "J2"
    p = indec(4, 4)
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


def _hom_basis_by_dense_system(ctx, x, y):
    """Reference ``hom_basis``: the kernel basis of the stacked system X T_x = T_y X."""
    dx, dy = x.dim, y.dim
    if dx == 0 or dy == 0:
        return []
    tx, ty = ctx.t_matrix(x), ctx.t_matrix(y)
    eqs = []
    for r in range(dy):
        for c in range(dx):
            row = [0] * (dy * dx)
            for k in range(dy):
                if ty.entry(r, k):
                    row[k * dx + c] += 1
            for k in range(dx):
                if tx.entry(k, c):
                    row[r * dx + k] -= 1
            eqs.append(row)
    return [ctx._unflatten(v, dy, dx) for v in linalg.kernel_basis(linalg.Matrix(ctx.field, eqs))]


@pytest.mark.parametrize(
    "n, field", [(3, QQ), (4, QQ), (3, GF(2)), (6, GF(2)), (4, GF(5)), (5, GF(5))], ids=str
)
def test_hom_bases_match_the_dense_system(n, field):
    ctx = jordan._Context(n, field)
    modules = [
        jordan.JordanModule(blocks, n)
        for k in range(3)
        for blocks in combinations_with_replacement(range(1, n + 1), k)
    ]
    for x, y in product(modules, repeat=2):
        basis = ctx.hom_basis(x, y)
        reference = _hom_basis_by_dense_system(ctx, x, y)
        shape = [(m.rows, m.cols, m.data) for m in basis]
        assert shape == [(m.rows, m.cols, m.data) for m in reference]
        entries = [(a, b) for m, r in zip(basis, reference) for a, b in zip(m.flatten(), r.flatten())]
        assert all(type(a) is type(b) for a, b in entries)


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


def test_classify_refuses_a_matrix_of_the_wrong_shape():
    ctx = context(4, GF5)
    x, y = indec(4, 1), indec(4, 3)  # maps J1 -> J3 are 3x1
    with pytest.raises(DimensionError):
        ctx.classify(x, y, linalg.Matrix(GF5, [[1, 0, 0]]))


def test_classify_refuses_a_matrix_that_does_not_commute_with_t():
    ctx = context(4, GF5)
    x, y = indec(4, 1), indec(4, 3)
    # e_1 sends the top of J1 to the top of J3, which t does not kill
    with pytest.raises(PreconditionError):
        ctx.classify(x, y, linalg.Matrix(GF5, [[1], [0], [0]]))
    # not constant along the identity's chain
    with pytest.raises(PreconditionError):
        ctx.classify(y, y, linalg.Matrix(GF5, [[1, 0, 0], [0, 1, 0], [0, 0, 2]]))


def test_classify_refuses_a_matrix_over_another_field():
    ctx = context(4, GF5)
    x = indec(4, 2)
    # 6 * id over GF(7) is no map over GF(5), whatever its entries read as there
    with pytest.raises(FieldMismatchError):
        ctx.classify(x, x, linalg.Matrix.identity(GF(7), 2).scale(6))


def test_combine_refuses_too_few_coefficients():
    ctx = context(6, GF5)
    x, y = indec(6, 2), indec(6, 3)
    assert ctx.stable_dim(x, y) == 2
    with pytest.raises(DimensionError):
        ctx.combine(x, y, (1,))


def test_combine_refuses_too_many_coefficients():
    ctx = context(6, GF5)
    with pytest.raises(DimensionError):
        ctx.combine(indec(6, 2), indec(6, 3), (1, 1, 1))


KEY_FIELDS = [GF(2), GF(3), GF(32749), QQ]


@pytest.mark.parametrize("field", KEY_FIELDS, ids=str)
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_stable_bases_are_the_maps_with_independent_residues(n, field):
    ctx = jordan._Context(n, field)
    for x, y in product(ctx.indecomposables(include_projective=True), repeat=2):
        basis = ctx.stable_basis(x, y)
        assert [b.matrix for b in basis] == stable_maps(ctx, x, y)
        # the keys of the basis are the unit vectors
        assert [b.key for b in basis] == list(linalg.Matrix.identity(field, len(basis)).data)
        assert [ctx.classify(x, y, b.matrix) for b in basis] == basis


def _coefficients(field, size):
    values = st.integers(-4, 4)
    if field == QQ:
        values = st.fractions(min_value=-4, max_value=4, max_denominator=5)
    return st.lists(values, min_size=size, max_size=size)


def _combination(field, coeffs, maps, shape):
    """sum(coeffs_i * maps_i), a rows x cols matrix."""
    acc = linalg.Matrix.zeros(field, *shape)
    for c, m in zip(coeffs, maps):
        acc = matrix_sum(acc, m.scale(c))
    return acc


@given(st.sampled_from(KEY_FIELDS), st.integers(3, 6), st.data())
@settings(max_examples=40, deadline=None)
def test_keys_are_the_coordinates_of_the_residue_classes(field, n, data):
    ctx = context(n, field)
    proj = ctx.projective
    for x, y in product(ctx.indecomposables(include_projective=True), repeat=2):
        shape = (y.dim, x.dim)
        homs = ctx.hom_basis(x, y)
        products = [g.mul(f) for f in ctx.hom_basis(x, proj) for g in ctx.hom_basis(proj, y)]
        f = _combination(field, data.draw(_coefficients(field, len(homs))), homs, shape)
        if data.draw(st.booleans()):  # a second map stably equal to f
            through = data.draw(_coefficients(field, len(products)))
            g = matrix_sum(f, _combination(field, through, products, shape))
        else:
            g = _combination(field, data.draw(_coefficients(field, len(homs))), homs, shape)
        keys = [ctx.classify(x, y, m).key for m in (f, g)]
        residues = [stable_residue(ctx, x, y, m) for m in (f, g)]
        assert (keys[0] == keys[1]) == (residues[0] == residues[1])
        basis = ctx.stable_basis(x, y)
        for m, key in zip((f, g), keys):
            assert len(key) == ctx.stable_dim(x, y)
            # m minus the key's combination of the basis factors through the projective
            spanned = _combination(field, key, [b.matrix for b in basis], shape)
            assert not any(stable_residue(ctx, x, y, matrix_sum(m, spanned.scale(-1))))


def _selection_matrix(field, selection, width):
    """The 0/1 matrix with row k the unit vector at selection[k], zero where that is -1."""
    units = linalg.Matrix.identity(field, width).data
    return [units[s] if s >= 0 else (field.zero,) * width for s in selection]


@pytest.mark.parametrize("field", KEY_FIELDS, ids=str)
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
@given(data=st.data())
@settings(max_examples=3, deadline=None)
def test_the_structure_constants_match_the_dense_reference(n, field, data):
    ctx = jordan._Context(n, field)
    for x, y in product(ctx.indecomposables(include_projective=True), repeat=2):
        assert [b.matrix for b in ctx.stable_basis(x, y)] == reduced(ctx, x, y)[1]
        homs = ctx.hom_basis(x, y)
        f = _combination(field, data.draw(_coefficients(field, len(homs))), homs, (y.dim, x.dim))
        assert ctx.classify(x, y, f).key == dense_key(ctx, x, y, f)
    for x, u, y in product(ctx.indecomposables(), repeat=3):
        table = dense_table(ctx, x, u, y)
        assert [[_unit_key(ctx, x, y, k) for k in row] for row in ctx._table(x, u, y)] == table
        for selections, matrices, width in (
            (ctx._post(x, u, y), dense_post(table), ctx.stable_dim(u, y)),
            (ctx._pre(x, u, y), dense_pre(table), ctx.stable_dim(x, u)),
        ):
            assert [_selection_matrix(field, s, width) for s in selections] == matrices


def test_a_product_that_is_not_a_basis_map_is_refused(monkeypatch):
    build = jordan._Context._injections.__wrapped__
    x = indec(4, 3)

    def cut(self, u, v):
        maps = build(self, u, v)
        if (u, v) == (x, x):  # drop the last entry of the identity's chain
            maps[-1] = dict(list(maps[-1].items())[:-1])
        return maps

    cut.__name__ = "_injections"
    monkeypatch.setattr(jordan._Context, "_injections", jordan._memo(cut))
    ctx = jordan._Context(4, GF(7))
    # t after the cut identity keeps one entry of t: neither zero nor a basis map
    with pytest.raises(InternalCheckError) as refused:
        ctx._products(x, x, x)
    assert str(refused.value) == "a product of basis maps J3 -> J3 -> J3 is not a basis map"


def test_two_products_on_one_stable_class_are_no_selection():
    assert jordan._selections([[1, None, 0]], 2) == ((2, 0),)
    with pytest.raises(InternalCheckError):
        jordan._selections([[0, None, 0]], 2)


@pytest.mark.parametrize("n, p", [(4, 3), (5, 2), (5, 7), (6, 2)])
def test_line_ranks_are_the_ranks_of_the_dense_composites(n, p):
    ctx = jordan._Context(n, GF(p))
    for x, u, y in product(ctx.indecomposables(), repeat=3):
        table = dense_table(ctx, x, u, y)
        for selections, matrices, d in (
            (ctx._post(x, u, y), dense_post(table), ctx.stable_dim(u, y)),
            (ctx._pre(x, u, y), dense_pre(table), ctx.stable_dim(x, u)),
        ):
            ranks = [
                len(linalg._echelon(p, [linalg._apply(p, m, c) for m in matrices]))
                for c in linalg._lines(GF(p), d)
            ]
            assert list(ctx._line_ranks(d, selections)) == ranks


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
    # the identity of J2 is the second stable basis class, t the first
    assert got.key == (0, 6)
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
    zero = zero_map(context(4), indec(4, 2), indec(4, 2))
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
    zero = zero_map(context(4), indec(4, 1), indec(4, 2))
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
        assert table.multiplicities().get(x.vertex(), 0) == mk.stable_hom_dim(x, m)


def test_bruteforce_layers_match_knitting():
    from meshknit import mesh, quiver

    q = quiver.build_tube(4)
    table = mk.radical_layers_bruteforce(indec(4, 1), k_max=3)
    knit = mesh.knit_layers(q, q.vertex(1), k_max=3, window=4)
    for k in range(4):
        assert table.row(k) == knit.row(k)


def _radical_layers_by_composition(m, k_max, field):
    """Layer rows of Hom(-, m) from composed matrices, the reference for the tables.

    Rad^k(X, m) is the span of the residues of h . g, h in the kept classes of
    Rad^{k-1}(Z, m) and g in ``rad_stable_basis(X, Z)``, each composed by ``compose``.
    """
    ctx = context(m.n, field)
    indecs = ctx.indecomposables()
    spans = {x: jordan.stable_basis(x, m, field) for x in indecs}
    dims = [{x: len(spans[x]) for x in indecs}]
    for _ in range(k_max + 1):
        grown = {}
        for x in indecs:
            space = Subspace(field, x.dim * m.dim)
            composites = (
                jordan.compose(h, g)
                for z in indecs
                for h in spans[z]
                for g in ctx.rad_stable_basis(x, z)
            )
            grown[x] = [h for h in composites if space.insert(stable_residue(ctx, x, m, h.matrix))]
        spans = grown
        dims.append({x: len(spans[x]) for x in indecs})
    return {
        k: {x.vertex(): dims[k][x] - dims[k + 1][x] for x in indecs if dims[k][x] != dims[k + 1][x]}
        for k in range(k_max + 1)
    }


@given(st.integers(3, 7), st.sampled_from([GF(2), GF(3), GF(32749), QQ]), st.data())
@settings(max_examples=60, deadline=None)
def test_bruteforce_layers_match_the_matrix_composition_reference(n, field, data):
    m = indec(n, data.draw(st.integers(1, n - 1)))
    k_max = data.draw(st.integers(0, 2 * n))
    table = mk.radical_layers_bruteforce(m, k_max, field)
    assert table.layers == _radical_layers_by_composition(m, k_max, field)
    assert (table.k_max, table.valid_through) == (k_max, k_max)


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


def _combine_by_matrices(ctx, x, y, basis, coeffs):
    """Reference ``combine``: the sum of the scaled basis matrices, classified."""
    acc = linalg.Matrix.zeros(ctx.field, y.dim, x.dim)
    for c, b in zip(coeffs, basis):
        if c:
            acc = matrix_sum(acc, b.matrix.scale(c))
    return ctx.classify(x, y, acc)


def _solver_by_matrix_squares(m, r, field):
    """Reference solver: each square F(g) . alpha_X - alpha_Y . g composed as matrices, F(g)
    being g or ``omega_map(g)``, and reduced to its residue modulo the projective maps."""
    ctx = context(m.n, field)

    def f_obj(x):
        return x if r % 2 == 0 else ctx.omega_object(x)

    def f_map(g):
        return g if r % 2 == 0 else ctx.omega_map(g)

    codomain = f_obj(m)
    basis = ctx.stable_basis(m, codomain)

    def square(x, y, g):
        fg = f_map(g).matrix if x == m else None

        def side(b):
            if y != m:
                return fg.mul(b)
            moved = b.mul(g.matrix).scale(-1)
            return moved if x != m else matrix_sum(fg.mul(b), moved)

        return [stable_residue(ctx, x, f_obj(y), side(b.matrix)) for b in basis]

    indecs = ctx.indecomposables()
    squares = (
        square(x, y, g) for x in indecs for y in indecs if m in (x, y) for g in ctx.stable_basis(x, y)
    )
    sols = linalg._kernel(ctx.field.char, len(basis), jordan._transposed(squares))
    solutions = [_combine_by_matrices(ctx, m, codomain, basis, c) for c in sols]
    omega_rule = codomain == ctx.omega_object(m)
    spanned = False
    if len(solutions) == 1 and omega_rule:
        # both residues are nonzero: they span one line exactly when only the first raises the rank
        span = Subspace(ctx.field, m.dim * codomain.dim)
        av, solution = ctx.av_class(m), solutions[0]
        residues = [stable_residue(ctx, m, codomain, f.matrix) for f in (av, solution)]
        spanned = span.extend(residues) == 1
    return jordan.SolverReport(m, r, codomain, len(solutions), solutions, omega_rule, spanned)


@given(st.integers(3, 7), st.integers(-3, 3), st.sampled_from([GF(2), GF(3), GF(32749), QQ]), st.data())
@settings(max_examples=80, deadline=None)
def test_solver_matches_the_matrix_square_reference(n, r, field, data):
    m = indec(n, data.draw(st.integers(1, n - 1)))
    got = mk.single_object_support_solver(m, r, field)
    want = _solver_by_matrix_squares(m, r, field)
    fields = ("module", "degree", "codomain", "dim", "omega_rule", "spanned_by_almost_vanishing")
    assert [getattr(got, name) for name in fields] == [getattr(want, name) for name in fields]
    assert [(b.source, b.target, b.key, b.matrix) for b in got.basis] == [
        (b.source, b.target, b.key, b.matrix) for b in want.basis
    ]


@pytest.mark.parametrize("field", [GF(2), GF(5), QQ])
@pytest.mark.parametrize("n", [3, 4, 6])
def test_combine_matches_the_matrix_sum_reference(n, field):
    ctx = context(n, field)
    proj = ctx.projective
    for x in ctx.indecomposables(include_projective=True):
        for y in ctx.indecomposables(include_projective=True):
            basis = ctx.stable_basis(x, y)
            # only pairs with the projective as an end have no stable class
            assert (not basis) == (proj in (x, y))
            coefficients = [(0,) * len(basis)]
            if field == QQ:
                coefficients.append(tuple(Fraction(k - 1, k + 2) for k in range(len(basis))))
            else:
                coefficients.append(tuple(range(1, len(basis) + 1)))
            for coeffs in coefficients:
                got = ctx.combine(x, y, coeffs)
                want = _combine_by_matrices(ctx, x, y, basis, coeffs)
                assert (got, got.key, got.matrix) == (want, want.key, want.matrix)
                assert got.key == field.coerce_row(coeffs)
            if not basis:
                zero = zero_map(ctx, x, y)
                got = ctx.combine(x, y, ())
                assert (got.key, got.matrix) == (zero.key, zero.matrix) == ((), zero.matrix)
                assert (got.matrix.rows, got.matrix.cols) == (y.dim, x.dim)


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
        out.append(ctx.combine(x, y, coeffs))
    return out


def _conditions_by_loops(ctx, f):
    """Reference almost-vanishing conditions, one flag-and-break loop each."""
    x, y = f.source, f.target
    conditions = {}
    ok = True
    for u in ctx.indecomposables():
        for u_class in ctx.class_lines(u, y):
            span = _span(ctx, x, y, (u_class.matrix.mul(b.matrix) for b in ctx.stable_basis(x, u)))
            if not span_contains(span, stable_residue(ctx, x, y, f.matrix)):
                ok = False
                break
        if not ok:
            break
    conditions["factors_through_incoming"] = ok
    ok = True
    for v in ctx.indecomposables():
        for v_class in ctx.class_lines(x, v):
            span = _span(ctx, x, y, (b.matrix.mul(v_class.matrix) for b in ctx.stable_basis(v, y)))
            if not span_contains(span, stable_residue(ctx, x, y, f.matrix)):
                ok = False
                break
        if not ok:
            break
    conditions["factors_through_outgoing"] = ok
    ok = True
    for u in ctx.indecomposables():
        for g in ctx.rad_stable_basis(u, x):
            if any(stable_residue(ctx, u, y, f.matrix.mul(g.matrix))):
                ok = False
                break
        if not ok:
            break
    conditions["kills_non_split_epis"] = ok
    ok = True
    for u in ctx.indecomposables():
        for h in ctx.rad_stable_basis(y, u):
            if any(stable_residue(ctx, x, u, h.matrix.mul(f.matrix))):
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
    span.extend(stable_residue(ctx, x, y, c) for c in composites)
    return span


def _image_comp_factors_by_class(ctx, f):
    """Reference image multiplicities, from this class's own composites.

    The multiplicity is the quotient dimension of their span against the
    zero subspace, that is its rank.
    """
    out = {}
    for v in ctx.indecomposables():
        composites = (f.matrix.mul(b.matrix) for b in ctx.stable_basis(v, f.source))
        mult = span_dim(_span(ctx, v, f.target, composites))
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
        return span_contains(_span(ctx, x, y, composites), stable_residue(ctx, x, y, f.matrix))

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
            any(stable_residue(ctx, u, y, f.matrix.mul(g.matrix)))
            for u in indecs
            for g in ctx.rad_stable_basis(u, x)
        ),
        "killed_by_non_split_monos": not any(
            any(stable_residue(ctx, x, u, h.matrix.mul(f.matrix)))
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
    return span_dim(_span(ctx, x, theta.target, composites)) == len(basis)


def _splits_by_class(ctx, theta):
    """Reference: some class b . theta is the identity, solved for per class."""
    u, v = theta.source, theta.target
    sections = (b.matrix.mul(theta.matrix) for b in ctx.stable_basis(v, u))
    columns = [stable_residue(ctx, u, u, s) for s in sections]
    lifts = linalg.Matrix(ctx.field, list(zip(*columns)))
    return linalg.solve(lifts, stable_residue(ctx, u, u, ctx.identity_map(u).matrix)) is not None


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


@pytest.mark.parametrize("n, p", [(4, 3), (5, 2)])
def test_a_mono_split_failure_names_its_line_by_its_coefficients(n, p, monkeypatch):
    # with no section found, every functor mono fails, as in the reference that finds none
    monkeypatch.setattr(jordan, "_spans", lambda p, vectors, phi: False)
    monkeypatch.setattr(sys.modules[__name__], "_splits_by_class", lambda ctx, theta: False)
    report = mk.mono_representable_split_check(n, GF(p))
    assert report.failures
    assert (report.ok, report.failures, report.stats) == _mono_split_by_class(n, GF(p))
    ctx = context(n, GF(p))
    for entry in report.failures:
        u, v = (indec(n, int(entry[end][1:])) for end in ("source", "target"))
        assert entry["class"] in list(linalg._lines(GF(p), ctx.stable_dim(u, v)))


def _check_sweeps_against_the_per_class_references(n, p):
    field = GF(p)
    ctx = context(n, field)
    for x in ctx.indecomposables():
        identity = ctx.identity_map(x).key
        for y in ctx.indecomposables():
            lines = ctx.class_lines(x, y)
            coordinates = [ctx.classify(x, y, f.matrix).key for f in lines]
            # A line's matrix classifies to its coefficient tuple, in enumeration order.
            assert coordinates == list(linalg._lines(field, ctx.stable_dim(x, y)))
            for f, phi in zip(lines, coordinates):
                assert mk.is_almost_vanishing(f).conditions == _av_report_by_class(f).conditions
                assert mk.image_comp_factors(f) == _image_comp_factors_by_class(ctx, f)
                for u in ctx.indecomposables():
                    composites = jordan._composites(0, ctx._post(u, x, y), phi)
                    image = linalg._echelon(p, composites)
                    assert (len(image) == ctx.stable_dim(u, x)) == _injective_by_class(ctx, f, u)
                composites = jordan._composites(0, ctx._pre(x, y, x), phi)
                sections = linalg._echelon(p, composites)
                splits = not any(linalg._residue(p, sections, identity))
                assert splits == _splits_by_class(ctx, f)
    report = mk.mono_representable_split_check(n, field)
    assert (report.ok, report.failures, report.stats) == _mono_split_by_class(n, field)
    for up_to_scalar in (False, True):
        report = mk.almost_vanishing_agreement_suite(n, field, up_to_scalar)
        reference = _suite_by_lines(ctx, up_to_scalar, _av_report_by_class)
        assert (report.ok, report.failures, report.stats) == reference


def _suite_by_lines(ctx, up_to_scalar, av_report):
    """Reference agreement suite: ``av_report`` on each line's class, counted p - 1 times
    without ``up_to_scalar``."""
    per_line = 1 if up_to_scalar else ctx.field.char - 1
    failures = []
    classes = found = 0
    for x in ctx.indecomposables():
        for y in ctx.indecomposables():
            for f in ctx.class_lines(x, y):
                classes += per_line
                rep = av_report(f)
                if not rep.agreement:
                    failures += [{"x": str(x), "y": str(y), "conditions": rep.conditions}] * per_line
                if rep.verdict:
                    found += per_line
                    if y != ctx.omega_object(x):
                        failures += [{"x": str(x), "y": str(y), "error": "wrong codomain"}] * per_line
    stats = {"classes": classes, "almost_vanishing": found, "up_to_scalar": up_to_scalar}
    return not failures, failures, stats


# n = 6 is the only allowed size with a three-dimensional stable Hom space, so the
# only one where the lines' images can meet in a proper line or plane.
SWEEP_CASES = [(n, p) for n in (3, 4, 5) for p in (2, 3, 5, 7)] + [(6, p) for p in (2, 3, 5)]


@given(st.sampled_from(SWEEP_CASES))
@settings(max_examples=30, deadline=None)
def test_shared_images_match_the_per_class_references(case):
    _check_sweeps_against_the_per_class_references(*case)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_sweeps_at_n6_match_the_per_class_references(p):
    _check_sweeps_against_the_per_class_references(6, p)


def test_coordinate_sweeps_match_the_per_class_references_at_many_lines():
    # Over GF(101) each two-dimensional stable Hom space at n = 5 has 102 lines.
    _check_sweeps_against_the_per_class_references(5, 101)


def _unit_key(ctx, x, y, position):
    """The key of a ``_table`` entry: the unit vector at its position, or zero for None."""
    units = linalg.Matrix.identity(ctx.field, ctx.stable_dim(x, y)).data
    return (ctx.field.zero,) * ctx.stable_dim(x, y) if position is None else units[position]


@pytest.mark.parametrize("p", [2, 3, 7])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_composition_tables_hold_the_composites(n, p):
    ctx = jordan._Context(n, GF(p))
    indecs = ctx.indecomposables()
    for x, u, y in product(indecs, repeat=3):
        table = ctx._table(x, u, y)
        assert len(table) == ctx.stable_dim(u, y)
        for b, row in zip(ctx.stable_basis(u, y), table):
            assert len(row) == ctx.stable_dim(x, u)
            for a, entry in zip(ctx.stable_basis(x, u), row):
                # the entry's class and b . a, compared as residues
                got = stable_residue(ctx, x, y, ctx.combine(x, y, _unit_key(ctx, x, y, entry)).matrix)
                assert got == stable_residue(ctx, x, y, b.matrix.mul(a.matrix))


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


def _patch_pair_conditions(monkeypatch, wrap):
    """Route every pair's almost-vanishing conditions through ``wrap(x, y, conditions)``."""
    built = jordan._Context._av_conditions

    def wrapped(self, x, y):
        return wrap(x, y, built(self, x, y))

    monkeypatch.setattr(jordan._Context, "_av_conditions", wrapped)


@pytest.mark.parametrize("p", [2, 5, 7])
def test_a_disagreeing_line_fails_once_per_class(p, monkeypatch):
    ctx = context(4, GF(p))
    x = y = indec(4, 2)
    line = ctx.class_lines(x, y)[1].key
    on_line = {tuple(c * a % p for a in line) for c in range(1, p)}

    def disagreeing(u, v, conditions):
        def flipped(phi):
            checks = conditions(phi)
            if (u, v) == (x, y) and phi in on_line:
                checks["image_is_simple"] = not checks["image_is_simple"]
            return checks

        return flipped

    _patch_pair_conditions(monkeypatch, disagreeing)
    for up_to_scalar, entries in ((False, p - 1), (True, 1)):
        report = mk.almost_vanishing_agreement_suite(4, GF(p), up_to_scalar)
        assert not report.ok
        assert len(report.failures) == entries
        assert all(entry["x"] == entry["y"] == "J2" for entry in report.failures)
        assert (report.ok, report.failures, report.stats) == _suite_by_classes(4, GF(p), up_to_scalar)


def test_oracle_checks_one_class_per_line(monkeypatch, tmp_path):
    calls = []

    def counting(x, y, conditions):
        def counted(phi):
            calls.append(phi)
            return conditions(phi)

        return counted

    _patch_pair_conditions(monkeypatch, counting)
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


def test_public_lists_are_fresh_copies_of_the_memo(monkeypatch):
    monkeypatch.setattr(jordan, "_contexts", OrderedDict())
    x, y = indec(5, 2), indec(5, 3)

    def answers():
        return (
            mk.hom_basis(x, y),
            [b.key for b in mk.stable_basis(x, y)],
            mk.stable_hom_dim(x, y),
            [c.key for c in mk.stable_class_lines(x, y)],
        )

    before = answers()
    assert before[2] == 2
    for got in (mk.hom_basis(x, y), mk.stable_basis(x, y), mk.stable_class_lines(x, y)):
        got.pop()
        assert answers() == before
        got.clear()
        assert answers() == before


@pytest.mark.parametrize("k_max", [-1, -3])
def test_negative_k_max_is_refused_as_knitting_refuses_it(k_max):
    from meshknit import mesh, quiver

    q = quiver.build_tube(5)
    with pytest.raises(UnsupportedParameterError) as knit:
        mesh.knit_layers(q, q.vertex(1), k_max, window=4)
    with pytest.raises(UnsupportedParameterError) as brute:
        mk.radical_layers_bruteforce(indec(5, 1), k_max)
    assert str(brute.value) == str(knit.value) == f"k_max must be >= 0, got {k_max}"


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


def test_composition_tables_are_built_once_per_context(monkeypatch):
    built = Counter()
    requested = Counter()
    for name in ("_table", "_av_conditions"):
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
    assert set(built) == {key for key in ctx._memo if key[0] in ("_table", "_av_conditions")}
    # Both sweeps and every checked class share the tables.
    assert sum(requested.values()) > len(built)


def test_the_memo_does_not_grow_with_the_number_of_lines(monkeypatch):
    sizes = []
    for p in (7, 173):
        monkeypatch.setattr(jordan, "_contexts", OrderedDict())
        field = GF(p)
        assert mk.mono_representable_split_check(5, field).ok
        assert mk.almost_vanishing_agreement_suite(5, field, up_to_scalar=True).ok
        sizes.append(len(context(5, field)._memo))
    assert sizes[0] == sizes[1]


@pytest.mark.parametrize("p", [2, 3, 31])
def test_scalar_multiples_share_their_line_images(p, monkeypatch):
    # Every nonzero multiple of a class, whatever its representative
    # matrix, has the multiple of its line's coordinates and the same
    # image factors, read from the tables the lines built.
    monkeypatch.setattr(jordan, "_contexts", OrderedDict())
    ctx = context(5, GF(p))
    x = indec(5, 3)
    lines = ctx.class_lines(x, x)
    assert len(lines) == p + 1
    factors = [mk.image_comp_factors(f) for f in lines]
    zero = zero_map(ctx, x, x)
    assert mk.image_comp_factors(zero) == {}
    # a nonzero map x -> x that factors through the projective
    proj = ctx.projective
    through = next(
        g.mul(h)
        for h in ctx.hom_basis(x, proj)
        for g in ctx.hom_basis(proj, x)
        if g.mul(h) != zero.matrix
    )
    size = len(ctx._memo)
    assert ctx.classify(x, x, through) == zero
    for f, expected in zip(lines, factors):
        phi = ctx.classify(x, x, f.matrix).key
        for c in range(1, p):
            g = ctx.classify(x, x, matrix_sum(f.matrix.scale(c), through))
            assert g.matrix != f.matrix
            assert g.key == tuple(c * a % p for a in phi)
            assert mk.image_comp_factors(g) == expected
    assert mk.image_comp_factors(ctx.classify(x, x, through)) == {}
    assert len(ctx._memo) == size


# -- context cache ----------------------------------------------------------------


class _Tracked(list):
    """A table that takes weak references (a plain list does not)."""


def test_an_evicted_context_frees_its_memo(monkeypatch):
    for name in ("_products", "_table"):
        build = getattr(jordan._Context, name).__wrapped__

        def tracked(self, *args, _build=build):
            return _Tracked(_build(self, *args))

        tracked.__name__ = name
        monkeypatch.setattr(jordan._Context, name, jordan._memo(tracked))
    ctx = context(3, GF(83))
    ctx.av_class(indec(3, 1))
    assert ctx._memo
    gone = weakref.ref(ctx)
    line = ctx.class_lines(indec(3, 1), indec(3, 2))[0]
    assert mk.is_almost_vanishing(line).verdict
    tracked = [got for (name, *_), got in ctx._memo.items() if name in ("_products", "_table")]
    assert {type(got) for got in tracked} == {_Tracked}
    tables = list(map(weakref.ref, tracked))
    del tracked
    del ctx, line
    for p in (89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167):
        context(3, GF(p))
    assert (3, 83) not in jordan._contexts
    gc.collect()
    assert gone() is None
    assert [table() for table in tables] == [None] * len(tables)


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
