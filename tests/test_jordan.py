"""Brute-force matrix model of the stable category of k[t]/(t^n)."""

import gc
import importlib.util
import sys
import weakref
from collections import Counter, OrderedDict
from fractions import Fraction
from itertools import combinations_with_replacement, product
from pathlib import Path

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
    dense_ar_sequence,
    dense_key,
    dense_omega_map,
    dense_omega_object,
    dense_post,
    dense_pre,
    dense_table,
    echelon_killed_by_radical,
    echelon_radical_layers,
    matrix_sum,
    rad_module_basis,
    rad_stable_basis,
    radical_rows,
    reduced,
    solve,
    span_contains,
    span_dim,
    stable_maps,
    stable_residue,
    t_matrix,
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
    tx, ty = t_matrix(ctx.field, x), t_matrix(ctx.field, y)
    eqs = []
    for r in range(dy):
        for c in range(dx):
            row = [0] * (dy * dx)
            for k in range(dy):
                if ty.data[r][k]:
                    row[k * dx + c] += 1
            for k in range(dx):
                if tx.data[k][c]:
                    row[r * dx + k] -= 1
            eqs.append(row)
    system = linalg.Matrix(ctx.field, eqs)
    return [ctx._unflatten(v, dy, dx) for v in linalg._kernel(ctx.field.char, system.cols, system.data)]


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


@pytest.mark.parametrize("n, field", [(4, GF(2)), (5, GF(3)), (5, QQ), (6, GF(7))])
def test_omega_map_preserves_every_composite_of_basis_classes(n, field):
    # omega_map reads the structure constants; compose multiplies matrices and classifies
    ctx = context(n, field)
    for x, u, y in product(ctx.indecomposables(), repeat=3):
        for f, g in product(ctx.stable_basis(x, u), ctx.stable_basis(u, y)):
            assert ctx.omega_map(ctx.compose(g, f)) == ctx.compose(ctx.omega_map(g), ctx.omega_map(f))


_ORACLE_FIELDS = [GF(2), GF(3), GF(32749), QQ]


def _random_map(ctx, x, y, data):
    """A random combination of ``hom_basis(x, y)``: a class with a part through J_n."""
    coefficients = data.draw(st.lists(st.integers(-3, 3), min_size=len(ctx.hom_basis(x, y)),
                                      max_size=len(ctx.hom_basis(x, y))))
    acc = linalg.Matrix.zeros(ctx.field, y.dim, x.dim)
    for c, b in zip(coefficients, ctx.hom_basis(x, y)):
        acc = matrix_sum(acc, b.scale(c))
    return ctx.classify(x, y, acc)


def _ar_fields(seq):
    return (seq.module, seq.middle, seq.middle_stable, seq.has_projective_summand, seq.left,
            seq.right, seq.connecting, seq.checks)


def _check_syzygies_against_the_dense_references(ctx, pairs, modules):
    for x, y in pairs:
        want = [dense_omega_map(ctx, g).key for g in ctx.stable_basis(x, y)]
        assert ctx._omega_coordinates(x, y) == want, (x, y)
        for g in ctx.stable_basis(x, y):
            assert ctx.omega_map(g).key == dense_omega_map(ctx, g).key
    for m in modules:
        got = mk.ar_sequence(m, ctx.field)
        assert _ar_fields(got) == _ar_fields(dense_ar_sequence(m, ctx.field))
        assert got.verified, got.checks


@given(st.integers(3, 7), st.sampled_from(_ORACLE_FIELDS), st.data())
@settings(max_examples=60, deadline=None)
def test_syzygies_and_ar_sequences_match_the_dense_references(n, field, data):
    ctx = context(n, field)
    i = data.draw(st.integers(1, n - 1))
    j = data.draw(st.integers(1, n - 1))
    x, y = indec(n, i), indec(n, j)
    _check_syzygies_against_the_dense_references(ctx, [(x, y)], [x])
    f = _random_map(ctx, x, y, data)
    assert ctx.omega_map(f).key == dense_omega_map(ctx, f).key


@pytest.mark.parametrize("field", _ORACLE_FIELDS)
@pytest.mark.parametrize("n", [8, 9])
def test_syzygies_and_ar_sequences_match_the_dense_references_at_n_8_and_9(n, field):
    ctx = context(n, field)
    indecs = ctx.indecomposables()
    _check_syzygies_against_the_dense_references(ctx, product(indecs, repeat=2), indecs)


@given(st.integers(3, 9), st.sampled_from(_ORACLE_FIELDS), st.data())
@settings(max_examples=200, deadline=None)
def test_radical_classes_are_the_nonzero_classes_of_the_dense_radical(n, field, data):
    # the dense radical is built by definition, t . End(x) for x = y, and keyed by residues
    ctx = context(n, field)
    x = indec(n, data.draw(st.integers(1, n)))
    for y in (x, indec(n, data.draw(st.integers(1, n)))):
        keys = [dense_key(ctx, x, y, u) for u in rad_module_basis(ctx, x, y)]
        assert [g.key for g in rad_stable_basis(ctx, x, y)] == [key for key in keys if any(key)]


@pytest.mark.parametrize("emptied, message", [
    ("covers", "projective lift does not exist"),  # no L with pi_y . L = g . pi_x
    ("kernels", "lift does not preserve cover kernels"),  # no h with kappa_y . h = L . kappa_x
])
def test_an_emptied_structure_constant_table_is_an_internal_error(emptied, message):
    ctx = jordan._Context(5, GF(7))
    x, y, proj = indec(5, 2), indec(5, 3), ctx.projective
    table = {"covers": ctx._products(proj, proj, y),
             "kernels": ctx._products(ctx.omega_object(x), ctx.omega_object(y), proj)}[emptied]
    table[:] = [[] for _ in table]
    with pytest.raises(InternalCheckError) as refused:
        ctx._omega_coordinates(x, y)
    assert str(refused.value) == message
    # the refusal stores nothing, and the other pairs still lift
    assert ("_omega_coordinates", x, y) not in ctx._memo
    assert ctx._omega_coordinates(y, x) == [dense_omega_map(ctx, g).key for g in ctx.stable_basis(y, x)]


@pytest.mark.parametrize("dropped, memo, message", [
    ("identity", ("_radical", indec(5, 2), indec(5, 2)), "a canonical map J2 -> J2 is not a basis map"),
    ("cover", ("_omega_coordinates", indec(5, 2), indec(5, 3)), "a canonical map J5 -> J2 is not a basis map"),
    ("kernel", ("_omega_coordinates", indec(5, 2), indec(5, 3)), "a canonical map J3 -> J5 is not a basis map"),
])
def test_a_canonical_map_that_is_no_basis_map_is_an_internal_error(dropped, memo, message):
    ctx = jordan._Context(5, GF(7))
    x, proj = indec(5, 2), ctx.projective
    # the identity of J2, the cover J5 ->> J2 and its kernel J3 -> J5, as partial injections
    pair, injection = {"identity": ((x, x), {0: 0, 1: 1}), "cover": ((proj, x), {0: 0, 1: 1}),
                       "kernel": ((ctx.omega_object(x), proj), {0: 2, 1: 3, 2: 4})}[dropped]
    _drop_basis_map(ctx, pair, injection)
    with pytest.raises(InternalCheckError) as refused:
        getattr(ctx, memo[0])(*memo[1:])
    assert str(refused.value) == message
    assert memo not in ctx._memo


def _drop_basis_map(ctx, pair, injection):
    """Drop a partial injection from its pair's basis and from the pair's memoized index."""
    index = ctx._basis_index(*pair)
    ctx._injections(*pair).remove(injection)
    del index[tuple(injection.items())]


@pytest.mark.parametrize("dropped, message", [
    ("cover", "a canonical map J5 -> J2 is not a basis map"),
    ("kernel", "a canonical map J3 -> J5 is not a basis map"),
])
def test_omega_object_refuses_a_cover_or_kernel_that_is_no_basis_map(dropped, message):
    ctx = jordan._Context(5, GF(7))
    x, proj = indec(5, 2), ctx.projective
    # the cover J5 ->> J2 and the inclusion J3 -> J5 of its kernel, as partial injections
    pair, injection = {"cover": ((proj, x), {0: 0, 1: 1}),
                       "kernel": ((indec(5, 3), proj), {0: 2, 1: 3, 2: 4})}[dropped]
    _drop_basis_map(ctx, pair, injection)
    memo = set(ctx._memo)
    for _ in range(2):
        with pytest.raises(InternalCheckError) as refused:
            ctx.omega_object(x)
        assert str(refused.value) == message
    assert ("omega_object", x) not in ctx._memo
    # the lookups memoize only the index of the pairs they read
    assert {key[0] for key in set(ctx._memo) - memo} <= {"_basis_index", "_injections"}
    assert ctx.omega_object(indec(5, 3)) == x


@pytest.mark.parametrize("field", _ORACLE_FIELDS, ids=str)
def test_omega_object_matches_the_dense_reference(field):
    for n in range(3, 17):
        ctx = jordan._Context(n, field)
        for x in ctx.indecomposables():
            assert ctx.omega_object(x) == dense_omega_object(ctx, x) == indec(n, n - x.block)


def test_a_zero_product_after_the_cover_kernel_is_a_zero_key():
    ctx = jordan._Context(5, GF(7))
    x, y, proj = indec(5, 2), indec(5, 3), ctx.projective
    moved = ctx._products(ctx.omega_object(x), proj, proj)
    moved[:] = [[None] * len(row) for row in moved]
    assert ctx._omega_coordinates(x, y) == [(0, 0)] * 2


def test_the_syzygies_and_ar_checks_multiply_no_matrices(monkeypatch):
    ctx = jordan._Context(6, GF(11))
    monkeypatch.setitem(jordan._contexts, (6, 11), ctx)
    indecs = ctx.indecomposables()
    # a cold omega_object looks its cover and kernel up among the basis maps: no matrix
    built = Counter()
    real_init, real_of = linalg.Matrix.__init__, linalg.Matrix._of.__func__

    def init(self, *args):
        built["__init__"] += 1
        real_init(self, *args)

    def of_counted(cls, *args):
        built["_of"] += 1
        return real_of(cls, *args)

    with monkeypatch.context() as patched:
        patched.setattr(linalg.Matrix, "__init__", init)
        patched.setattr(linalg.Matrix, "_of", classmethod(of_counted))
        assert [ctx.omega_object(m) for m in indecs] == list(reversed(indecs))
    assert built == {}
    products = []
    real_mul, real_hom_basis = linalg.Matrix.mul, jordan._Context.hom_basis

    def mul(a, b):
        products.append((a.rows, a.cols, b.cols))
        return real_mul(a, b)

    def hom_basis(self, x, y):
        assert (x, y) != (self.projective, self.projective)
        return real_hom_basis(self, x, y)

    monkeypatch.setattr(linalg.Matrix, "mul", mul)
    monkeypatch.setattr(jordan._Context, "hom_basis", hom_basis)
    assert not hasattr(jordan, "solve")
    for x, y in product(indecs, repeat=2):
        for g in ctx.stable_basis(x, y):
            ctx.omega_map(g)
    assert products == []
    for m in indecs:
        assert mk.ar_sequence(m, ctx.field).verified
    # one product per sequence: right . left, its composite_zero check
    assert products == [(m.block, m.block * 2, m.block) for m in indecs]
    # warm, a sequence reads right's coefficients once and reads the radical maps by index:
    # it builds, classifies and reads back no matrix per radical map
    calls = Counter()

    def counted(owner, name):
        real = getattr(owner, name)

        def call(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(owner, name, call)

    for owner, name in [(jordan._Context, "_coefficients"), (jordan._Context, "classify"),
                        (jordan._Context, "_matrix"), (linalg.Matrix, "__init__")]:
        counted(owner, name)
    for m in indecs:
        calls.clear()
        seq = mk.ar_sequence(m, ctx.field)
        # built: the middle's canonical maps, left and right
        assert calls == {"_coefficients": 1, "__init__": 2 * len(seq.middle.blocks) + 2}
    # the unit vectors a sequence reads are built alone, with no identity matrix: a warm
    # sequence of J1 builds only its own matrices, a part of right scaled by -1, right . left
    # and the zero i x i matrix
    built = []
    real_of = linalg.Matrix._of.__func__

    def of(cls, field, data, cols):
        built.append((len(data), cols))
        return real_of(cls, field, data, cols)

    monkeypatch.setattr(linalg.Matrix, "_of", classmethod(of))
    assert mk.ar_sequence(indec(6, 1), ctx.field).verified
    assert built == [(1, 2), (1, 1), (1, 1)]


# the parent's messages: a decomposable end is refused before a projective one
_SYZYGY_REFUSALS = [
    ((4,), (2,), "J4 is projective; omega is undefined"),
    ((2,), (4,), "J4 is projective; omega is undefined"),
    ((2, 1), (2,), "J2+J1 is not indecomposable"),
    ((2,), (2, 1), "J2+J1 is not indecomposable"),
    ((4,), (2, 1), "J2+J1 is not indecomposable"),
    ((2, 1), (4,), "J2+J1 is not indecomposable"),
]


@pytest.mark.parametrize("source, target, message", _SYZYGY_REFUSALS)
def test_omega_map_refuses_projective_and_decomposable_ends(source, target, message):
    ctx = context(4)
    x, y = jordan.JordanModule(source, 4), jordan.JordanModule(target, 4)
    with pytest.raises(PreconditionError) as refused:
        mk.omega_map(zero_map(ctx, x, y))
    assert str(refused.value) == message


@pytest.mark.parametrize("blocks, message", [
    ((4,), "J4 is projective; no almost split sequence"),
    ((2, 1), "J2+J1 is not indecomposable"),
    ((), "0 is not indecomposable"),
])
def test_ar_sequence_refuses_projective_and_decomposable_modules(blocks, message):
    with pytest.raises(PreconditionError) as refused:
        mk.ar_sequence(jordan.JordanModule(blocks, 4))
    assert str(refused.value) == message


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
    t = t_matrix(GF5, indec(4, 2))
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
        m = indec(4, i)
        assert mk.image_comp_factors(mk.almost_vanishing_class(m)) == {m: 1}
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
                for g in rad_stable_basis(ctx, x, z)
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


@pytest.mark.parametrize("field", [GF(2), GF(32749)], ids=str)
@pytest.mark.parametrize("n", [4, 10, 11, 12])
def test_bruteforce_layers_match_knitting(n, field):
    from meshknit import mesh, quiver

    tube = quiver.build_tube(n)
    for i in range(1, n):
        brute = mk.radical_layers_bruteforce(indec(n, i), 2 * n, field)
        knit = mesh.knit_layers(tube, tube.vertex(i), k_max=2 * n, window=4)
        assert [knit.row(k) for k in range(knit.valid_through + 1)] == [
            brute.row(k) for k in range(knit.valid_through + 1)
        ]
        # nothing survives past the recurrence's validity range
        assert not any(brute.row(k) for k in range(knit.valid_through + 1, 2 * n + 1))


def _check_positions_against_the_echelon_references(ctx, x, y, m, k_max, phis):
    """The position-set routes against ``tests/references.py``'s echelon routes: the radical
    layers of m, ``killed_by_radical(x, y)``, and the epis and monos conditions on each phi."""
    assert mk.radical_layers_bruteforce(m, k_max, ctx.field) == echelon_radical_layers(m, k_max, ctx.field)
    assert ctx.killed_by_radical(x, y) == echelon_killed_by_radical(ctx, x, y)
    if not ctx.stable_dim(x, y):
        return
    p, rows = ctx.field.char, radical_rows(ctx, x, y)
    reached = {"epis": ctx._reached_by_radical_into(x, y), "monos": ctx._reached_by_radical_out_of(x, y)}
    # the conditions' line sweeps stay affordable over GF(2) and GF(3) only
    conditions = ctx._av_conditions(x, y) if p in (2, 3) else None
    for phi in map(ctx.field.coerce_row, phis):
        # f holds exactly when its key is zero at the reached positions
        want = {name: not any(linalg._apply(p, rows[name], phi)) for name in rows}
        assert {name: not any(phi[s] for s in reached[name]) for name in rows} == want
        if conditions:
            checks = conditions(phi)
            assert checks["kills_non_split_epis"] == want["epis"]
            assert checks["killed_by_non_split_monos"] == want["monos"]


@given(st.integers(3, 9), st.sampled_from(_ORACLE_FIELDS), st.data())
@settings(max_examples=120, deadline=None)
def test_position_sets_match_the_echelon_references(n, field, data):
    ctx = context(n, field)
    indecs = ctx.indecomposables()
    x, y, m = (data.draw(st.sampled_from(indecs)) for _ in range(3))
    k_max = data.draw(st.integers(0, 2 * n))
    d = ctx.stable_dim(x, y)
    # random classes, and random classes in each reference kernel, where the conditions hold
    coefficients = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    phis = data.draw(st.lists(coefficients, max_size=4))
    for rows in radical_rows(ctx, x, y).values():
        kernel = linalg._kernel(ctx.field.char, d, rows)
        if kernel:
            mix = data.draw(st.lists(st.integers(-3, 3), min_size=len(kernel), max_size=len(kernel)))
            phis.append(linalg._mix(ctx.field.char, ctx.field.coerce_row(mix), kernel))
    phis = [phi for phi in phis if any(ctx.field.coerce_row(phi))]  # the conditions' domain
    _check_positions_against_the_echelon_references(ctx, x, y, m, k_max, phis)


@pytest.mark.parametrize("n, field", [(10, QQ), (11, GF(2)), (12, GF(3)), (12, GF(32749))], ids=str)
def test_position_sets_match_the_echelon_references_at_larger_ranks(n, field):
    ctx = context(n, field)
    indecs = ctx.indecomposables()
    for i, x in enumerate(indecs):
        # every m for the layers; the pairs from x, each with its unit classes, the
        # all-ones class and the references' kernel vectors
        y = indecs[(3 * i + 1) % len(indecs)]
        d = ctx.stable_dim(x, y)
        phis = [*jordan._units(ctx.field, d, range(d)), (1,) * d]
        for rows in radical_rows(ctx, x, y).values():
            phis += linalg._kernel(ctx.field.char, d, rows)
        _check_positions_against_the_echelon_references(ctx, x, y, x, 2 * n, phis)


@pytest.mark.parametrize("call", ["radical_layers_bruteforce", "killed_by_radical", "is_almost_vanishing"])
def test_two_products_on_one_class_are_refused_where_positions_are_read(call, monkeypatch):
    ctx = jordan._Context(5, GF(7))
    monkeypatch.setitem(jordan._contexts, (5, 7), ctx)
    x, y = indec(5, 3), indec(5, 2)
    table = ctx._table(x, x, y)
    assert table == [[None, 0], [0, 1]]
    # the second class J3 -> J2 after the second class J3 -> J3 lands on the first class
    # J3 -> J2 too: a fixed factor on either side sends two classes to one position
    table[1][1] = 0
    run = {
        "radical_layers_bruteforce": lambda: mk.radical_layers_bruteforce(y, 4, ctx.field),
        "killed_by_radical": lambda: ctx.killed_by_radical(x, y),
        "is_almost_vanishing": lambda: mk.is_almost_vanishing(ctx.stable_basis(x, y)[0]),
    }[call]
    with pytest.raises(InternalCheckError) as refused:
        run()
    assert str(refused.value) == "two products give one stable class"


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


def _load_workloads():
    """The benchmark's workload module, which runs the oracle cross-check jobs."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_solver_and_a_crosscheck_job_build_no_identity_matrix(monkeypatch):
    monkeypatch.setattr(jordan, "_contexts", OrderedDict())
    m, field = indec(6, 1), GF(11)
    for r in range(4):
        mk.single_object_support_solver(m, r, field)
    built = []
    real_identity = linalg.Matrix.identity.__func__

    def identity(cls, field, n):
        built.append(n)
        return real_identity(cls, field, n)

    monkeypatch.setattr(linalg.Matrix, "identity", classmethod(identity))
    # warm: the unit keys of each pair touching m come from ``_units``
    assert all(mk.single_object_support_solver(m, r, field).matches_rule for r in range(4))
    assert built == []
    # a cold n = 9 cross-check job: layers, suites, almost split sequences and solver
    workloads = _load_workloads()
    assert workloads._check_oracle(workloads._oracle(mk, 9, GF(101))) is None
    assert built == []


def _combine_by_matrices(ctx, x, y, basis, coeffs):
    """Reference ``combine``: the sum of the scaled basis matrices, classified."""
    acc = linalg.Matrix.zeros(ctx.field, y.dim, x.dim)
    for c, b in zip(coeffs, basis):
        if c:
            acc = matrix_sum(acc, b.matrix.scale(c))
    return ctx.classify(x, y, acc)


def _solver_by_matrix_squares(m, r, field):
    """Reference solver: each square F(g) . alpha_X - alpha_Y . g composed as matrices, F(g)
    being g or its dense lift ``dense_omega_map``, and reduced to its residue modulo the
    projective maps."""
    ctx = context(m.n, field)

    def f_obj(x):
        return x if r % 2 == 0 else ctx.omega_object(x)

    def f_map(g):
        return g if r % 2 == 0 else dense_omega_map(ctx, g)

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
        for g in rad_stable_basis(ctx, u, x):
            if any(stable_residue(ctx, u, y, f.matrix.mul(g.matrix))):
                ok = False
                break
        if not ok:
            break
    conditions["kills_non_split_epis"] = ok
    ok = True
    for u in ctx.indecomposables():
        for h in rad_stable_basis(ctx, y, u):
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
            for g in rad_stable_basis(ctx, u, x)
        ),
        "killed_by_non_split_monos": not any(
            any(stable_residue(ctx, x, u, h.matrix.mul(f.matrix)))
            for u in indecs
            for h in rad_stable_basis(ctx, y, u)
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
    return solve(lifts, stable_residue(ctx, u, u, ctx.identity_map(u).matrix)) is not None


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
