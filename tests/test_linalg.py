"""Exact linear algebra over the rationals and prime fields."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from meshknit import linalg as la
from meshknit.errors import DimensionError, FieldMismatchError
from references import Subspace, matrix_sum, rref, solve, span_contains, span_dim, subspace_basis


# -- helpers only the tests use ---------------------------------------------------


def span_rank(field, vectors, ambient_dim):
    space = Subspace(field, ambient_dim)
    space.extend(vectors)
    return span_dim(space)


def quotient_dim(field, space, subspace, ambient_dim):
    """dim(span(space) / (span(space) ∩ span(subspace))), by the modular law."""
    sub = Subspace(field, ambient_dim)
    sub.extend(subspace)
    sub_rank = span_dim(sub)
    sub.extend(space)
    return span_dim(sub) - sub_rank


def apply(m, vec):
    """Matrix times column vector."""
    column = la.Matrix(m.field, [[x] for x in vec])
    return m.mul(column).flatten()


def transpose(m):
    return la.Matrix(m.field, list(zip(*m.data)))


def kernel(m):
    """Basis of the right kernel of m, one vector per free column."""
    return la._kernel(m.field.char, m.cols, m.data)


def test_rank_of_dependent_rows():
    m = la.Matrix(la.QQ, [[1, 2], [2, 4]])
    assert la.rank(m) == 1


def test_kernel_of_dependent_rows():
    m = la.Matrix(la.QQ, [[1, 2], [2, 4]])
    assert kernel(m) == [(Fraction(-2), Fraction(1))]


def test_rref_drops_zero_rows_and_reports_pivots():
    m = la.Matrix(la.QQ, [[2, 4], [1, 2]])
    reduced, pivots = rref(m)
    assert reduced.data == ((1, 2),)
    assert pivots == (0,)


def test_solve_exact_rational_solution():
    m = la.Matrix(la.QQ, [[1, 2], [3, 4]])
    sol = solve(m, [5, 6])
    assert sol == (Fraction(-4), Fraction(9, 2))
    assert apply(m, sol) == (5, 6)


def test_solve_inconsistent_system_returns_none():
    m = la.Matrix(la.QQ, [[1, 2], [2, 4]])
    assert solve(m, [0, 1]) is None


def test_quotient_dim():
    assert quotient_dim(la.QQ, [[1, 0], [0, 1]], [[1, 1]], 2) == 1
    assert quotient_dim(la.QQ, [[1, 0], [0, 1]], [], 2) == 2


def test_span_rank_ignores_duplicates():
    assert span_rank(la.QQ, [[1, 2], [2, 4], [0, 1]], 2) == 2


def test_nonprime_characteristic_rejected():
    with pytest.raises(ValueError):
        la.Field(4)
    with pytest.raises(ValueError):
        la.GF(1)
    with pytest.raises(ValueError):
        la.GF(0)  # Field(0) is the rationals, la.QQ


def test_floats_and_bools_are_not_exact_scalars():
    with pytest.raises(TypeError):
        la.QQ.coerce(0.5)
    with pytest.raises(TypeError):
        la.GF5.coerce(True)


def test_field_mismatch_is_loud():
    a = la.Matrix(la.QQ, [[1]])
    b = la.Matrix(la.GF5, [[1]])
    with pytest.raises(FieldMismatchError):
        a.mul(b)


def test_shape_mismatch_is_loud():
    a = la.Matrix(la.QQ, [[1, 2]])
    with pytest.raises(DimensionError):
        a.mul(a)


def test_subspace_insert_and_residue():
    s = Subspace(la.QQ, 3)
    assert s.insert([1, 1, 0])
    assert not s.insert([2, 2, 0])
    assert s.insert([0, 0, 1])
    assert span_dim(s) == 2
    assert span_contains(s, [3, 3, 7])
    assert s.residue([1, 1, 1]) == (0, 0, 0)
    assert s.residue([0, 1, 0]) != (0, 0, 0)


small_entries = st.integers(min_value=-6, max_value=6)


@st.composite
def rational_matrices(draw, max_dim=5):
    rows = draw(st.integers(min_value=1, max_value=max_dim))
    cols = draw(st.integers(min_value=1, max_value=max_dim))
    data = draw(
        st.lists(
            st.lists(small_entries, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return la.Matrix(la.QQ, data)


@given(rational_matrices())
def test_rank_equals_rank_of_transpose(m):
    assert la.rank(m) == la.rank(transpose(m))


@given(rational_matrices())
def test_rank_nullity(m):
    assert la.rank(m) + len(kernel(m)) == m.cols


@given(rational_matrices())
def test_kernel_vectors_are_in_the_kernel(m):
    for vec in kernel(m):
        assert apply(m, vec) == tuple([0] * m.rows)


@given(rational_matrices(max_dim=4))
@settings(max_examples=60)
def test_rref_is_idempotent(m):
    reduced, _ = rref(m)
    if reduced.rows == 0:
        return
    again, _ = rref(reduced)
    assert again.data == reduced.data


sign_matrices = st.lists(
    st.lists(st.sampled_from([-1, 1]), min_size=4, max_size=4),
    min_size=4,
    max_size=4,
)


# Large enough that the small sign matrices below cannot lose rank mod p.
CROSS_CHECK_PRIME = 65521


@given(sign_matrices)
def test_rational_rank_agrees_with_large_prime(rows):
    # Sign matrices cannot hit the cross-check characteristic, so the
    # three computations must agree exactly.
    over_q = span_rank(la.QQ, rows, len(rows[0]))
    assert over_q == span_rank(la.GF(CROSS_CHECK_PRIME), rows, len(rows[0]))
    assert over_q == la.rank(la.Matrix(la.QQ, rows))


@given(rational_matrices(max_dim=3), rational_matrices(max_dim=3))
@settings(max_examples=60)
def test_matrix_product_shapes_or_errors(a, b):
    if a.cols == b.rows:
        prod = a.mul(b)
        assert (prod.rows, prod.cols) == (a.rows, b.cols)
    else:
        with pytest.raises(DimensionError):
            a.mul(b)


# -- the plain-int kernels against references built on one field operation at a time --


def add(f, a, b):
    return a + b if f.char == 0 else (a + b) % f.char


def sub(f, a, b):
    return a - b if f.char == 0 else (a - b) % f.char


def mul(f, a, b):
    return a * b if f.char == 0 else (a * b) % f.char


def inv(f, a):
    if a == 0:
        raise ZeroDivisionError("division by zero field element")
    return Fraction(1) / a if f.char == 0 else pow(a, f.char - 2, f.char)


def ref_mul(a, b):
    f = a.field
    out = []
    for r in a.data:
        row = []
        for c in zip(*b.data):
            acc = f.zero
            for x, y in zip(r, c):
                acc = add(f, acc, mul(f, x, y))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def ref_add(a, b):
    f = a.field
    return tuple(tuple(add(f, x, y) for x, y in zip(r1, r2)) for r1, r2 in zip(a.data, b.data))


def ref_scale(a, c):
    f = a.field
    c = f.coerce(c)
    return tuple(tuple(mul(f, c, x) for x in row) for row in a.data)


class RefSubspace:
    """Row echelon form kept one field operation at a time, pivots sorted per use."""

    def __init__(self, field, ambient_dim):
        self.field = field
        self.ambient_dim = ambient_dim
        self.rows = {}

    def residue(self, vec):
        f = self.field
        v = [f.coerce(x) for x in vec]
        for c in sorted(self.rows):
            coeff = v[c]
            for j, x in enumerate(self.rows[c]):
                v[j] = sub(f, v[j], mul(f, coeff, x))
        return tuple(v)

    def insert(self, vec):
        f = self.field
        v = self.residue(vec)
        pivot = next((j for j, x in enumerate(v) if x), None)
        if pivot is None:
            return False
        scale = inv(f, v[pivot])
        v = tuple(mul(f, scale, x) for x in v)
        for c, row in self.rows.items():
            coeff = row[pivot]
            self.rows[c] = tuple(sub(f, a, mul(f, coeff, b)) for a, b in zip(row, v))
        self.rows[pivot] = v
        return True

    def basis(self):
        return [self.rows[c] for c in sorted(self.rows)]


def ref_kernel_basis(m):
    f = m.field
    space = RefSubspace(f, m.cols)
    for row in m.data:
        space.insert(row)
    pivots = sorted(space.rows)
    basis = []
    for free in range(m.cols):
        if free in space.rows:
            continue
        v = [f.zero] * m.cols
        v[free] = f.one
        for pcol in pivots:
            v[pcol] = sub(f, f.zero, space.rows[pcol][free])
        basis.append(tuple(v))
    return basis


def ref_solve(m, b):
    f = m.field
    space = RefSubspace(f, m.cols + 1)
    for row, bi in zip(m.data, b):
        space.insert(list(row) + [bi])
    if m.cols in space.rows:
        return None
    x = [f.zero] * m.cols
    for pcol, row in space.rows.items():
        x[pcol] = row[m.cols]
    return tuple(x)


KERNEL_FIELDS = [la.QQ, la.GF(2), la.GF(3), la.GF(32749)]


def _is_field_element(field, x):
    return type(x) is Fraction if field.char == 0 else type(x) is int and 0 <= x < field.char


@given(st.sampled_from(KERNEL_FIELDS), st.data())
@settings(max_examples=150, deadline=None)
def test_plain_int_kernels_match_the_field_method_references(field, data):
    rows = data.draw(st.integers(min_value=1, max_value=4))
    inner = data.draw(st.integers(min_value=1, max_value=4))
    cols = data.draw(st.integers(min_value=1, max_value=4))
    entries = st.integers(min_value=-40000, max_value=40000) | st.fractions(max_denominator=5).filter(
        lambda q: field.char == 0 or q.denominator % field.char
    )

    def matrix(r, c):
        return la.Matrix(field, data.draw(st.lists(st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r)))

    a, b, a2 = matrix(rows, inner), matrix(inner, cols), matrix(rows, inner)
    product = a.mul(b)
    assert (product.rows, product.cols) == (rows, cols)
    assert product.data == ref_mul(a, b)
    assert matrix_sum(a, a2).data == ref_add(a, a2)
    c = data.draw(entries)
    assert a.scale(c).data == ref_scale(a, c)
    for m in (product, matrix_sum(a, a2), a.scale(c)):
        assert all(_is_field_element(field, x) for x in m.flatten())

    space, ref = Subspace(field, cols), RefSubspace(field, cols)
    for vec in list(b.data) + list(product.data):
        assert space.insert(vec) == ref.insert(vec)
        assert subspace_basis(space) == ref.basis()
    for vec in data.draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), max_size=4)):
        assert space.residue(vec) == ref.residue(vec)
        assert all(_is_field_element(field, x) for x in space.residue(vec))
        assert span_contains(space, vec) == (not any(ref.residue(vec)))

    assert kernel(product) == ref_kernel_basis(product)
    rhs = data.draw(st.lists(entries, min_size=rows, max_size=rows))
    assert solve(product, rhs) == ref_solve(product, [field.coerce(x) for x in rhs])


@given(
    st.sampled_from(KERNEL_FIELDS),
    st.sampled_from(["drawn", "a zero row", "a zero column", "full rank"]),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_plain_row_kernels_match_the_reference(field, shape, data):
    width = data.draw(st.integers(min_value=0, max_value=5))
    entries = st.integers(min_value=-40000, max_value=40000) | st.fractions(max_denominator=5).filter(
        lambda q: field.char == 0 or q.denominator % field.char
    )
    rows = data.draw(st.lists(st.lists(entries, min_size=width, max_size=width), max_size=5))
    if shape == "a zero row":
        rows.insert(data.draw(st.integers(min_value=0, max_value=len(rows))), [0] * width)
    elif shape == "a zero column":
        at = data.draw(st.integers(min_value=0, max_value=width))
        rows = [row[:at] + [0] + row[at:] for row in rows]
        width += 1
    elif shape == "full rank":
        rows += la.Matrix.identity(field, width).data
    # plain rows hold field elements
    rows = [field.coerce_row(row) for row in rows]
    m = la.Matrix._of(field, tuple(rows), width)
    kernel = la._kernel(field.char, width, rows)
    assert kernel == ref_kernel_basis(m)
    assert all(_is_field_element(field, x) for v in kernel for x in v)
    if shape == "full rank":
        assert kernel == []
    # a zero right-hand side, one drawn, and one nonzero
    drawn = data.draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
    for rhs in ([0] * len(rows), drawn, [1] * len(rows)):
        rhs = field.coerce_row(rhs)
        solution = solve(m, rhs)
        assert solution == ref_solve(m, rhs)
        assert solution is None or all(_is_field_element(field, x) for x in solution)
    assert la.rank(m) == width - len(kernel)


NOT_EXACT = [0.5, 1.0, True, False, "1"]


@pytest.mark.parametrize("field", [la.QQ, la.GF(7)])
@pytest.mark.parametrize("bad", NOT_EXACT)
def test_inexact_entries_raise_at_every_boundary(field, bad):
    with pytest.raises(TypeError):
        la.Matrix(field, [[1, bad]])
    space = Subspace(field, 2)
    space.insert([1, 1])
    for method in (space.insert, space.residue):
        with pytest.raises(TypeError):
            method([0, bad])
    m = la.Matrix(field, [[1, 0], [0, 1]])
    with pytest.raises(TypeError):
        m.scale(bad)
    with pytest.raises(TypeError):
        solve(m, [1, bad])


def test_a_matrix_without_rows_keeps_its_columns():
    for field in (la.QQ, la.GF5):
        empty = la.Matrix.zeros(field, 0, 3)
        assert (empty.rows, empty.cols) == (0, 3)
        reduced, pivots = rref(la.Matrix(field, [[0, 0, 0], [0, 0, 0]]))
        assert (reduced.rows, reduced.cols, pivots) == (0, 3, ())
        product = la.Matrix.zeros(field, 2, 0).mul(empty)
        assert (product.rows, product.cols) == (2, 3)
        assert product == la.Matrix.zeros(field, 2, 3)
