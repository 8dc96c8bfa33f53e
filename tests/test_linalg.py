"""Exact linear algebra over the rationals and prime fields."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from meshknit import linalg as la
from meshknit.errors import DimensionError, FieldMismatchError


def test_rank_of_dependent_rows():
    m = la.Matrix(la.QQ, [[1, 2], [2, 4]])
    assert la.rank(m) == 1


def test_kernel_of_dependent_rows():
    m = la.Matrix(la.QQ, [[1, 2], [2, 4]])
    assert la.kernel_basis(m) == [(Fraction(-2), Fraction(1))]


def test_rref_drops_zero_rows_and_reports_pivots():
    m = la.Matrix(la.QQ, [[2, 4], [1, 2]])
    reduced, pivots = la.rref(m)
    assert reduced.data == ((1, 2),)
    assert pivots == (0,)


def test_solve_exact_rational_solution():
    m = la.Matrix(la.QQ, [[1, 2], [3, 4]])
    sol = la.solve(m, [5, 6])
    assert sol == (Fraction(-4), Fraction(9, 2))
    assert m.apply(sol) == (5, 6)


def test_solve_inconsistent_system_returns_none():
    m = la.Matrix(la.QQ, [[1, 2], [2, 4]])
    assert la.solve(m, [0, 1]) is None


def test_quotient_dim():
    assert la.quotient_dim(la.QQ, [[1, 0], [0, 1]], [[1, 1]], 2) == 1
    assert la.quotient_dim(la.QQ, [[1, 0], [0, 1]], [], 2) == 2


def test_span_rank_ignores_duplicates():
    assert la.span_rank(la.QQ, [[1, 2], [2, 4], [0, 1]], 2) == 2


def test_prime_field_arithmetic():
    f = la.GF5
    assert f.inv(2) == 3
    assert f.mul(3, 4) == 2
    assert f.add(4, 4) == 3
    assert f.coerce(-1) == 4


def test_nonprime_characteristic_rejected():
    with pytest.raises(ValueError):
        la.Field(4)
    with pytest.raises(ValueError):
        la.GF(1)


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
    s = la.Subspace(la.QQ, 3)
    assert s.insert([1, 1, 0])
    assert not s.insert([2, 2, 0])
    assert s.insert([0, 0, 1])
    assert s.rank == 2
    assert s.contains([3, 3, 7])
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
    assert la.rank(m) == la.rank(m.transpose())


@given(rational_matrices())
def test_rank_nullity(m):
    assert la.rank(m) + len(la.kernel_basis(m)) == m.cols


@given(rational_matrices())
def test_kernel_vectors_are_in_the_kernel(m):
    for vec in la.kernel_basis(m):
        assert m.apply(vec) == tuple([0] * m.rows)


@given(rational_matrices(max_dim=4))
@settings(max_examples=60)
def test_rref_is_idempotent(m):
    reduced, _ = la.rref(m)
    if reduced.rows == 0:
        return
    again, _ = la.rref(reduced)
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
    over_q = la.span_rank(la.QQ, rows, len(rows[0]))
    assert over_q == la.span_rank(la.GF(CROSS_CHECK_PRIME), rows, len(rows[0]))
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
