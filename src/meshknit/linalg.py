"""Exact dense linear algebra over the rationals and prime fields.

Everything here is exact: rational entries are ``fractions.Fraction``,
prime-field entries are ints reduced mod p.  Floating point input is
rejected outright rather than coerced, since a single rounded entry
would poison every rank downstream.

The workhorse for the rest of the package is :class:`Subspace`, an
incrementally maintained reduced row echelon form.  It gives canonical
residues, so two vectors are congruent modulo the subspace exactly when
their residues are equal tuples.
"""

from __future__ import annotations

import operator
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Sequence

from .errors import DimensionError, FieldMismatchError


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class Field:
    """Coefficient field: ``char == 0`` means the rationals, else GF(char)."""

    char: int

    def __post_init__(self):
        if self.char != 0 and not _is_prime(self.char):
            raise ValueError(f"field characteristic must be 0 or prime, got {self.char}")

    def coerce(self, x):
        """Coerce an int or Fraction into this field; floats are rejected."""
        if isinstance(x, bool):
            raise TypeError("bool is not a field element")
        if isinstance(x, float):
            raise TypeError("floating point values are not accepted; use Fraction or int")
        if self.char == 0:
            if isinstance(x, (int, Fraction)):
                return Fraction(x)
            raise TypeError(f"cannot coerce {type(x).__name__} into the rationals")
        p = self.char
        if isinstance(x, int):
            return x % p
        if isinstance(x, Fraction):
            den = x.denominator % p
            if den == 0:
                raise ZeroDivisionError(f"denominator of {x} vanishes mod {p}")
            return (x.numerator % p) * pow(den, p - 2, p) % p
        raise TypeError(f"cannot coerce {type(x).__name__} into GF({p})")

    def coerce_row(self, row: Iterable) -> tuple:
        """Coerce a row of entries: ints mod p (Fractions over Q) pass straight through."""
        p = self.char
        if p:
            return tuple([x % p if type(x) is int else self.coerce(x) for x in row])
        return tuple([x if type(x) is Fraction else self.coerce(x) for x in row])

    @property
    def zero(self):
        return Fraction(0) if self.char == 0 else 0

    @property
    def one(self):
        return Fraction(1) if self.char == 0 else 1

    def add(self, a, b):
        return a + b if self.char == 0 else (a + b) % self.char

    def sub(self, a, b):
        return a - b if self.char == 0 else (a - b) % self.char

    def mul(self, a, b):
        return a * b if self.char == 0 else (a * b) % self.char

    def neg(self, a):
        return -a if self.char == 0 else (-a) % self.char

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("division by zero field element")
        if self.char == 0:
            return Fraction(1) / a
        return pow(a, self.char - 2, self.char)

    def __str__(self) -> str:
        return "Q" if self.char == 0 else f"GF({self.char})"


QQ = Field(0)


def GF(p: int) -> Field:
    return Field(p)


GF5 = GF(5)

class Matrix:
    """Immutable dense matrix with exact entries.

    Rows are stored as tuples.  Matrices act on column vectors, so an
    ``m x n`` matrix maps length-n vectors to length-m vectors.  The
    constructor coerces its entries; products, sums and scalings of
    matrices are built from entries already in the field.
    """

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, data: Iterable[Iterable]):
        rows = tuple(field.coerce_row(row) for row in data)
        width = len(rows[0]) if rows else 0
        if any(len(r) != width for r in rows):
            raise DimensionError("ragged rows in matrix literal")
        self.field = field
        self.rows = len(rows)
        self.cols = width
        self.data = rows

    @classmethod
    def _of(cls, field: Field, data: tuple, cols: int) -> "Matrix":
        """A matrix on rows of field elements, with its column count given."""
        m = cls.__new__(cls)
        m.field = field
        m.rows = len(data)
        m.cols = cols
        m.data = data
        return m

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        return cls._of(field, ((field.zero,) * cols,) * rows, cols)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        rows = tuple(tuple(field.one if i == j else field.zero for j in range(n)) for i in range(n))
        return cls._of(field, rows, n)

    def entry(self, i: int, j: int):
        return self.data[i][j]

    def row(self, i: int) -> tuple:
        return self.data[i]

    def mul(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise FieldMismatchError(f"cannot multiply over {self.field} and {other.field}")
        if self.cols != other.rows:
            raise DimensionError(f"shape mismatch: ({self.rows}x{self.cols}) * ({other.rows}x{other.cols})")
        f = self.field
        if not self.cols:
            return Matrix.zeros(f, self.rows, other.cols)
        columns = list(zip(*other.data))
        p = f.char
        if p:
            out = tuple(
                tuple(sum(map(operator.mul, r, c)) % p for c in columns) for r in self.data
            )
        else:
            out = tuple(
                tuple(sum((a * b for a, b in zip(r, c) if a and b), f.zero) for c in columns)
                for r in self.data
            )
        return Matrix._of(f, out, other.cols)

    def add(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise FieldMismatchError(f"cannot add over {self.field} and {other.field}")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError(
                f"shape mismatch: ({self.rows}x{self.cols}) + ({other.rows}x{other.cols})"
            )
        p = self.field.char
        pairs = zip(self.data, other.data)
        if p:
            out = tuple(tuple((a + b) % p for a, b in zip(r1, r2)) for r1, r2 in pairs)
        else:
            out = tuple(tuple(map(operator.add, r1, r2)) for r1, r2 in pairs)
        return Matrix._of(self.field, out, self.cols)

    def scale(self, c) -> "Matrix":
        f = self.field
        c = f.coerce(c)
        p = f.char
        if p:
            out = tuple(tuple(c * x % p for x in row) for row in self.data)
        else:
            out = tuple(tuple(c * x for x in row) for row in self.data)
        return Matrix._of(f, out, self.cols)

    def flatten(self) -> tuple:
        """Row-major flattening, used to treat maps as vectors."""
        return tuple(chain.from_iterable(self.data))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.field, self.data))

    def __repr__(self) -> str:
        return f"Matrix({self.field}, {[list(r) for r in self.data]!r})"


class Subspace:
    """A subspace of F^n maintained in reduced row echelon form.

    ``insert`` adds a spanning vector, ``residue`` returns the canonical
    representative of a vector modulo the subspace, and ``contains`` is
    residue-is-zero.  Because the stored rows are mutually reduced, the
    residue is a canonical form: congruent vectors reduce identically.
    """

    def __init__(self, field: Field, ambient_dim: int):
        self.field = field
        self.ambient_dim = ambient_dim
        # pivot column -> normalized, fully reduced row; pivots kept sorted
        self._rows: dict[int, tuple] = {}
        self._pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def _minus(self, v: Sequence, coeff, row: tuple) -> tuple:
        """v - coeff * row, entrywise."""
        p = self.field.char
        if p:
            return tuple([(a - coeff * b) % p for a, b in zip(v, row)])
        return tuple([a - coeff * b if b else a for a, b in zip(v, row)])

    def _reduce(self, vec: Sequence) -> tuple:
        v = self.field.coerce_row(vec)
        if len(v) != self.ambient_dim:
            raise DimensionError(f"vector length {len(v)} != ambient dim {self.ambient_dim}")
        rows = self._rows
        for c in self._pivots:
            coeff = v[c]
            if coeff:
                v = self._minus(v, coeff, rows[c])
        return v

    def residue(self, vec: Sequence) -> tuple:
        return self._reduce(vec)

    def contains(self, vec: Sequence) -> bool:
        return not any(self._reduce(vec))

    def insert(self, vec: Sequence) -> bool:
        """Add a vector to the spanning set; True if the rank grew."""
        f = self.field
        v = self._reduce(vec)
        pivot = next((j for j, x in enumerate(v) if x), None)
        if pivot is None:
            return False
        inv = f.inv(v[pivot])
        p = f.char
        v = tuple([inv * x % p for x in v] if p else [inv * x for x in v])
        # keep existing rows reduced against the new pivot
        rows = self._rows
        for c, row in rows.items():
            coeff = row[pivot]
            if coeff:
                rows[c] = self._minus(row, coeff, v)
        rows[pivot] = v
        insort(self._pivots, pivot)
        return True

    def extend(self, vecs: Iterable[Sequence]) -> int:
        """Insert each vector; the number that raised the rank."""
        return sum(map(self.insert, vecs))

    def basis(self) -> list[tuple]:
        """RREF basis rows ordered by pivot column."""
        return [self._rows[c] for c in self._pivots]


def rank(m: Matrix) -> int:
    space = Subspace(m.field, m.cols)
    space.extend(m.data)
    return space.rank


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and the pivot columns."""
    space = Subspace(m.field, m.cols)
    space.extend(m.data)
    return Matrix._of(m.field, tuple(space.basis()), m.cols), tuple(space._pivots)


def kernel_basis(m: Matrix) -> list[tuple]:
    """Basis of the right kernel {v : m v = 0}, one vector per free column.

    Deterministic: vectors are ordered by their free column index, and
    each has a 1 in its free column.
    """
    reduced, pivots = rref(m)
    pivot_set = set(pivots)
    f = m.field
    basis = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        v = [f.zero] * m.cols
        v[free] = f.one
        for r, pcol in zip(reduced.data, pivots):
            # pivot entry is 1, so the pivot coordinate is -r[free]
            v[pcol] = f.neg(r[free])
        basis.append(tuple(v))
    return basis


def solve(m: Matrix, b: Sequence):
    """One solution of m x = b, or None when inconsistent.

    The particular solution is canonical: free coordinates are zero.
    """
    if len(b) != m.rows:
        raise DimensionError(f"rhs length {len(b)} != row count {m.rows}")
    f = m.field
    b = f.coerce_row(b)
    if m.rows == 0:
        return (f.zero,) * m.cols
    aug = Matrix._of(f, tuple(row + (bi,) for row, bi in zip(m.data, b)), m.cols + 1)
    reduced, pivots = rref(aug)
    if m.cols in pivots:
        return None
    x = [f.zero] * m.cols
    for r, pcol in zip(reduced.data, pivots):
        x[pcol] = r[m.cols]
    return tuple(x)
