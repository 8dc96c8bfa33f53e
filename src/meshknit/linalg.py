"""Exact dense linear algebra over the rationals and prime fields.

Everything here is exact: rational entries are ``fractions.Fraction``,
prime-field entries are ints reduced mod p.  Floating point input is
rejected outright rather than coerced, since a single rounded entry
would poison every rank downstream.

The one row-reduction loop is ``_residue``: it reduces a vector by
(pivot, row) pairs, each row 0 at the pivots before its own.
``_echelon`` collects such pairs fraction-free, on plain rows already in
the field (the matrix model's short coordinate vectors), which is all
``rank`` needs; ``_clear`` scales one to 1 at its pivot and clears that
pivot from the others, which keeps reduced row echelon form for
``_kernel`` (behind ``kernel_basis``).  The plain-row
helpers stay private, so the benchmark's span tracer leaves them
unwrapped.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from typing import Iterable, Sequence

from .errors import DimensionError, FieldMismatchError, UnsupportedParameterError


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
    if p == 0:  # Field(0) is the rationals
        raise ValueError("field characteristic must be prime, got 0")
    return Field(p)


GF5 = GF(5)

class Matrix:
    """Immutable dense matrix with exact entries.

    Rows are stored as tuples.  Matrices act on column vectors, so an
    ``m x n`` matrix maps length-n vectors to length-m vectors.  The
    constructor coerces its entries; products and scalings of matrices
    are built from entries already in the field.
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
                [tuple([sum(map(operator.mul, r, c)) % p for c in columns]) for r in self.data]
            )
        else:
            out = tuple(
                tuple(sum((a * b for a, b in zip(r, c) if a and b), f.zero) for c in columns)
                for r in self.data
            )
        return Matrix._of(f, out, other.cols)

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


def rank(m: Matrix) -> int:
    return len(_echelon(m.field.char, m.data))


def kernel_basis(m: Matrix) -> list[tuple]:
    """Basis of the right kernel {v : m v = 0}, one vector per free column.

    Deterministic: vectors are ordered by their free column index, and
    each has a 1 in its free column and 0 in the others.
    """
    return _kernel(m.field.char, m.cols, m.data)


def _lines(field: Field, d: int):
    """Coefficient tuples of the lines of F^d, first nonzero coefficient 1, in ``product`` order."""
    p = field.char
    if p == 0:
        raise UnsupportedParameterError("full class enumeration needs a finite coefficient field")
    return (
        (0,) * k + (1,) + tail
        for k in reversed(range(d))
        for tail in product(range(p), repeat=d - 1 - k)
    )


def _apply(p: int, rows, a) -> list:
    """The matrix with these rows times the column vector a, over GF(p), or over Q when p is 0."""
    if p:
        return [sum(map(operator.mul, a, row)) % p for row in rows]
    return [sum(map(operator.mul, a, row)) for row in rows]


def _mix(p: int, coeffs, vectors) -> tuple:
    """sum(coeffs_i * vectors_i); vectors nonempty."""
    return tuple(_apply(p, zip(*vectors), coeffs))


def _echelon(p: int, vectors, rows=()) -> list[tuple[int, Sequence]]:
    """(pivot, row) pairs spanning the vectors and the given ``_echelon`` rows, each row
    0 at the pivots before its own."""
    rows = list(rows)
    for v in vectors:
        if rows:
            v = _residue(p, rows, v)
        for i, a in enumerate(v):
            if a:
                rows.append((i, v))
                break
    return rows


def _residue(p: int, rows: Iterable[tuple[int, Sequence]], v: Sequence) -> Sequence:
    """A nonzero multiple of v reduced by (pivot, row) pairs, each row 0 at the pivots
    before its own: zero exactly if v is in their span.  The only reduction loop here."""
    for pivot, row in rows:
        a = v[pivot]
        if a:
            b = row[pivot]
            if p:
                v = [(b * s - a * r) % p for s, r in zip(v, row)]
            else:
                v = [b * s - a * r for s, r in zip(v, row)]
    return v


def _clear(p: int, reduced: dict, pivot: int, v: Sequence) -> None:
    """Add v, nonzero at pivot and 0 at the pivots of ``reduced``, to those rows: scaled
    to 1 at its pivot and cleared from the other rows, so each row stays 1 at its own
    pivot and 0 at the others."""
    inv = pow(v[pivot], p - 2, p) if p else 1 / Fraction(v[pivot])
    v = tuple([inv * a % p for a in v] if p else [inv * a for a in v])
    for q, row in reduced.items():
        reduced[q] = tuple(_residue(p, [(pivot, v)], row))  # row - row[pivot] v
    reduced[pivot] = v


def _kernel(p: int, width: int, rows) -> list[tuple]:
    """``kernel_basis`` of the matrix with these rows and width columns; a full-rank
    system is told by its ``_echelon`` rows alone."""
    echelon = _echelon(p, rows)
    if len(echelon) == width:
        return []
    # Each echelon row is 0 at the pivots before its own, as ``_clear`` needs.
    reduced: dict[int, tuple] = {}
    for pivot, v in echelon:
        _clear(p, reduced, pivot, v)
    zero, one = (0, 1) if p else (Fraction(0), Fraction(1))
    basis = []
    for free in range(width):
        if free not in reduced:
            w = [zero] * width
            w[free] = one
            for pivot, row in reduced.items():
                w[pivot] = -row[free] % p if p else -row[free]
            basis.append(tuple(w))
    return basis


def _spans(p: int, vectors, phi: tuple) -> bool:
    """Whether phi lies in the span of the vectors."""
    return not any(_residue(p, _echelon(p, vectors), phi))
