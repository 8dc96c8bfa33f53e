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

from dataclasses import dataclass
from fractions import Fraction
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
    ``m x n`` matrix maps length-n vectors to length-m vectors.
    """

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, data: Iterable[Iterable]):
        rows = tuple(tuple(field.coerce(x) for x in row) for row in data)
        if rows:
            width = len(rows[0])
            for r in rows:
                if len(r) != width:
                    raise DimensionError("ragged rows in matrix literal")
        else:
            width = 0
        self.field = field
        self.rows = len(rows)
        self.cols = width
        self.data = rows

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        return cls(field, [[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def entry(self, i: int, j: int):
        return self.data[i][j]

    def row(self, i: int) -> tuple:
        return self.data[i]

    def transpose(self) -> "Matrix":
        return Matrix(self.field, list(zip(*self.data)) if self.data else [])

    def mul(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise FieldMismatchError(f"cannot multiply over {self.field} and {other.field}")
        if self.cols != other.rows:
            raise DimensionError(f"shape mismatch: ({self.rows}x{self.cols}) * ({other.rows}x{other.cols})")
        f = self.field
        columns = list(zip(*other.data))
        out = []
        for r in self.data:
            out_row = []
            for c in columns:
                acc = f.zero
                for a, b in zip(r, c):
                    if a and b:
                        acc = f.add(acc, f.mul(a, b))
                out_row.append(acc)
            out.append(out_row)
        return Matrix(f, out)

    def add(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise FieldMismatchError(f"cannot add over {self.field} and {other.field}")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError(
                f"shape mismatch: ({self.rows}x{self.cols}) + ({other.rows}x{other.cols})"
            )
        f = self.field
        return Matrix(
            f,
            [
                [f.add(a, b) for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.data, other.data)
            ],
        )

    def scale(self, c) -> "Matrix":
        f = self.field
        c = f.coerce(c)
        return Matrix(f, [[f.mul(c, x) for x in row] for row in self.data])

    def apply(self, vec: Sequence) -> tuple:
        """Matrix times column vector."""
        if len(vec) != self.cols:
            raise DimensionError(f"vector length {len(vec)} != column count {self.cols}")
        f = self.field
        v = [f.coerce(x) for x in vec]
        out = []
        for r in self.data:
            acc = f.zero
            for a, b in zip(r, v):
                if a and b:
                    acc = f.add(acc, f.mul(a, b))
            out.append(acc)
        return tuple(out)

    def flatten(self) -> tuple:
        """Row-major flattening, used to treat maps as vectors."""
        return tuple(x for row in self.data for x in row)

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
        # pivot column -> normalized, fully reduced row (as list)
        self._rows: dict[int, list] = {}

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduce(self, vec: Sequence) -> list:
        f = self.field
        v = [f.coerce(x) for x in vec]
        if len(v) != self.ambient_dim:
            raise DimensionError(f"vector length {len(v)} != ambient dim {self.ambient_dim}")
        for c in sorted(self._rows):
            coeff = v[c]
            if coeff:
                row = self._rows[c]
                for j in range(c, self.ambient_dim):
                    if row[j]:
                        v[j] = f.sub(v[j], f.mul(coeff, row[j]))
        return v

    def residue(self, vec: Sequence) -> tuple:
        return tuple(self._reduce(vec))

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
        v = [f.mul(inv, x) for x in v]
        # keep existing rows reduced against the new pivot
        for c, row in self._rows.items():
            coeff = row[pivot]
            if coeff:
                self._rows[c] = [f.sub(a, f.mul(coeff, b)) for a, b in zip(row, v)]
        self._rows[pivot] = v
        return True

    def extend(self, vecs: Iterable[Sequence]) -> int:
        added = 0
        for v in vecs:
            if self.insert(v):
                added += 1
        return added

    def basis(self) -> list[tuple]:
        """RREF basis rows ordered by pivot column."""
        return [tuple(self._rows[c]) for c in sorted(self._rows)]


def span_rank(field: Field, vectors: Iterable[Sequence], ambient_dim: int) -> int:
    space = Subspace(field, ambient_dim)
    space.extend(vectors)
    return space.rank


def rank(m: Matrix) -> int:
    return span_rank(m.field, m.data, m.cols)


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and the pivot columns."""
    space = Subspace(m.field, m.cols)
    space.extend(m.data)
    pivots = tuple(sorted(space._rows))
    return Matrix(m.field, space.basis()), pivots


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
    aug = Matrix(f, [list(row) + [bi] for row, bi in zip(m.data, [f.coerce(x) for x in b])] or [])
    if m.rows == 0:
        return tuple([f.zero] * m.cols)
    reduced, pivots = rref(aug)
    if m.cols in pivots:
        return None
    x = [f.zero] * m.cols
    for r, pcol in zip(reduced.data, pivots):
        x[pcol] = r[m.cols]
    return tuple(x)


def quotient_dim(field: Field, space: Sequence[Sequence], subspace: Sequence[Sequence], ambient_dim: int) -> int:
    """dim(span(space) / (span(space) ∩ span(subspace))).

    Computed as rank(space ∪ subspace) - rank(subspace), which equals the
    stated dimension by the modular law for subspace dimensions.
    """
    for v in list(space) + list(subspace):
        if len(v) != ambient_dim:
            raise DimensionError(f"vector length {len(v)} != ambient dim {ambient_dim}")
    sub = Subspace(field, ambient_dim)
    sub.extend(subspace)
    sub_rank = sub.rank
    sub.extend(space)
    return sub.rank - sub_rank
