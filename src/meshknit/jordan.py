"""Brute-force matrix model of the stable module category of k[t]/(t^n).

Indecomposable modules are Jordan blocks J_1..J_n for the nilpotent
action of t, with J_n projective (and injective).  Morphisms are
matrices commuting with the t-actions, with a monomial basis: each basis
map is the 0/1 indicator of a chain of entries, a partial injection.
Every product of two basis maps is composed and looked up among the
basis maps of its pair (one that is neither zero nor a basis map raises
InternalCheckError), so the stable basis is the basis maps that no
product through the projective hits.  A morphism class, a coset modulo
maps factoring through projectives, is keyed by its coordinates on that
basis, read off the chains of a representative, so class equality is
representative independent.  Everything is computed by explicit
enumeration and exact arithmetic.  That is the point: this module is the
ground truth the mesh-category calculators on the tube quiver are
validated against.

Quantifiers "for all objects" are evaluated over indecomposables only.
That suffices because every object is a finite direct sum of
indecomposables and each checked condition is additive in the
quantified object: a map out of a sum is a tuple of maps out of the
summands, a sum map is a split epimorphism iff some component is, and
spans and ranks decompose accordingly.

The default coefficient field is GF(5); the algebra parameter n is
independent of the characteristic.  Checks that range over all
morphism classes rather than a basis require a finite field.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field as dataclass_field
from functools import wraps

from .errors import (
    DimensionError,
    FieldMismatchError,
    InternalCheckError,
    PreconditionError,
    UnsupportedParameterError,
)
from .linalg import GF5, Field, Matrix, kernel_basis, rank
from .linalg import _apply, _echelon, _kernel, _lines, _mix, _residue, _spans
from .mesh import LayerTable
from .quiver import TUBE, Vertex


@dataclass(frozen=True)
class JordanModule:
    """A finite module over k[t]/(t^n): a multiset of Jordan block sizes."""

    blocks: tuple[int, ...]
    n: int

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(sorted(self.blocks, reverse=True)))
        if self.n < 3:
            raise UnsupportedParameterError(f"algebra parameter n must be >= 3, got {self.n}")
        for b in self.blocks:
            if not 1 <= b <= self.n:
                raise PreconditionError(f"block size {b} outside 1..{self.n}")
        # modules key every memoized context method: hash each once
        object.__setattr__(self, "_hash", hash((self.blocks, self.n)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def dim(self) -> int:
        return sum(self.blocks)

    @property
    def is_indecomposable(self) -> bool:
        return len(self.blocks) == 1

    @property
    def block(self) -> int:
        if not self.is_indecomposable:
            raise PreconditionError(f"{self} is not indecomposable")
        return self.blocks[0]

    def vertex(self) -> Vertex:
        """The tube-quiver vertex of an indecomposable non-projective module."""
        i = self.block
        if i == self.n:
            raise PreconditionError(f"{self} is projective; it has no stable vertex")
        return Vertex(TUBE, (i,))

    def __str__(self) -> str:
        if not self.blocks:
            return "0"
        return "+".join(f"J{b}" for b in self.blocks)


def indec(n: int, i: int) -> JordanModule:
    return JordanModule((i,), n)


class StableMap:
    """A morphism class in the stable category.

    ``matrix`` is an equivariant representative; ``key`` is the class's
    coordinates on ``stable_basis(source, target)``: ``matrix`` minus
    ``sum(key_i * basis_i.matrix)`` factors through the projective.  So two
    StableMaps are equal exactly when they are stably equal.
    """

    __slots__ = ("source", "target", "matrix", "key")

    def __init__(self, source: JordanModule, target: JordanModule, matrix: Matrix, key: tuple):
        self.source = source
        self.target = target
        self.matrix = matrix
        self.key = key

    @property
    def is_zero(self) -> bool:
        return not any(self.key)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StableMap)
            and self.source == other.source
            and self.target == other.target
            and self.matrix.field == other.matrix.field
            and self.key == other.key
        )

    def __hash__(self):
        return hash((self.source, self.target, self.matrix.field, self.key))

    def __repr__(self) -> str:
        return f"StableMap({self.source} -> {self.target} over {self.matrix.field})"


@dataclass
class CheckReport:
    """Verdict of one oracle-side verification sweep."""

    name: str
    ok: bool
    failures: list = dataclass_field(default_factory=list)
    stats: dict = dataclass_field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.ok


@dataclass
class AlmostVanishingReport:
    """Per-condition verdicts for the almost-vanishing characterization.

    The five computations must agree; ``agreement`` records whether they
    did.  A stably zero input short-circuits to verdict False.
    """

    source: JordanModule
    target: JordanModule
    verdict: bool
    conditions: dict[str, bool]
    note: str | None = None

    @property
    def agreement(self) -> bool:
        if self.note is not None:
            return True
        return len(set(self.conditions.values())) == 1

    def __bool__(self) -> bool:
        return self.verdict


@dataclass
class SocleReport:
    module: JordanModule
    socle_vertex: Vertex
    dims: dict[int, int]
    ok: bool


@dataclass
class SolverReport:
    """Solution space of the one-object naturality system.

    ``codomain`` is the forced value object; ``omega_rule`` records
    whether it coincides with the syzygy of the module, which is exactly
    when a nonzero solution is supposed to exist; ``matches_rule`` is
    the full assertion (dimension and almost-vanishing span included).
    """

    module: JordanModule
    degree: int
    codomain: JordanModule
    dim: int
    basis: list[StableMap]
    omega_rule: bool
    spanned_by_almost_vanishing: bool

    @property
    def matches_rule(self) -> bool:
        if self.omega_rule:
            return self.dim == 1 and self.spanned_by_almost_vanishing
        return self.dim == 0


@dataclass
class ARSequence:
    """An almost split sequence 0 -> m -> middle -> m -> 0 with its checks.

    ``middle`` is the full middle term including a projective block when
    one occurs; ``middle_stable`` drops it.  ``connecting`` is the
    canonical almost-vanishing class m -> Omega(m) attached to the
    sequence.  ``checks`` records exactness, non-splitness and the
    lifting property, each verified by linear algebra.
    """

    module: JordanModule
    middle: JordanModule
    middle_stable: JordanModule
    has_projective_summand: bool
    left: Matrix
    right: Matrix
    connecting: StableMap
    checks: dict[str, bool]

    @property
    def verified(self) -> bool:
        return all(self.checks.values())


def _selections(columns, width: int) -> tuple:
    """Per column of ``_Context._table`` positions: the tuple s of length width with s[k]
    the row whose entry is k, -1 where none is (see ``_composites``)."""
    forms = []
    for column in columns:
        rows = {k: i for i, k in enumerate(column) if k is not None}
        if len(rows) < len(column) - column.count(None):
            raise InternalCheckError("two products give one stable class", witness=column)
        forms.append(tuple(rows.get(k, -1) for k in range(width)))
    return tuple(forms)


def _composites(zero, selections, a) -> list[list]:
    """The composites of ``_Context._post`` or ``_pre`` selections with the coordinates a:
    each picks a's coordinates, zero where it holds -1."""
    a = (*a, zero)
    return [[a[s] for s in selection] for selection in selections]


def _units(field: Field, d: int, positions) -> list[tuple]:
    """The unit vectors of F^d at the positions, the zero vector at None."""
    zero = (field.zero,) * d
    return [zero if k is None else (*zero[:k], field.one, *zero[k + 1 :]) for k in positions]


def _picked(reads) -> set:
    """The positions some ``_pre`` or ``_post`` selection picks, reads giving per table the
    selections and the positions of the fixed factors: every composite with those factors
    is zero exactly when the other factor's key is zero at these positions, since a fixed
    factor sends distinct classes to distinct classes or to zero (``_selections``)."""
    return {s for selections, factors in reads for k in factors for s in selections[k] if s >= 0}


def _transposed(blocks) -> list[tuple]:
    """The rows of each block's transpose, in turn: each block's vectors mix to zero under
    a exactly when every row r has r . a = 0."""
    return [row for block in blocks for row in zip(*block)]


_MISSING = object()


def _memo(method):
    """Memoize a method in its context's ``_memo`` by (name, *args); a raise stores nothing."""
    name = method.__name__

    @wraps(method)
    def memoized(self, *args):
        key = (name, *args)
        got = self._memo.get(key, _MISSING)
        if got is _MISSING:
            got = self._memo[key] = method(self, *args)
        return got

    return memoized


class _Context:
    """Hom/stable-Hom data for one (n, field) pair, memoized per method and arguments."""

    def __init__(self, n: int, field: Field):
        if n < 3:
            raise UnsupportedParameterError(f"need n >= 3, got {n}")
        self.n = n
        self.field = field
        # J_1..J_n, built once so that memo hits compare modules by identity
        self._modules = tuple(indec(n, i) for i in range(1, n + 1))
        self.projective = self._modules[-1]
        self._memo: dict = {}

    # -- plumbing --------------------------------------------------------
    def indecomposables(self, include_projective: bool = False) -> tuple[JordanModule, ...]:
        return self._modules if include_projective else self._modules[:-1]

    def check_module(self, x: JordanModule) -> JordanModule:
        if x.n != self.n:
            raise FieldMismatchError(f"module over k[t]/(t^{x.n}) used in n={self.n} context")
        return x

    @_memo
    def t_matrix(self, x: JordanModule) -> Matrix:
        d = x.dim
        rows = [[0] * d for _ in range(d)]
        offset = 0
        for b in x.blocks:
            for a in range(b - 1):
                rows[offset + a + 1][offset + a] = 1
            offset += b
        return Matrix(self.field, rows)

    def proj_matrix(self, i: int, j: int) -> Matrix:
        """Canonical surjection J_i -> J_j (j <= i): kill the top powers."""
        if j > i:
            raise DimensionError(f"projection needs j <= i, got {i} -> {j}")
        rows = [[1 if a == c else 0 for c in range(i)] for a in range(j)]
        return Matrix(self.field, rows)

    def incl_matrix(self, i: int, j: int) -> Matrix:
        """Canonical embedding J_i -> J_j (i <= j): multiply by t^(j-i)."""
        if i > j:
            raise DimensionError(f"embedding needs i <= j, got {i} -> {j}")
        rows = [[1 if a == c + (j - i) else 0 for c in range(i)] for a in range(j)]
        return Matrix(self.field, rows)

    def _unflatten(self, vec: tuple, rows: int, cols: int) -> Matrix:
        """The rows x cols matrix with row-major entries vec, already in the field."""
        data = tuple(vec[r * cols : (r + 1) * cols] for r in range(rows))
        return Matrix._of(self.field, data, cols)

    def _matrix(self, x: JordanModule, y: JordanModule, injection: dict) -> Matrix:
        """The 0/1 matrix x -> y of a partial injection {column: row}."""
        v = [self.field.zero] * (x.dim * y.dim)
        for c, r in injection.items():
            v[r * x.dim + c] = self.field.one
        return self._unflatten(tuple(v), y.dim, x.dim)

    @_memo
    def _injections(self, x: JordanModule, y: JordanModule) -> list[dict]:
        """``hom_basis(x, y)`` as partial injections {column: row}, in column order.

        The maps are the solutions of X T_x = T_y X.  Equation (r, c) reads
        X[r-1][c] = X[r][c+1], a side dropping out where r starts a block of y or c ends a
        block of x.  Each entry is on each side of at most one equation, so the two-term
        equations chain entries and the one-term ones zero them: the basis is the
        indicators of the chains free of zeros, ordered by their last entry, which is the
        chain's free column.  A chain steps one row and one column at a time, so it is a
        partial injection.
        """
        self.check_module(x)
        self.check_module(y)
        dx, dy = x.dim, y.dim
        starts = {sum(y.blocks[:k]) for k in range(len(y.blocks))}
        ends = {sum(x.blocks[: k + 1]) - 1 for k in range(len(x.blocks))}
        following, zeros = {}, set()
        for r in range(dy):
            for c in range(dx):
                terms = [(r - 1) * dx + c] if r not in starts else []
                if c not in ends:
                    terms.append(r * dx + c + 1)
                if len(terms) == 2:
                    following[terms[0]] = terms[1]
                elif terms:
                    zeros.add(terms[0])
        chains = []
        for head in set(range(dx * dy)).difference(following.values()):
            chain = [head]
            while chain[-1] in following:
                chain.append(following[chain[-1]])
            if zeros.isdisjoint(chain):
                chains.append(chain)
        chains.sort(key=lambda chain: chain[-1])
        return [{e % dx: e // dx for e in chain} for chain in chains]

    @_memo
    def hom_basis(self, x: JordanModule, y: JordanModule) -> list[Matrix]:
        """Basis of equivariant maps x -> y, as ``kernel_basis`` gives them."""
        return [self._matrix(x, y, b) for b in self._injections(x, y)]

    @_memo
    def _products(self, x: JordanModule, u: JordanModule, y: JordanModule) -> list[list]:
        """Structure constants: entry [i][j] is the index among the basis maps x -> y of
        ``hom_basis(u, y)[i] . hom_basis(x, u)[j]``, or None when that product is zero.  Every
        pair is composed, as partial injections, and looked up: a product that is neither
        zero nor a basis map raises InternalCheckError."""
        inner = self._injections(x, u)
        products = [
            [tuple([(c, b[r]) for c, r in a.items() if r in b]) for a in inner]
            for b in self._injections(u, y)
        ]
        index = {tuple(b.items()): k for k, b in enumerate(self._injections(x, y))}
        index[()] = None
        unknown = {ba for row in products for ba in row}.difference(index)
        if unknown:
            message = f"a product of basis maps {x} -> {u} -> {y} is not a basis map"
            raise InternalCheckError(message, witness=unknown.pop())
        return [[index[ba] for ba in row] for row in products]

    @_memo
    def _stable(self, x: JordanModule, y: JordanModule) -> list[int]:
        """Indices of the stable basis among ``hom_basis(x, y)``: the basis maps that no
        product through the projective hits.  Each such product is zero or a basis map
        (``_products``), so the hit ones span the maps through the projective."""
        hit = {k for row in self._products(x, self.projective, y) for k in row}
        return [k for k in range(len(self._injections(x, y))) if k not in hit]

    def _coefficients(self, x: JordanModule, y: JordanModule, matrix: Matrix) -> list:
        """An equivariant matrix's coefficients on ``hom_basis(x, y)``, read off their chains."""
        if matrix.field != self.field:
            raise FieldMismatchError(f"matrix over {matrix.field} used in a {self.field} context")
        rows, cols = y.dim, x.dim
        if (matrix.rows, matrix.cols) != (rows, cols):
            shape = f"{matrix.rows}x{matrix.cols}"
            raise DimensionError(f"a map {x} -> {y} is {rows}x{cols}, got {shape}")
        injections, data = self._injections(x, y), matrix.data
        values = [{data[r][c] for c, r in b.items()} for b in injections]
        support = sum(len(b) for b, v in zip(injections, values) if any(v))
        # the equivariant matrices are those constant along each chain and zero off them
        if all(len(v) == 1 for v in values) and support == sum(map(bool, matrix.flatten())):
            return [v.pop() for v in values]
        raise PreconditionError(f"matrix does not commute with t: not a map {x} -> {y}")

    def classify(self, x: JordanModule, y: JordanModule, matrix: Matrix) -> StableMap:
        """The class x -> y of an equivariant matrix, keyed by its coordinates: its
        coefficients on the stable basis maps."""
        coefficients = self._coefficients(x, y, matrix)
        return StableMap(x, y, matrix, tuple(coefficients[k] for k in self._stable(x, y)))

    def _position(self, x: JordanModule, y: JordanModule, injection: dict) -> int:
        """The index in ``hom_basis(x, y)`` of a partial injection {column: row} that is one
        of the basis maps."""
        if injection not in (injections := self._injections(x, y)):
            raise InternalCheckError(f"a canonical map {x} -> {y} is not a basis map", witness=injection)
        return injections.index(injection)

    @_memo
    def _radical(self, x: JordanModule, y: JordanModule) -> list[int]:
        """Indices of the basis maps x -> y that span the non-isomorphisms (x, y
        indecomposable): End(J_i) is spanned by the powers of t, so these are all the basis
        maps but the identity."""
        indices = range(len(self._injections(x, y)))
        if x != y:
            return list(indices)
        identity = self._position(x, x, {c: c for c in range(x.dim)})
        return [k for k in indices if k != identity]

    def _after(self, x: JordanModule, u: JordanModule, y: JordanModule, a) -> list[tuple]:
        """Per basis map b: x -> u, the coefficients of a . b on ``hom_basis(x, y)``, a given
        by its coefficients on ``hom_basis(u, y)``; a zero product adds the zero vector."""
        d, products = len(self._injections(x, y)), self._products(x, u, y)
        return [_mix(self.field.char, a, _units(self.field, d, column)) for column in zip(*products)]

    @_memo
    def stable_basis(self, x: JordanModule, y: JordanModule) -> list[StableMap]:
        basis, stable = self.hom_basis(x, y), self._stable(x, y)
        units = Matrix.identity(self.field, len(stable)).data
        return [StableMap(x, y, basis[k], e) for k, e in zip(stable, units)]

    @_memo
    def stable_dim(self, x: JordanModule, y: JordanModule) -> int:
        return len(self._stable(x, y))

    def identity_map(self, x: JordanModule) -> StableMap:
        return self.classify(x, x, Matrix.identity(self.field, x.dim))

    def compose(self, g: StableMap, f: StableMap) -> StableMap:
        if g.source != f.target:
            raise PreconditionError(
                f"cannot compose {g.source}->{g.target} after {f.source}->{f.target}"
            )
        return self.classify(f.source, g.target, g.matrix.mul(f.matrix))

    def combine(self, x: JordanModule, y: JordanModule, coeffs) -> StableMap:
        """The class x -> y with coordinates coeffs on ``stable_basis(x, y)``: its key is
        coeffs, and no residue is taken."""
        basis, coeffs = self.stable_basis(x, y), self.field.coerce_row(coeffs)
        if len(coeffs) != len(basis):
            raise DimensionError(
                f"{len(coeffs)} coefficients for the {len(basis)} stable classes {x} -> {y}"
            )
        zero = (self.field.zero,) * (x.dim * y.dim)
        flat = _mix(self.field.char, coeffs, [b.matrix.flatten() for b in basis]) if basis else zero
        return StableMap(x, y, self._unflatten(flat, y.dim, x.dim), coeffs)

    @_memo
    def class_lines(self, x: JordanModule, y: JordanModule) -> list[StableMap]:
        """One class per line of nonzero stable classes x -> y (finite field only).

        Each is the line's class with first nonzero coefficient 1, in
        ``product`` order (``_lines``); every check here is unchanged by a
        nonzero scalar.
        """
        lines = _lines(self.field, self.stable_dim(x, y))
        return [self.combine(x, y, a) for a in lines]

    @_memo
    def _table(self, x: JordanModule, u: JordanModule, y: JordanModule) -> list[list]:
        """Entry [i][j]: the position on ``stable_basis(x, y)`` of the class
        ``stable_basis(u, y)[i] . stable_basis(x, u)[j]``, whose key is that unit vector, or
        None when the class is zero: the product is zero or hit through the projective."""
        position = {k: s for s, k in enumerate(self._stable(x, y))}
        products, inner = self._products(x, u, y), self._stable(x, u)
        return [[position.get(products[i][j]) for j in inner] for i in self._stable(u, y)]

    @_memo
    def _post(self, x: JordanModule, u: JordanModule, y: JordanModule) -> tuple:
        """Per class a of ``stable_basis(x, u)``: the selection whose ``_composites`` with the
        coordinates of a class c: u -> y are the coordinates of c . a."""
        return _selections(zip(*self._table(x, u, y)), self.stable_dim(x, y))

    @_memo
    def _pre(self, x: JordanModule, u: JordanModule, y: JordanModule) -> tuple:
        """Per class b of ``stable_basis(u, y)``: the selection whose ``_composites`` with the
        coordinates of a class f: x -> u are the coordinates of b . f."""
        return _selections(self._table(x, u, y), self.stable_dim(x, y))

    @_memo
    def _line_ranks(self, d: int, selections: tuple) -> bytes:
        """Per line c of F^d, in ``_lines`` order, the rank of the selections' ``_composites``
        with c (finite field only): triples with equal selections share one sweep."""
        p, zero = self.field.char, self.field.zero
        return bytes(len(_echelon(p, _composites(zero, selections, c))) for c in _lines(self.field, d))

    def _killing_rows(self, d: int, tables) -> tuple:
        """Rows spanning the sum of the annihilators of the images of the lines of F^e under
        each (selections, e) of tables: a vector of F^d lies in every image exactly when every
        row kills it.  Full-rank images kill nothing; the sweep stops once rows span F^d."""
        p, zero, rows = self.field.char, self.field.zero, []
        for selections, e in tables:
            for c, rank in zip(_lines(self.field, e), self._line_ranks(e, selections)):
                if rank < d:
                    rows = _echelon(p, _kernel(p, d, _composites(zero, selections, c)), rows)
                    if len(rows) == d:
                        return tuple(row for _, row in rows)
        return tuple(row for _, row in rows)

    @_memo
    def _av_conditions(self, x: JordanModule, y: JordanModule):
        """``is_almost_vanishing``'s five conditions as a function of the coordinates of a
        nonzero class f: x -> y, on the tables of the pair, fetched once."""
        field, p, indecs = self.field, self.field.char, self.indecomposables()
        d, zero = self.stable_dim(x, y), field.zero
        # f factors through every line c: u -> y (c: x -> v) exactly when it is killed by
        # the annihilators of all the images c . - (- . c).  The sum does not depend on the
        # order; the spaces with the fewest lines go first, so that a sweep which fills F^d
        # early stops before the long ones.
        incoming = self._killing_rows(
            d,
            ((self._post(x, u, y), self.stable_dim(u, y))
             for u in sorted(indecs, key=lambda u: self.stable_dim(u, y))),
        )
        outgoing = self._killing_rows(
            d,
            ((self._pre(x, v, y), self.stable_dim(x, v))
             for v in sorted(indecs, key=lambda v: self.stable_dim(x, v))),
        )
        # f . g (h . f) is zero for every radical class g into x (h out of y) exactly when
        # f's key is zero at the positions some g (h) sends to a nonzero class, which the
        # unit rows at those positions test.
        epis = tuple(_units(field, d, sorted(self._reached_by_radical_into(x, y))))
        monos = tuple(_units(field, d, sorted(self._reached_by_radical_out_of(x, y))))
        # x first: f . id_x = f is nonzero, so most lines settle on its rank alone
        sources = [x] + [v for v in indecs if v != x and self.stable_dim(v, x)]
        images = [self._post(v, x, y) for v in sources]

        # Four conditions ask whether rows kill f: rows spanning F^d kill no nonzero f, and
        # each distinct set of rows short of F^d is applied once.
        linear = {
            "factors_through_incoming": incoming,
            "factors_through_outgoing": outgoing,
            "kills_non_split_epis": epis,
            "killed_by_non_split_monos": monos,
        }
        short = {rows for rows in linear.values() if len(rows) < d}

        def conditions(phi: tuple) -> dict[str, bool]:
            killed = {rows: not any(_apply(p, rows, phi)) for rows in short}
            checks = {name: killed.get(rows, False) for name, rows in linear.items()}
            ranks = (len(_echelon(p, _composites(zero, post, phi))) for post in images)
            nonzero = filter(None, ranks)
            # the ranks sum to 1: the first nonzero one is 1 and no other follows
            checks["image_is_simple"] = next(nonzero, 0) == 1 and next(nonzero, 0) == 0
            return checks

        return conditions

    @_memo
    def rad_stable_basis(self, x: JordanModule, y: JordanModule) -> list[StableMap]:
        """Spanning classes of the non-isomorphisms x -> y (x, y indecomposable).

        These are the ``stable_basis(x, y)`` classes of the basis maps in
        ``_radical(x, y)``: every class for non-isomorphic endpoints, and for
        x = y, where the non-isomorphisms are the radical of the local
        endomorphism ring, every class but the identity's.
        """
        if not (x.is_indecomposable and y.is_indecomposable):
            raise PreconditionError("radical basis is defined here for indecomposables")
        radical = self._radical_positions(x, y)
        return [b for s, b in enumerate(self.stable_basis(x, y)) if s in radical]

    @_memo
    def _radical_positions(self, x: JordanModule, y: JordanModule) -> frozenset:
        """The positions on ``stable_basis(x, y)`` of the classes of ``_radical(x, y)``."""
        radical = set(self._radical(x, y))
        return frozenset(s for s, k in enumerate(self._stable(x, y)) if k in radical)

    def _reached_by_radical_into(self, x: JordanModule, y: JordanModule) -> set:
        """The positions on ``stable_basis(x, y)`` of the classes f with f . g nonzero for some
        radical class g into x, read off the ``_post`` selections of each g."""
        reads = ((self._post(u, x, y), self._radical_positions(u, x)) for u in self.indecomposables())
        return _picked(reads)

    def _reached_by_radical_out_of(self, x: JordanModule, y: JordanModule) -> set:
        """The positions on ``stable_basis(x, y)`` of the classes f with h . f nonzero for some
        radical class h out of y, read off the ``_pre`` selections of each h."""
        reads = ((self._pre(x, y, u), self._radical_positions(y, u)) for u in self.indecomposables())
        return _picked(reads)

    # -- syzygies --------------------------------------------------------
    @_memo
    def omega_object(self, x: JordanModule) -> JordanModule:
        """Kernel of the projective cover J_n ->> J_i, verified to be J_{n-i}."""
        i = x.block
        if i == self.n:
            raise PreconditionError(f"{x} is projective; omega is undefined")
        pi = self.proj_matrix(self.n, i)
        kernel = kernel_basis(pi)
        if len(kernel) != self.n - i:
            raise InternalCheckError(
                f"projective cover of J{i} has kernel of dim {len(kernel)}", witness=x
            )
        # The canonical kernel basis is e_i..e_{n-1}; the t-action on it
        # must be the shift of a single block of size n-i.
        kappa = self.incl_matrix(self.n - i, self.n)
        for vec, col in zip(kernel, range(self.n - i)):
            expected = tuple(kappa.entry(r, col) for r in range(self.n))
            if tuple(vec) != expected:
                raise InternalCheckError(
                    f"unexpected kernel basis for cover of J{i}", witness=x
                )
        omega = self._modules[self.n - i - 1]
        shifted = self.t_matrix(self.projective).mul(kappa)
        target = kappa.mul(self.t_matrix(omega))
        if shifted != target:
            raise InternalCheckError(
                f"kernel of cover of J{i} does not carry the J{self.n - i} action",
                witness=x,
            )
        return omega

    def omega_map(self, f: StableMap) -> StableMap:
        """Syzygy of a morphism class between indecomposables: the combination, with f's
        key as coefficients, of the ``_omega_coordinates`` of its pair."""
        coordinates = self._omega_coordinates(f.source, f.target)
        key = _mix(self.field.char, f.key, coordinates)
        return self.combine(self.omega_object(f.source), self.omega_object(f.target), key)

    @_memo
    def _omega_coordinates(self, x: JordanModule, y: JordanModule) -> list[tuple]:
        """The keys, coordinates on ``stable_basis(Omega x, Omega y)``, of ``omega_map(g)`` for
        each g in ``stable_basis(x, y)``, read off the structure constants: with pi the
        projective covers and kappa their kernels, g . pi_x = pi_y . L for a basis map L of
        End(J_n), and L . kappa_x = kappa_y . h for a basis map h whose class is Omega g (lifts
        differ by maps into the kernel of pi_y, which move h by a map through J_n)."""
        n, proj, i, j = self.n, self.projective, x.block, y.block
        sx, sy = self.omega_object(x), self.omega_object(y)
        pi_x = self._position(proj, x, {a: a for a in range(i)})
        pi_y = self._position(proj, y, {a: a for a in range(j)})
        kappa_x = self._position(sx, proj, {c: c + i for c in range(n - i)})
        kappa_y = self._position(sy, proj, {c: c + j for c in range(n - j)})
        # L by the index of the nonzero product pi_y . L, and h by that of kappa_y . h
        lifts = {a: k for k, a in enumerate(self._products(proj, proj, y)[pi_y]) if a is not None}
        kernel = {b: k for k, b in enumerate(self._products(sx, sy, proj)[kappa_y]) if b is not None}
        position = {k: s for s, k in enumerate(self._stable(sx, sy))}
        lowered, moved, positions = self._products(proj, x, y), self._products(sx, proj, proj), []
        for g in self._stable(x, y):
            lift = lifts.get(lowered[g][pi_x])
            if lift is None:
                raise InternalCheckError("projective lift does not exist", witness=(x, y, g))
            h = kernel.get(moved[lift][kappa_x])
            if h is None and moved[lift][kappa_x] is not None:
                raise InternalCheckError("lift does not preserve cover kernels", witness=(x, y, g))
            # zero when L . kappa_x is zero or h is hit through the projective
            positions.append(position.get(h))
        return _units(self.field, len(position), positions)

    # -- almost vanishing --------------------------------------------------
    @_memo
    def av_class(self, m: JordanModule) -> StableMap:
        """The canonical almost-vanishing class m -> Omega(m).

        Computed from its defining property inside the stable category:
        the unique (up to scalar) nonzero class killed by composition
        with every non-isomorphism into m.  Uniqueness is asserted.
        """
        target = self.omega_object(m)
        sols = self.killed_by_radical(m, target)
        if len(sols) != 1:
            raise InternalCheckError(
                f"almost-vanishing space of {m} has dimension {len(sols)}", witness=m
            )
        return self.combine(m, target, sols[0])

    def killed_by_radical(self, x: JordanModule, y: JordanModule) -> list[tuple]:
        """Classes x -> y killed by every non-isomorphism into x.

        They are returned as coefficient vectors on ``stable_basis(x, y)``: the unit
        vectors, in ascending order, at the positions that every radical class g into x
        sends to zero (``_reached_by_radical_into``).  That costs one read of each ``_post``
        selection of each g, and no elimination.
        """
        d = self.stable_dim(x, y)
        # with no class x -> y the ``_post`` tables hold no selections to read
        reached = self._reached_by_radical_into(x, y) if d else ()
        return _units(self.field, d, [s for s in range(d) if s not in reached])


# Contexts are cached per (n, p); beyond this many the least recently
# used one is dropped.
MAX_CONTEXTS = 16
_contexts: OrderedDict[tuple[int, int], _Context] = OrderedDict()


def context(n: int, field: Field = GF5) -> _Context:
    key = (n, field.char)
    if key in _contexts:
        _contexts.move_to_end(key)
    else:
        _contexts[key] = _Context(n, field)
        if len(_contexts) > MAX_CONTEXTS:
            _contexts.popitem(last=False)
    return _contexts[key]


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def hom_basis(x: JordanModule, y: JordanModule, field: Field = GF5) -> list[Matrix]:
    ctx = context(x.n, field)
    ctx.check_module(y)
    return list(ctx.hom_basis(x, y))


def stable_basis(x: JordanModule, y: JordanModule, field: Field = GF5) -> list[StableMap]:
    ctx = context(x.n, field)
    ctx.check_module(y)
    return list(ctx.stable_basis(x, y))


def stable_hom_dim(x: JordanModule, y: JordanModule, field: Field = GF5) -> int:
    return len(stable_basis(x, y, field))


def stable_class_lines(x: JordanModule, y: JordanModule, field: Field = GF5) -> list[StableMap]:
    """One class per line of nonzero stable classes x -> y; see ``_Context.class_lines``."""
    ctx = context(x.n, field)
    ctx.check_module(y)
    return list(ctx.class_lines(x, y))


def compose(g: StableMap, f: StableMap) -> StableMap:
    return context(g.source.n, g.matrix.field).compose(g, f)


def omega(x: JordanModule, field: Field = GF5) -> JordanModule:
    return context(x.n, field).omega_object(x)


def omega_map(f: StableMap) -> StableMap:
    return context(f.source.n, f.matrix.field).omega_map(f)


def almost_vanishing_class(m: JordanModule, field: Field = GF5) -> StableMap:
    return context(m.n, field).av_class(m)


def ar_sequence(m: JordanModule, field: Field = GF5) -> ARSequence:
    """The almost split sequence ending (and starting) at J_i, with checks.

    The middle term is J_{i-1} + J_{i+1} with J_0 dropped; a J_n summand
    is kept in the sequence itself (exactness needs it) but recorded as
    projective and excluded from the stable middle.
    """
    ctx = context(m.n, field)
    i = m.block
    n = ctx.n
    if i == n:
        raise PreconditionError(f"{m} is projective; no almost split sequence")
    f = ctx.field
    middle_blocks = tuple(b for b in (i + 1, i - 1) if 1 <= b <= n)
    middle = JordanModule(middle_blocks, n)
    stable_blocks = tuple(b for b in middle.blocks if b != n)
    middle_stable = JordanModule(stable_blocks, n)

    left_parts = []
    right_parts = []
    for b in middle.blocks:
        if b == i + 1:
            left_parts.append(ctx.incl_matrix(i, b))
            right_parts.append(ctx.proj_matrix(b, i).scale(-1))
        else:
            left_parts.append(ctx.proj_matrix(i, b))
            right_parts.append(ctx.incl_matrix(b, i))
    left = Matrix(f, [row for part in left_parts for row in part.data])
    right = Matrix(f, [sum(rows, ()) for rows in zip(*(part.data for part in right_parts))])

    checks = {}
    composite = right.mul(left)
    checks["composite_zero"] = composite == Matrix.zeros(f, i, i)
    checks["left_injective"] = rank(left) == i
    checks["right_surjective"] = rank(right) == i
    checks["exact_at_middle"] = rank(left) + rank(right) == middle.dim

    # In coefficients on the basis maps: right . b, b running over hom_basis(U, middle),
    # spans the maps U -> m that lift through right.
    coefficients = ctx._coefficients(middle, m, right)
    # Non-split: no section s with right . s = identity.
    (identity,) = _units(f, len(ctx._injections(m, m)), [ctx._position(m, m, {c: c for c in range(i)})])
    checks["non_split"] = not _spans(f.char, ctx._after(m, middle, m, coefficients), identity)

    # Lifting property: every non-isomorphism U -> m (U running over all
    # indecomposables, the projective included) lifts through right.  They are
    # spanned by the basis maps of ``_radical(U, m)``, whose coefficients are unit
    # vectors; the maps through right are echeloned once per U.
    checks["lifting"] = all(
        not any(_residue(f.char, through, unit))
        for u_mod in ctx.indecomposables(include_projective=True)
        for through in [_echelon(f.char, ctx._after(u_mod, middle, m, coefficients))]
        for unit in _units(f, len(ctx._injections(u_mod, m)), ctx._radical(u_mod, m))
    )

    return ARSequence(
        module=m,
        middle=middle,
        middle_stable=middle_stable,
        has_projective_summand=(i + 1 == n),
        left=left,
        right=right,
        connecting=ctx.av_class(m),
        checks=checks,
    )


def image_comp_factors(f: StableMap) -> dict[JordanModule, int]:
    """Composition-factor multiset of the image of Hom(-, f).

    The multiplicity at an indecomposable V is the dimension of the
    image of composition-with-f on classes out of V.
    """
    ctx = context(f.source.n, f.matrix.field)
    x, y, indecs = f.source, f.target, ctx.indecomposables()
    p, zero = ctx.field.char, ctx.field.zero
    ranks = (len(_echelon(p, _composites(zero, ctx._post(v, x, y), f.key))) for v in indecs)
    return {v: rank for v, rank in zip(indecs, ranks) if rank}


def is_almost_vanishing(f: StableMap) -> AlmostVanishingReport:
    """Evaluate five equivalent descriptions of an almost-vanishing class.

    The conditions, each computed independently on the stable category:

    * factors_through_incoming: f factors through every nonzero class
      into its target (all sources, all classes; finite-field sweep).
      f lies in the image c . - of every line c: u -> y exactly when the
      annihilators of those images kill it, so the sweep visits each line
      once per pair (x, y), O(sum_u L_uy) rank lookups with L_uy the lines
      of Hom(u, y) and an elimination for each image short of full rank,
      and f costs one product with the annihilator rows.
    * factors_through_outgoing: f factors through every nonzero class
      out of its source (dual sweep, over the images - . c).
    * kills_non_split_epis: f . g = 0 for every non-split-epimorphism g
      into the source: f's key is zero at the positions that some radical
      class g sends to a nonzero class, read once per pair off the
      ``_post`` selections of each g, O(table entries read).
    * killed_by_non_split_monos: h . f = 0 for every non-split-mono h
      out of the target; dual, on the ``_pre`` selections of each h.
    * image_is_simple: the image functor of Hom(-, f) has composition
      length one.

    The verdicts must coincide; ``report.agreement`` says whether they
    did.  A stably zero class short-circuits to False with a note.  The
    sweeps are built once per pair (``_Context._av_conditions``) and
    shared by every class of the pair.
    """
    ctx = context(f.source.n, f.matrix.field)
    x, y = f.source, f.target
    if f.is_zero:
        return AlmostVanishingReport(x, y, False, {}, note="stably zero class")

    # A key is the class's coordinates on the stable basis; composites come from the tables.
    conditions = ctx._av_conditions(x, y)(f.key)
    verdict = all(conditions.values())
    return AlmostVanishingReport(x, y, verdict, conditions)


def serre_duality_check(n: int, field: Field = GF5) -> CheckReport:
    """Stable dim(x, y) = stable dim(y, Omega(x)) over all pairs."""
    ctx = context(n, field)
    failures = []
    pairs = 0
    for x in ctx.indecomposables():
        for y in ctx.indecomposables():
            pairs += 1
            lhs = ctx.stable_dim(x, y)
            rhs = ctx.stable_dim(y, ctx.omega_object(x))
            if lhs != rhs:
                failures.append({"x": str(x), "y": str(y), "lhs": lhs, "rhs": rhs})
    return CheckReport("serre-duality", not failures, failures, {"pairs": pairs})


def socle_of_representable(m: JordanModule, field: Field = GF5) -> SocleReport:
    """Classes into m killed by every non-isomorphism into their source.

    The resulting dimension must be 1 at Omega(m) and 0 elsewhere.
    """
    ctx = context(m.n, field)
    if m.block == ctx.n:
        raise PreconditionError(f"{m} is projective")
    dims: dict[int, int] = {}
    for x in ctx.indecomposables():
        dims[x.block] = len(ctx.killed_by_radical(x, m))
    expected_at = ctx.omega_object(m).block
    ok = all(
        dim == (1 if i == expected_at else 0) for i, dim in dims.items()
    )
    return SocleReport(m, Vertex(TUBE, (expected_at,)), dims, ok)


def radical_layers_bruteforce(m: JordanModule, k_max: int, field: Field = GF5) -> LayerTable:
    """Exact radical layers of Hom(-, m) by iterated span computation.

    Rad^k(X, m) is spanned by composites h . g with g a non-isomorphism
    X -> Z and h spanning Rad^{k-1}(Z, m).  The layer multiplicity at X
    is dim Rad^k(X, m) - dim Rad^{k+1}(X, m); no recurrence involved,
    so valid_through = k_max always.  Every composite of stable basis
    classes is a basis class or zero, read from the tables
    (``_Context._table``) through the ``_pre`` selections of each h, so
    Rad^k(X, m) is held as a set of positions on ``stable_basis(X, m)``,
    the union of the positions of the composites, and its dimension is
    the set's size: a level costs one set union per table entry read,
    and no elimination.
    """
    if k_max < 0:
        raise UnsupportedParameterError(f"k_max must be >= 0, got {k_max}")
    ctx = context(m.n, field)
    if m.block == ctx.n:
        raise PreconditionError(f"{m} is projective")
    indecs = ctx.indecomposables()
    # per class h of stable_basis(z, m): the positions of h . g, g in rad_stable_basis(x, z)
    through = {
        (x, z): [{k for k, g in enumerate(selection) if g in radical} for selection in ctx._pre(x, z, m)]
        for x in indecs
        for z in indecs
        for radical in [ctx._radical_positions(x, z)]
    }
    spans = {x: range(ctx.stable_dim(x, m)) for x in indecs}
    dims_by_level = [{x: len(spans[x]) for x in indecs}]
    for _ in range(k_max + 1):
        spans = {x: set().union(*(through[x, z][h] for z in indecs for h in spans[z])) for x in indecs}
        dims_by_level.append({x: len(spans[x]) for x in indecs})
    # indecs are J_1..J_{n-1} in order: one row per layer from J_1, step 1
    rows = [
        (k, indecs[0].vertex(), (1,), [dims[x] - below[x] for x in indecs])
        for k, (dims, below) in enumerate(zip(dims_by_level, dims_by_level[1:]))
    ]
    return LayerTable(target=m.vertex(), rows=rows, k_max=k_max, valid_through=k_max)


def mono_representable_split_check(n: int, field: Field = GF5) -> CheckReport:
    """Classes inducing injections on all Hom(X, -) must be split monos."""
    if n > 6:
        raise UnsupportedParameterError(
            f"split-mono sweep enumerates all classes; n={n} exceeds the n <= 6 budget"
        )
    ctx = context(n, field)
    p = field.char
    indecs = ctx.indecomposables()
    failures = []
    monos = 0
    checked = 0
    # every pair's lines first, so that Q is refused before anything is composed
    lines = {(u, v): _lines(field, ctx.stable_dim(u, v)) for u in indecs for v in indecs}
    for u in indecs:
        identity = ctx.identity_map(u).key
        sources = [x for x in indecs if ctx.stable_dim(x, u)]
        dims = [ctx.stable_dim(x, u) for x in sources]
        for v in indecs:
            ranks = [ctx._line_ranks(ctx.stable_dim(u, v), ctx._post(x, u, v)) for x in sources]
            sections = ctx._pre(u, v, u)
            for a, *got in zip(lines[u, v], *ranks):
                checked += 1
                # Composing with the line a must be injective on the classes x -> u.
                if got != dims:
                    continue
                monos += 1
                # Split: some class b . a is the identity of u.
                if not _spans(p, _composites(0, sections, a), identity):
                    # the line's class, by its key: its coefficient tuple
                    failures.append({"source": str(u), "target": str(v), "class": a})
    return CheckReport(
        "mono-representable-split",
        not failures,
        failures,
        {"classes_checked": checked, "functor_monos": monos},
    )


def single_object_support_solver(m: JordanModule, r: int, field: Field = GF5) -> SolverReport:
    """Solve the naturality system for a transformation supported only at m.

    The unknown is a class alpha: m -> F(m) with F the r-th power of the
    inverse syzygy; all other components are zero.  Every basis class
    g: X -> Y contributes the square F(g) . alpha_X = alpha_Y . g.  The
    solution space is returned with the codomain bookkeeping: nonzero
    solutions can exist only when F(m) is the syzygy of m, and then the
    space is the scalar line through the almost-vanishing class.

    Each square is read in coordinates from the tables (``_Context._table``),
    F(g) being g or its memoized ``_omega_coordinates``: O(d^2) work per unknown
    and class g, d <= n/2 a stable dimension.
    """
    ctx = context(m.n, field)
    if m.block == ctx.n:
        raise PreconditionError(f"{m} is projective")
    p, zero, odd = ctx.field.char, ctx.field.zero, r % 2
    codomain = ctx.omega_object(m) if odd else m
    indecs = ctx.indecomposables()
    squares = []
    for x in indecs:
        for y in indecs:
            if m not in (x, y):
                continue
            # per basis class g: x -> y, the coordinates of F(g) . alpha (x = m) and of
            # alpha . g (y = m) for each alpha in the stable basis, g having unit coordinates
            units = Matrix.identity(ctx.field, ctx.stable_dim(x, y)).data
            sides = []
            if x == m:
                post = ctx._post(m, codomain, ctx.omega_object(y) if odd else y)
                images = ctx._omega_coordinates(m, y) if odd else units
                sides.append([_composites(zero, post, fg) for fg in images])
            if y == m:
                pre = ctx._pre(x, m, codomain)
                sides.append([_composites(zero, pre, g) for g in units])
            # F(g) . alpha_x - alpha_y . g, a missing side being zero
            squares += ([_mix(p, (1, -1), pair) for pair in zip(*square)] for square in zip(*sides))
    sols = _kernel(p, ctx.stable_dim(m, codomain), _transposed(squares))
    solutions = [ctx.combine(m, codomain, c) for c in sols]

    omega_rule = codomain == ctx.omega_object(m)
    spanned = False
    if len(solutions) == 1 and omega_rule:
        # both keys are nonzero, so this asks whether they span one line
        spanned = _spans(p, [ctx.av_class(m).key], solutions[0].key)
    return SolverReport(
        module=m,
        degree=r,
        codomain=codomain,
        dim=len(solutions),
        basis=solutions,
        omega_rule=omega_rule,
        spanned_by_almost_vanishing=spanned,
    )


def composition_factors_equivalence_check(n: int, field: Field = GF5) -> CheckReport:
    """Hom(u, m) vanishes exactly with Hom(Omega(m), u), for all pairs."""
    if n > 6:
        raise UnsupportedParameterError(f"n={n} exceeds the n <= 6 budget")
    ctx = context(n, field)
    failures = []
    for u in ctx.indecomposables():
        for m in ctx.indecomposables():
            forward = ctx.stable_dim(u, m) > 0
            backward = ctx.stable_dim(ctx.omega_object(m), u) > 0
            if forward != backward:
                failures.append({"u": str(u), "m": str(m)})
    return CheckReport("composition-factors-equivalence", not failures, failures, {})


def socle_suite(n: int, field: Field = GF5) -> CheckReport:
    """Socle location and dimension for every representable functor."""
    ctx = context(n, field)
    failures = []
    for m in ctx.indecomposables():
        rep = socle_of_representable(m, field)
        if not rep.ok:
            failures.append({"m": str(m), "dims": rep.dims})
    return CheckReport("socle", not failures, failures, {"modules": n - 1})


def simple_fp_suite(n: int, field: Field = GF5) -> CheckReport:
    """Connecting-map images are single simples, for every module."""
    ctx = context(n, field)
    failures = []
    for m in ctx.indecomposables():
        factors = image_comp_factors(ctx.av_class(m))
        if factors != {m: 1}:
            failures.append(
                {"m": str(m), "factors": {str(v): c for v, c in factors.items()}}
            )
    return CheckReport("simple-fp", not failures, failures, {"modules": n - 1})


def almost_vanishing_agreement_suite(
    n: int, field: Field = GF5, up_to_scalar: bool = False
) -> CheckReport:
    """Run all five almost-vanishing conditions on every nonzero class.

    Fails when the condition verdicts disagree on some class, or when a
    class passes while its target is not the syzygy of its source.  Both
    are unchanged by a nonzero scalar, so they run once per line of classes,
    on the line's coefficient tuple (``_lines``) and its pair's conditions
    (``_Context._av_conditions``); without ``up_to_scalar`` a line counts,
    and repeats its failure entry, once for each of its p - 1 classes,
    grouped by line.
    """
    if n > 6:
        raise UnsupportedParameterError(f"n={n} exceeds the n <= 6 budget")
    ctx = context(n, field)
    per_line = 1 if up_to_scalar else field.char - 1
    failures = []
    classes = 0
    found = 0
    for x in ctx.indecomposables():
        for y in ctx.indecomposables():
            d = ctx.stable_dim(x, y)
            if not d:
                continue
            where = {"x": str(x), "y": str(y)}
            lines = _lines(field, d)  # refuses Q before the conditions are built
            conditions = ctx._av_conditions(x, y)
            for phi in lines:
                classes += per_line
                checks = conditions(phi)
                verdicts = set(checks.values())  # the report's agreement and verdict
                if len(verdicts) > 1:
                    failures += [{**where, "conditions": checks}] * per_line
                if verdicts == {True}:
                    found += per_line
                    if y != ctx.omega_object(x):
                        failures += [{**where, "error": "wrong codomain"}] * per_line
    return CheckReport(
        "almost-vanishing-agreement",
        not failures,
        failures,
        {"classes": classes, "almost_vanishing": found, "up_to_scalar": up_to_scalar},
    )
