"""Brute-force matrix model of the stable module category of k[t]/(t^n).

Indecomposable modules are Jordan blocks J_1..J_n for the nilpotent
action of t, with J_n projective (and injective).  Morphisms are
matrices commuting with the t-actions; a morphism class, a coset
modulo maps factoring through projectives, is keyed by its coordinates
on a fixed stable basis, so class equality is representative
independent.  Everything is computed
by explicit enumeration and exact linear algebra.  That is the point:
this module is the ground truth the mesh-category calculators on the
tube quiver are validated against.

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
from operator import attrgetter, mul

from .errors import (
    DimensionError,
    FieldMismatchError,
    InternalCheckError,
    PreconditionError,
    UnsupportedParameterError,
)
from .linalg import GF5, Field, Matrix, Subspace, kernel_basis, rank, solve
from .linalg import _apply, _echelon, _kernel, _lines, _mix, _spans
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
    def is_projective(self) -> bool:
        return bool(self.blocks) and all(b == self.n for b in self.blocks)

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


def _independent(p: int, candidates, key) -> list:
    """The candidates whose key is independent of the keys of those before them."""
    rows, kept = [], []
    for c in candidates:
        grown = _echelon(p, [key(c)], rows)
        if len(grown) > len(rows):
            rows = grown
            kept.append(c)
    return kept


def _post(table: list) -> list[list[tuple]]:
    """Matrices M_j, ``_apply(p, M_j, a)`` being the coordinates of c . b_j, c having
    coordinates a (see ``_Context._table``)."""
    return [list(zip(*column)) for column in zip(*table)]


def _pre(table: list) -> list[list[tuple]]:
    """Matrices M_i, ``_apply(p, M_i, a)`` being the coordinates of b_i . f, f having
    coordinates a (see ``_Context._table``)."""
    return [list(zip(*row)) for row in table]


def _composites(p: int, matrices, a) -> list[list]:
    """``_apply(p, m, a)`` for each matrix m of ``_post`` or ``_pre``, inlined: this is
    the inner loop of every line sweep."""
    if p:
        return [[sum(map(mul, a, row)) % p for row in m] for m in matrices]
    return [[sum(map(mul, a, row)) for row in m] for m in matrices]


def _transposed(blocks) -> list[tuple]:
    """The rows of each block's transpose, in turn: each block's vectors mix to zero under
    a exactly when every row r has r . a = 0."""
    return [row for block in blocks for row in zip(*block)]


def _row_basis(p: int, rows) -> list[tuple]:
    """Echelon rows spanning the rows: a vector is killed by these exactly when by those."""
    return [row for _, row in _echelon(p, rows)]


def _killing_rows(p: int, width: int, images) -> list:
    """Rows spanning the sum of the annihilators of the images, each a list of vectors
    in F^width: a vector lies in every image exactly when every row kills it.  The sweep
    stops once the rows span F^width, when no nonzero vector lies in every image."""
    rows = []
    for image in images:
        kernel = _kernel(p, width, image)
        if kernel:  # a full-rank image kills nothing
            rows = _echelon(p, kernel, rows)
            if len(rows) == width:
                break
    return [row for _, row in rows]


def _image_ranks(p: int, posts, phi: tuple):
    """Rank of the composites c . b_j per ``_post`` of a table, c having coordinates phi."""
    return (len(_echelon(p, _composites(p, m, phi))) for m in posts)


_key = attrgetter("key")
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

    @_memo
    def hom_basis(self, x: JordanModule, y: JordanModule) -> list[Matrix]:
        """Basis of equivariant maps x -> y: solutions of X T_x = T_y X, as ``kernel_basis``
        gives them.

        Equation (r, c) reads X[r-1][c] = X[r][c+1], a side dropping out where r starts
        a block of y or c ends a block of x.  Each entry is on each side of at most one
        equation, so the two-term equations chain entries and the one-term ones zero
        them: the basis is the indicators of the chains free of zeros, ordered by their
        last entry, which is the chain's free column.
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
        field = self.field
        basis = []
        for chain in sorted(chains, key=lambda chain: chain[-1]):
            v = [field.zero] * (dx * dy)
            for e in chain:
                v[e] = field.one
            basis.append(self._unflatten(tuple(v), dy, dx))
        return basis

    @_memo
    def _reduced(self, x: JordanModule, y: JordanModule) -> tuple[Subspace, list[Matrix]]:
        """(span, maps): ``maps``, the stable basis, are the ``hom_basis`` maps independent of
        the maps through the projective and of those before them; ``span`` is the reduced span
        of the flattened maps through the projective, with zero tails, and of the k-th of
        ``maps`` with minus the k-th unit tail (tails ``len(hom_basis)`` long, the last ones
        unused).  A map x -> y with coordinates a on ``maps`` reduces to (0, a, 0)."""
        p, basis = self.projective, self.hom_basis(x, y)
        width, units = x.dim * y.dim, Matrix.identity(self.field, len(basis)).scale(-1).data
        zero = (self.field.zero,) * len(basis)
        space = Subspace(self.field, width + len(basis))
        products = (g.mul(f) for f in self.hom_basis(x, p) for g in self.hom_basis(p, y))
        space.extend(g.flatten() + zero for g in products)
        maps = []
        for b in basis:
            v = space.residue(b.flatten() + units[len(maps)])
            if any(v[:width]):  # else b is stably a combination of the maps before it
                space.insert(v)
                maps.append(b)
        return space, maps

    def classify(self, x: JordanModule, y: JordanModule, matrix: Matrix) -> StableMap:
        """The class x -> y of an equivariant matrix, keyed by its coordinates."""
        rows, cols = y.dim, x.dim
        if (matrix.rows, matrix.cols) != (rows, cols):
            shape = f"{matrix.rows}x{matrix.cols}"
            raise DimensionError(f"a map {x} -> {y} is {rows}x{cols}, got {shape}")
        space, maps = self._reduced(x, y)
        width = rows * cols
        v = space.residue(matrix.flatten() + (self.field.zero,) * (space.ambient_dim - width))
        if any(v[:width]):
            raise PreconditionError(f"matrix does not commute with t: not a map {x} -> {y}")
        return StableMap(x, y, matrix, v[width : width + len(maps)])

    @_memo
    def stable_basis(self, x: JordanModule, y: JordanModule) -> list[StableMap]:
        maps = self._reduced(x, y)[1]
        units = Matrix.identity(self.field, len(maps)).data
        return [StableMap(x, y, b, e) for b, e in zip(maps, units)]

    @_memo
    def stable_dim(self, x: JordanModule, y: JordanModule) -> int:
        return len(self.stable_basis(x, y))

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
    def _table(self, x: JordanModule, u: JordanModule, y: JordanModule) -> list[list[tuple]]:
        """Entry [i][j]: coordinates on ``stable_basis(x, y)`` of the class
        ``stable_basis(u, y)[i] . stable_basis(x, u)[j]``."""
        return [
            [
                self.classify(x, y, b.matrix.mul(a.matrix)).key
                for a in self.stable_basis(x, u)
            ]
            for b in self.stable_basis(u, y)
        ]

    @_memo
    def _av_conditions(self, x: JordanModule, y: JordanModule):
        """``is_almost_vanishing``'s five conditions as a function of the coordinates of a
        nonzero class f: x -> y, on the tables of the pair, fetched once."""
        field, p, indecs = self.field, self.field.char, self.indecomposables()
        d = self.stable_dim(x, y)
        # f factors through every line c: u -> y (c: x -> v) exactly when it is killed by
        # the annihilators of all the images c . - (- . c): one sweep of the lines per pair.
        # The sum does not depend on the order; the spaces with the fewest lines go
        # first, so that a sweep which fills F^d early stops before the long ones.
        incoming = _killing_rows(
            p,
            d,
            (
                _composites(p, m, c)
                for u in sorted(indecs, key=lambda u: self.stable_dim(u, y))
                for m in [_post(self._table(x, u, y))]
                for c in _lines(field, self.stable_dim(u, y))
            ),
        )
        outgoing = _killing_rows(
            p,
            d,
            (
                _composites(p, m, c)
                for v in sorted(indecs, key=lambda v: self.stable_dim(x, v))
                for m in [_pre(self._table(x, v, y))]
                for c in _lines(field, self.stable_dim(x, v))
            ),
        )
        # f . g (h . f) for g in a radical basis into x (h out of y): f's coordinates
        # mixing the composites with the basis of the pair, whose rows these span.
        epis = _row_basis(p, _transposed(self._radical_composites(x, y)))
        monos = _row_basis(
            p,
            _transposed(
                _composites(p, post, h)
                for u in indecs
                for post in [_post(self._table(x, y, u))]
                for h in map(_key, self.rad_stable_basis(y, u))
            ),
        )
        # x first: f . id_x = f is nonzero, so most lines settle on its rank alone
        sources = [x] + [v for v in indecs if v != x and self.stable_dim(v, x)]
        images = [_post(self._table(v, x, y)) for v in sources]

        def conditions(phi: tuple) -> dict[str, bool]:
            nonzero = filter(None, _image_ranks(p, images, phi))
            return {
                "factors_through_incoming": not any(_apply(p, incoming, phi)),
                "factors_through_outgoing": not any(_apply(p, outgoing, phi)),
                "kills_non_split_epis": not any(_apply(p, epis, phi)),
                "killed_by_non_split_monos": not any(_apply(p, monos, phi)),
                # the ranks sum to 1: the first nonzero one is 1 and no other follows
                "image_is_simple": next(nonzero, 0) == 1 and next(nonzero, 0) == 0,
            }

        return conditions

    @_memo
    def rad_stable_basis(self, x: JordanModule, y: JordanModule) -> list[StableMap]:
        """Spanning classes of the non-isomorphisms x -> y (x, y indecomposable).

        For non-isomorphic endpoints every class qualifies; for x = y the
        non-isomorphisms are the radical of the local endomorphism ring,
        spanned by the classes of :meth:`rad_module_basis`.
        """
        if not (x.is_indecomposable and y.is_indecomposable):
            raise PreconditionError("radical basis is defined here for indecomposables")
        if x.blocks != y.blocks:
            return self.stable_basis(x, y)
        candidates = (self.classify(x, y, b) for b in self.rad_module_basis(x, y))
        return _independent(self.field.char, candidates, _key)

    def rad_module_basis(self, u: JordanModule, m: JordanModule) -> list[Matrix]:
        """Module-level spanning set of non-isomorphisms u -> m."""
        if u.blocks != m.blocks:
            return self.hom_basis(u, m)
        t = self.t_matrix(m)
        candidates = (t.mul(b) for b in self.hom_basis(u, m))
        return _independent(self.field.char, candidates, Matrix.flatten)

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
        kappa = self._kappa(i)
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

    def _kappa(self, i: int) -> Matrix:
        """Inclusion of the cover kernel: J_{n-i} -> J_n spanning e_i..e_{n-1}."""
        return self.incl_matrix(self.n - i, self.n)

    def omega_map(self, f: StableMap) -> StableMap:
        """Syzygy of a morphism class between indecomposables.

        Lift f through the projective covers, then restrict the lift to
        the cover kernels.  The restriction depends on the chosen lift
        only up to maps factoring through projectives, so the stable
        class is well defined; the solver's canonical particular
        solution keeps the output deterministic.
        """
        i = f.source.block
        j = f.target.block
        src_omega = self.omega_object(f.source)
        tgt_omega = self.omega_object(f.target)
        p = self.projective
        pi_i = self.proj_matrix(self.n, i)
        pi_j = self.proj_matrix(self.n, j)
        lift_basis = self.hom_basis(p, p)
        lifts = Matrix(self.field, list(zip(*(pi_j.mul(b).flatten() for b in lift_basis))))
        coeffs = solve(lifts, f.matrix.mul(pi_i).flatten())
        if coeffs is None:
            raise InternalCheckError("projective lift does not exist", witness=f)
        lift = _mix(self.field.char, coeffs, [b.flatten() for b in lift_basis])
        moved = self._unflatten(lift, self.n, self.n).mul(self._kappa(i))
        # columns of the moved kernel must lie in the kernel of pi_j
        if any(moved.entry(r, c) for r in range(j) for c in range(self.n - i)):
            raise InternalCheckError("lift does not preserve cover kernels", witness=f)
        restricted = Matrix(
            self.field,
            [[moved.entry(r, c) for c in range(self.n - i)] for r in range(j, self.n)],
        )
        return self.classify(src_omega, tgt_omega, restricted)

    @_memo
    def _omega_coordinates(self, x: JordanModule, y: JordanModule) -> list[tuple]:
        """The keys, coordinates on ``stable_basis(Omega x, Omega y)``, of ``omega_map(g)`` for
        each g in ``stable_basis(x, y)``."""
        return [self.omega_map(g).key for g in self.stable_basis(x, y)]

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

        They are returned as coefficient vectors on ``stable_basis(x, y)``.
        """
        rows = _transposed(self._radical_composites(x, y))
        return _kernel(self.field.char, self.stable_dim(x, y), rows)

    def _radical_composites(self, x: JordanModule, y: JordanModule):
        """For each g in ``rad_stable_basis(u, x)``, u running over the indecomposables:
        the coordinates of b . g for every b in ``stable_basis(x, y)``."""
        p = self.field.char
        return (
            _composites(p, pre, g)
            for u in self.indecomposables()
            for pre in [_pre(self._table(u, x, y))]
            for g in map(_key, self.rad_stable_basis(u, x))
        )


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

    def through_right(u_mod: JordanModule) -> list[tuple]:
        """The maps right . b, b running over ``hom_basis(u_mod, middle)``, as columns."""
        return Matrix(f, list(zip(*(right.mul(b).flatten() for b in ctx.hom_basis(u_mod, middle)))))

    # Non-split: no section s with right . s = identity.
    identity_flat = Matrix.identity(f, i).flatten()
    checks["non_split"] = solve(through_right(m), identity_flat) is None

    # Lifting property: every non-isomorphism u: U -> m (U running over
    # all indecomposables, the projective included) lifts through right.
    checks["lifting"] = all(
        solve(columns, u.flatten()) is not None
        for u_mod in ctx.indecomposables(include_projective=True)
        for columns in [through_right(u_mod)]
        for u in ctx.rad_module_basis(u_mod, m)
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
    posts = [_post(ctx._table(v, x, y)) for v in indecs]
    ranks = _image_ranks(ctx.field.char, posts, f.key)
    return {v: rank for v, rank in zip(indecs, ranks) if rank}


def is_almost_vanishing(f: StableMap) -> AlmostVanishingReport:
    """Evaluate five equivalent descriptions of an almost-vanishing class.

    The conditions, each computed independently on the stable category:

    * factors_through_incoming: f factors through every nonzero class
      into its target (all sources, all classes; finite-field sweep).
      f lies in the image c . - of every line c: u -> y exactly when the
      annihilators of those images kill it, so the sweep visits each line
      once per pair (x, y), O(sum_u L_uy) eliminations with L_uy the lines
      of Hom(u, y), and f costs one product with the annihilator rows.
    * factors_through_outgoing: f factors through every nonzero class
      out of its source (dual sweep, over the images - . c).
    * kills_non_split_epis: f . g = 0 for every non-split-epimorphism g
      into the source; linear, checked on radical spanning sets.
    * killed_by_non_split_monos: h . f = 0 for every non-split-mono h
      out of the target; dual.
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
    so valid_through = k_max always.  Rad^k(X, m) is held as echelon
    rows of coordinates on ``stable_basis(X, m)``, and every composite
    is read from the tables (``_Context._table``).
    """
    if k_max < 0:
        raise UnsupportedParameterError(f"k_max must be >= 0, got {k_max}")
    ctx = context(m.n, field)
    if m.block == ctx.n:
        raise PreconditionError(f"{m} is projective")
    p, indecs = ctx.field.char, ctx.indecomposables()
    # for each g in rad_stable_basis(x, z): the coordinates of b . g, b in stable_basis(z, m)
    through = {
        (x, z): [_composites(p, pre, g.key) for g in ctx.rad_stable_basis(x, z)]
        for x in indecs
        for z in indecs
        for pre in [_pre(ctx._table(x, z, m))]
    }
    spans = {x: Matrix.identity(ctx.field, ctx.stable_dim(x, m)).data for x in indecs}
    dims_by_level = [{x: len(spans[x]) for x in indecs}]
    for _ in range(k_max + 1):
        spans = {
            x: _row_basis(
                p,
                (_mix(p, h, b_g) for z in indecs for b_g in through[x, z] for h in spans[z]),
            )
            for x in indecs
        }
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
            posts = [_post(ctx._table(x, u, v)) for x in sources]
            sections = _pre(ctx._table(u, v, u))
            for a in lines[u, v]:
                checked += 1
                # Composing with the line a must be injective on the classes x -> u.
                if not all(r == d for r, d in zip(_image_ranks(p, posts, a), dims)):
                    continue
                monos += 1
                # Split: some class b . a is the identity of u.
                if not _spans(p, _composites(p, sections, a), identity):
                    # the line's class, by its key: its coefficient tuple
                    failures.append({"source": str(u), "target": str(v), "class": a})
    return CheckReport(
        "mono-representable-split",
        not failures,
        failures,
        {"classes_checked": checked, "functor_monos": monos},
    )


def simple_fp_check(m: JordanModule, field: Field = GF5) -> bool:
    """Image of the connecting class of the almost split sequence is s^m."""
    ctx = context(m.n, field)
    connecting = ctx.av_class(m)
    factors = image_comp_factors(connecting)
    return factors == {m: 1}


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
    and class g, d <= n/2 a stable dimension, where matrix squares took two
    O(n^3) products, a residue of length X.dim * F(Y).dim and an ``omega_map``.
    """
    ctx = context(m.n, field)
    if m.block == ctx.n:
        raise PreconditionError(f"{m} is projective")
    p, odd = ctx.field.char, r % 2
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
                post = _post(ctx._table(m, codomain, ctx.omega_object(y) if odd else y))
                images = ctx._omega_coordinates(m, y) if odd else units
                sides.append([_composites(p, post, fg) for fg in images])
            if y == m:
                pre = _pre(ctx._table(x, m, codomain))
                sides.append([_composites(p, pre, g) for g in units])
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
                rep = AlmostVanishingReport(x, y, all(checks.values()), checks)
                if not rep.agreement:
                    failures += [{**where, "conditions": rep.conditions}] * per_line
                if rep.verdict:
                    found += per_line
                    if y != ctx.omega_object(x):
                        failures += [{**where, "error": "wrong codomain"}] * per_line
    return CheckReport(
        "almost-vanishing-agreement",
        not failures,
        failures,
        {"classes": classes, "almost_vanishing": found, "up_to_scalar": up_to_scalar},
    )
