"""Brute-force matrix model of the stable module category of k[t]/(t^n).

Indecomposable modules are Jordan blocks J_1..J_n for the nilpotent
action of t, with J_n projective (and injective).  Morphisms are
matrices commuting with the t-actions; morphism classes are cosets
modulo maps factoring through projectives, canonicalized eagerly so
class equality is representative independent.  Everything is computed
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
from itertools import product
from operator import attrgetter

from .errors import (
    DimensionError,
    FieldMismatchError,
    InternalCheckError,
    PreconditionError,
    UnsupportedParameterError,
)
from .linalg import GF5, Field, Matrix, Subspace, kernel_basis, rank, solve
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

    ``matrix`` is an equivariant representative; ``key`` is the canonical
    residue of its flattening modulo the projectively-factoring subspace,
    so two StableMaps are equal exactly when they are stably equal.
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


def _independent(field: Field, width: int, candidates, key) -> list:
    """The candidates whose key is independent of the keys of those before them."""
    seen = Subspace(field, width)
    return [c for c in candidates if seen.insert(key(c))]


def _null_combinations(field: Field, count: int, groups) -> list[tuple]:
    """Kernel basis of the stacked system: each group holds one vector per unknown.

    A group gives one equation per coordinate, whose coefficients are that
    coordinate of each of its vectors.  With no equations all ``count``
    unknowns are free.
    """
    rows = [row for vectors in groups for row in zip(*vectors)]
    return kernel_basis(Matrix(field, rows or [[0] * count]))


def _combination(field: Field, vectors: list, target) -> tuple | None:
    """Coefficients c with sum(c_i vectors_i) = target, or None when there are none."""
    if not vectors:
        return None if any(target) else ()
    return solve(Matrix(field, list(zip(*vectors))), target)


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

    def _unflatten(self, vec, rows: int, cols: int) -> Matrix:
        data = [vec[r * cols : (r + 1) * cols] for r in range(rows)]
        return Matrix(self.field, data)

    @_memo
    def hom_basis(self, x: JordanModule, y: JordanModule) -> list[Matrix]:
        """Basis of equivariant maps x -> y: solutions of X T_x = T_y X."""
        self.check_module(x)
        self.check_module(y)
        dx, dy = x.dim, y.dim
        if dx == 0 or dy == 0:
            return []
        tx = self.t_matrix(x)
        ty = self.t_matrix(y)
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
        basis = kernel_basis(Matrix(self.field, eqs))
        return [self._unflatten(v, dy, dx) for v in basis]

    @_memo
    def proj_subspace(self, x: JordanModule, y: JordanModule) -> Subspace:
        """Flattened span of maps x -> y factoring through the projective."""
        space = Subspace(self.field, x.dim * y.dim)
        p = self.projective
        for f in self.hom_basis(x, p):
            for g in self.hom_basis(p, y):
                space.insert(g.mul(f).flatten())
        return space

    def classify(self, x: JordanModule, y: JordanModule, matrix: Matrix) -> StableMap:
        key = self.proj_subspace(x, y).residue(matrix.flatten())
        return StableMap(x, y, matrix, key)

    def residue(self, x: JordanModule, y: JordanModule, matrix: Matrix) -> tuple:
        return self.proj_subspace(x, y).residue(matrix.flatten())

    @_memo
    def stable_basis(self, x: JordanModule, y: JordanModule) -> list[StableMap]:
        candidates = (self.classify(x, y, b) for b in self.hom_basis(x, y))
        return _independent(self.field, x.dim * y.dim, candidates, _key)

    def stable_dim(self, x: JordanModule, y: JordanModule) -> int:
        return len(self.stable_basis(x, y))

    def zero_map(self, x: JordanModule, y: JordanModule) -> StableMap:
        return self.classify(x, y, Matrix.zeros(self.field, y.dim, x.dim))

    def identity_map(self, x: JordanModule) -> StableMap:
        return self.classify(x, x, Matrix.identity(self.field, x.dim))

    def compose(self, g: StableMap, f: StableMap) -> StableMap:
        if g.source != f.target:
            raise PreconditionError(
                f"cannot compose {g.source}->{g.target} after {f.source}->{f.target}"
            )
        return self.classify(f.source, g.target, g.matrix.mul(f.matrix))

    def combine(self, x: JordanModule, y: JordanModule, basis: list[StableMap], coeffs) -> StableMap:
        acc = Matrix.zeros(self.field, y.dim, x.dim)
        for c, b in zip(coeffs, basis):
            if c:
                acc = acc.add(b.matrix.scale(c))
        return self.classify(x, y, acc)

    @_memo
    def class_lines(self, x: JordanModule, y: JordanModule) -> list[StableMap]:
        """One class per line of nonzero stable classes x -> y (finite field only).

        Each is the line's class with first nonzero coefficient 1, in
        ``product`` order; every check here is unchanged by a nonzero scalar.
        """
        p = self.field.char
        if p == 0:
            raise UnsupportedParameterError(
                "full class enumeration needs a finite coefficient field"
            )
        basis = self.stable_basis(x, y)
        d = len(basis)
        return [
            self.combine(x, y, basis, (0,) * k + (1,) + tail)
            for k in reversed(range(d))
            for tail in product(range(p), repeat=d - 1 - k)
        ]

    @_memo
    def _coordinates(self, x: JordanModule, y: JordanModule) -> list[tuple[int, tuple]]:
        """Rows (i, tail): a class x -> y has coefficients sum(key[i] * tail) on the stable
        basis; pivot and unit part of the reduced span of the keys with unit vectors appended."""
        basis = self.stable_basis(x, y)
        width, units = x.dim * y.dim, Matrix.identity(self.field, len(basis)).data
        space = Subspace(self.field, width + len(basis))
        space.extend(b.key + e for b, e in zip(basis, units))
        return [(next(i for i, a in enumerate(r) if a), r[width:]) for r in space.basis()]

    def line(self, f: StableMap) -> StableMap:
        """f's line's class with first nonzero coefficient 1 (f if it is that, or zero)."""
        pairs = self._coordinates(f.source, f.target)
        coeffs = (sum(f.key[i] * row[j] for i, row in pairs) for j in range(len(pairs)))
        lead = next((c for c in self.field.coerce_row(coeffs) if c), 1)
        if lead == 1:
            return f
        return self.classify(f.source, f.target, f.matrix.scale(self.field.inv(lead)))

    @_memo
    def rad_stable_basis(self, x: JordanModule, y: JordanModule) -> list[StableMap]:
        """Spanning classes of the non-isomorphisms x -> y (x, y indecomposable).

        For non-isomorphic endpoints every class qualifies; for x = y the
        non-isomorphisms are the radical of the local endomorphism ring,
        spanned by t times the endomorphisms.
        """
        if not (x.is_indecomposable and y.is_indecomposable):
            raise PreconditionError("radical basis is defined here for indecomposables")
        if x.blocks != y.blocks:
            return self.stable_basis(x, y)
        t = self.t_matrix(x)
        candidates = (self.classify(x, y, t.mul(b)) for b in self.hom_basis(x, y))
        return _independent(self.field, x.dim * y.dim, candidates, _key)

    def rad_module_basis(self, u: JordanModule, m: JordanModule) -> list[Matrix]:
        """Module-level spanning set of non-isomorphisms u -> m."""
        if u.blocks != m.blocks:
            return self.hom_basis(u, m)
        t = self.t_matrix(m)
        candidates = (t.mul(b) for b in self.hom_basis(u, m))
        return _independent(self.field, u.dim * m.dim, candidates, Matrix.flatten)

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
        columns = [pi_j.mul(b).flatten() for b in lift_basis]
        coeffs = _combination(self.field, columns, f.matrix.mul(pi_i).flatten())
        if coeffs is None:
            raise InternalCheckError("projective lift does not exist", witness=f)
        lift = Matrix.zeros(self.field, self.n, self.n)
        for c, b in zip(coeffs, lift_basis):
            if c:
                lift = lift.add(b.scale(c))
        moved = lift.mul(self._kappa(i))
        # columns of the moved kernel must lie in the kernel of pi_j
        if any(moved.entry(r, c) for r in range(j) for c in range(self.n - i)):
            raise InternalCheckError("lift does not preserve cover kernels", witness=f)
        restricted = Matrix(
            self.field,
            [[moved.entry(r, c) for c in range(self.n - i)] for r in range(j, self.n)],
        )
        return self.classify(src_omega, tgt_omega, restricted)

    def omega_pow_map(self, f: StableMap, r: int) -> StableMap:
        """r-th syzygy power of a class; omega is an involution stably."""
        return f if r % 2 == 0 else self.omega_map(f)

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
        return self.combine(m, target, self.stable_basis(m, target), sols[0])

    # -- composition images ----------------------------------------------
    # Keyed by the class f, so every class checked against f shares one
    # span; callers pass one class per line (``line``), as c.f spans alike.
    @_memo
    def post_image(self, f: StableMap, v: JordanModule) -> Subspace:
        """Span of the classes f . b, b running over ``stable_basis(v, f.source)``."""
        space = Subspace(self.field, v.dim * f.target.dim)
        for b in self.stable_basis(v, f.source):
            space.insert(self.residue(v, f.target, f.matrix.mul(b.matrix)))
        return space

    @_memo
    def pre_image(self, f: StableMap, w: JordanModule) -> Subspace:
        """Span of the classes b . f, b running over ``stable_basis(f.target, w)``."""
        space = Subspace(self.field, f.source.dim * w.dim)
        for b in self.stable_basis(f.target, w):
            space.insert(self.residue(f.source, w, b.matrix.mul(f.matrix)))
        return space

    def killed_by_radical(self, x: JordanModule, y: JordanModule) -> list[tuple]:
        """Classes x -> y killed by every non-isomorphism into x.

        They are returned as coefficient vectors on ``stable_basis(x, y)``.
        """
        basis = self.stable_basis(x, y)
        composites = (
            [self.residue(u, y, b.matrix.mul(g.matrix)) for b in basis]
            for u in self.indecomposables()
            for g in self.rad_stable_basis(u, x)
        )
        return _null_combinations(self.field, len(basis), composites)


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
    return ctx.hom_basis(x, y)


def stable_basis(x: JordanModule, y: JordanModule, field: Field = GF5) -> list[StableMap]:
    ctx = context(x.n, field)
    ctx.check_module(y)
    return ctx.stable_basis(x, y)


def stable_hom_dim(x: JordanModule, y: JordanModule, field: Field = GF5) -> int:
    return len(stable_basis(x, y, field))


def stable_class_lines(x: JordanModule, y: JordanModule, field: Field = GF5) -> list[StableMap]:
    """One class per line of nonzero stable classes x -> y; see ``_Context.class_lines``."""
    ctx = context(x.n, field)
    ctx.check_module(y)
    return ctx.class_lines(x, y)


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
        return [right.mul(b).flatten() for b in ctx.hom_basis(u_mod, middle)]

    # Non-split: no section s with right . s = identity.
    identity_flat = Matrix.identity(f, i).flatten()
    checks["non_split"] = _combination(f, through_right(m), identity_flat) is None

    # Lifting property: every non-isomorphism u: U -> m (U running over
    # all indecomposables, the projective included) lifts through right.
    checks["lifting"] = all(
        _combination(f, columns, u.flatten()) is not None
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
    f = ctx.line(f)
    out: dict[JordanModule, int] = {}
    for v in ctx.indecomposables():
        mult = ctx.post_image(f, v).rank
        if mult:
            out[v] = mult
    return out


def is_almost_vanishing(f: StableMap) -> AlmostVanishingReport:
    """Evaluate five equivalent descriptions of an almost-vanishing class.

    The conditions, each computed independently on the stable category:

    * factors_through_incoming: f factors through every nonzero class
      into its target (all sources, all classes; finite-field sweep).
    * factors_through_outgoing: f factors through every nonzero class
      out of its source (dual sweep).
    * kills_non_split_epis: f . g = 0 for every non-split-epimorphism g
      into the source; linear, checked on radical spanning sets.
    * killed_by_non_split_monos: h . f = 0 for every non-split-mono h
      out of the target; dual.
    * image_is_simple: the image functor of Hom(-, f) has composition
      length one.

    The verdicts must coincide; ``report.agreement`` says whether they
    did.  A stably zero class short-circuits to False with a note.
    """
    ctx = context(f.source.n, f.matrix.field)
    x, y = f.source, f.target
    if f.is_zero:
        return AlmostVanishingReport(x, y, False, {}, note="stably zero class")

    indecs = ctx.indecomposables()
    conditions = {
        "factors_through_incoming": all(
            ctx.post_image(c, x).contains(f.key)
            for u in indecs
            for c in ctx.class_lines(u, y)
        ),
        "factors_through_outgoing": all(
            ctx.pre_image(c, y).contains(f.key)
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
        "image_is_simple": sum(image_comp_factors(f).values()) == 1,
    }

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
    so valid_through = k_max always.
    """
    ctx = context(m.n, field)
    if m.block == ctx.n:
        raise PreconditionError(f"{m} is projective")
    indecs = ctx.indecomposables()
    spans: dict[int, list[StableMap]] = {
        x.block: list(ctx.stable_basis(x, m)) for x in indecs
    }
    dims_by_level = [{x.block: len(spans[x.block]) for x in indecs}]
    for _ in range(k_max + 1):
        spans = {
            x.block: _independent(
                ctx.field,
                x.dim * m.dim,
                (
                    ctx.compose(h, g)
                    for z in indecs
                    for h in spans[z.block]
                    for g in ctx.rad_stable_basis(x, z)
                ),
                _key,
            )
            for x in indecs
        }
        dims_by_level.append({x.block: len(spans[x.block]) for x in indecs})
    layers: dict[int, dict[Vertex, int]] = {}
    for k in range(k_max + 1):
        row = {}
        for x in indecs:
            mult = dims_by_level[k][x.block] - dims_by_level[k + 1][x.block]
            if mult:
                row[Vertex(TUBE, (x.block,))] = mult
        layers[k] = row
    return LayerTable(target=m.vertex(), layers=layers, k_max=k_max, valid_through=k_max)


def mono_representable_split_check(n: int, field: Field = GF5) -> CheckReport:
    """Classes inducing injections on all Hom(X, -) must be split monos."""
    if n > 6:
        raise UnsupportedParameterError(
            f"split-mono sweep enumerates all classes; n={n} exceeds the n <= 6 budget"
        )
    ctx = context(n, field)
    indecs = ctx.indecomposables()
    failures = []
    monos = 0
    checked = 0
    for u in indecs:
        for v in indecs:
            for theta in ctx.class_lines(u, v):
                checked += 1
                # Composing with theta must be injective on the classes x -> u.
                if not all(
                    ctx.post_image(theta, x).rank == ctx.stable_dim(x, u)
                    for x in indecs
                ):
                    continue
                monos += 1
                if not ctx.pre_image(theta, u).contains(ctx.identity_map(u).key):
                    failures.append({"source": str(u), "target": str(v), "class": theta.key})
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
    """
    ctx = context(m.n, field)
    if m.block == ctx.n:
        raise PreconditionError(f"{m} is projective")

    def f_obj(x: JordanModule) -> JordanModule:
        return x if r % 2 == 0 else ctx.omega_object(x)

    def f_map(g: StableMap) -> StableMap:
        return ctx.omega_pow_map(g, r)

    codomain = f_obj(m)
    basis = ctx.stable_basis(m, codomain)

    def square(x: JordanModule, y: JordanModule, g: StableMap) -> list[tuple]:
        """F(g) . alpha_X - alpha_Y . g for each basis class alpha, as residues."""
        fg = f_map(g).matrix if x == m else None

        def side(b: Matrix) -> Matrix:
            if y != m:
                return fg.mul(b)
            moved = b.mul(g.matrix).scale(-1)
            return moved if x != m else fg.mul(b).add(moved)

        return [ctx.residue(x, f_obj(y), side(b.matrix)) for b in basis]

    indecs = ctx.indecomposables()
    squares = (
        square(x, y, g)
        for x in indecs
        for y in indecs
        if m in (x, y)
        for g in ctx.stable_basis(x, y)
    )
    sols = _null_combinations(ctx.field, len(basis), squares)
    solutions = [ctx.combine(m, codomain, basis, c) for c in sols]

    omega_rule = codomain == ctx.omega_object(m)
    spanned = False
    if len(solutions) == 1 and omega_rule:
        # both keys are nonzero, so this asks whether they span one line
        av_line = Subspace(ctx.field, m.dim * codomain.dim)
        av_line.insert(ctx.av_class(m).key)
        spanned = av_line.contains(solutions[0].key)
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
        if not simple_fp_check(m, field):
            factors = image_comp_factors(ctx.av_class(m))
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
    are unchanged by a nonzero scalar, so they run once per line of classes;
    without ``up_to_scalar`` a line counts, and repeats its failure entry,
    once for each of its p - 1 classes, grouped by line.
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
            where = {"x": str(x), "y": str(y)}
            for f in ctx.class_lines(x, y):
                classes += per_line
                rep = is_almost_vanishing(f)
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
