"""Hom spaces, knitting, path signs, and diamond cokernels in mesh categories.

The mesh category of a stable translation quiver has formal linear
combinations of directed paths as its morphism spaces, modulo the ideal
generated by one relation per mesh: the sum over the mesh middles of
the two-step composites through them, all coefficients +1.  Relative
signs between parallel paths are not imposed; they emerge from
reduction modulo the ideal.

Every mesh of the modeled shapes has one or two middles, so every
relation instance is a single path or a sum of two paths.  The quotient
is therefore "zero, or plus-or-minus one representative per class", and
one signed union-find over the parallel paths (:class:`_MeshClasses`)
computes it exactly, with no linear algebra.

Path length is the grading, and doubles as the radical filtration:
irreducible morphisms (single arrows) span grade 1.

Every operation takes a window radius.  Computations internally enlarge
the window by the maximum path length in play plus 2, and raise
:class:`~meshknit.errors.WindowError` naming the offending vertex
rather than silently truncating, since a missing boundary mesh would
corrupt the relation span.
"""

from __future__ import annotations

import weakref
from collections import Counter
from dataclasses import dataclass, field as dataclass_field

from .errors import (
    InternalCheckError,
    MixedPathLengthError,
    PreconditionError,
    QuiverKindError,
    UnsupportedParameterError,
    WindowError,
)
from .linalg import QQ, Field
from .quiver import (
    Arrow,
    DihedralFamily,
    TranslationQuiver,
    Vertex,
    ZAInf,
)

Path = tuple[Arrow, ...]

# path_sign_check labels reports on up to this many paths "dense" and
# gives them hom_dim and per-pair counts; larger ones are "certificate".
# Both come from the same union-find: the label is kept because the
# benchmark checks it.
DENSE_SIGN_LIMIT = 120


def path_vertices(u: Vertex, path: Path) -> list[Vertex]:
    """Vertex sequence visited by a path starting at u (length + 1 entries)."""
    seq = [u]
    for a in path:
        if a.source != seq[-1]:
            raise PreconditionError(f"path is not composable at {seq[-1]}")
        seq.append(a.target)
    return seq


def path_word(path: Path) -> tuple[str, ...]:
    return tuple(a.label for a in path)


@dataclass(frozen=True)
class PathVector:
    """A formal linear combination of parallel equal-length paths."""

    source: Vertex
    target: Vertex
    terms: tuple[tuple[Path, object], ...]

    def __post_init__(self):
        lengths = set()
        for path, coeff in self.terms:
            seq = path_vertices(self.source, path)
            if seq[-1] != self.target:
                raise PreconditionError(
                    f"path ends at {seq[-1]}, expected {self.target}"
                )
            if coeff == 0:
                raise PreconditionError("zero coefficient in PathVector term")
            lengths.add(len(path))
        if len(lengths) > 1:
            raise MixedPathLengthError(
                f"mixed path lengths {sorted(lengths)} in one PathVector"
            )

    @property
    def grade(self) -> int:
        return len(self.terms[0][0]) if self.terms else 0


@dataclass(frozen=True)
class HomSpace:
    """One graded piece of a mesh-category Hom space.

    dim = basis_dim - relation_rank, where basis_dim counts the paths of
    the given grade and relation_rank the span of all mesh-relation
    instances between them.
    """

    source: Vertex
    target: Vertex
    grade: int
    basis_dim: int
    relation_rank: int

    @property
    def dim(self) -> int:
        return self.basis_dim - self.relation_rank


@dataclass
class LayerTable:
    """Multiplicities of simple functors in radical layers of Hom(-, target).

    ``layers[k]`` maps vertices to nonzero multiplicities; a missing key
    means zero.  Rows are reported for k <= valid_through only.  For the
    knitting recurrence valid_through < k_max flags the point where the
    recurrence left its validity range (a reported entry would have gone
    negative); exact computations set valid_through = k_max.
    """

    target: Vertex
    layers: dict[int, dict[Vertex, int]]
    k_max: int
    valid_through: int

    def entry(self, k: int, v: Vertex) -> int:
        return self.layers.get(k, {}).get(v, 0)

    def row(self, k: int) -> dict[Vertex, int]:
        return dict(self.layers.get(k, {}))

    def vertices(self) -> list[Vertex]:
        seen = set()
        for row in self.layers.values():
            seen.update(row)
        return sorted(seen)

    @property
    def max_layer(self) -> int:
        nonzero = [k for k, row in self.layers.items() if row]
        return max(nonzero) if nonzero else 0

    @property
    def truncated(self) -> bool:
        return self.valid_through < self.k_max

    def total_at(self, v: Vertex) -> int:
        return sum(row.get(v, 0) for row in self.layers.values())

    def multiplicities(self) -> dict[Vertex, int]:
        """Total multiplicity per vertex across all reported layers."""
        out: dict[Vertex, int] = {}
        for row in self.layers.values():
            for v, mult in row.items():
                out[v] = out.get(v, 0) + mult
        return {v: m for v, m in sorted(out.items()) if m}


class _Window:
    """Caller window plus internal safety margin; fails loudly at the edge."""

    def __init__(self, quiver: TranslationQuiver, base: int, margin: int):
        if base < 1:
            raise UnsupportedParameterError(f"window must be >= 1, got {base}")
        self.quiver = quiver
        self.base = base
        self.radius = base + margin

    def check_base(self, v: Vertex) -> Vertex:
        if not self.quiver.in_window(v, self.base):
            raise WindowError(f"vertex {v} lies outside window radius {self.base}", v)
        return v

    def check(self, v: Vertex) -> Vertex:
        if not self.quiver.in_window(v, self.radius):
            raise WindowError(
                f"computation needed vertex {v} outside the enlarged window "
                f"(radius {self.radius}); widen the window",
                v,
            )
        return v


_arrow_cache: "weakref.WeakKeyDictionary[TranslationQuiver, dict]" = weakref.WeakKeyDictionary()


def _sorted_arrows(q: TranslationQuiver, v: Vertex) -> list[Arrow]:
    per_quiver = _arrow_cache.setdefault(q, {})
    got = per_quiver.get(v)
    if got is None:
        got = sorted(q.arrows_out(v), key=lambda a: (a.label, a.target))
        per_quiver[v] = got
    return got


def _enumerate_paths(
    q: TranslationQuiver, u: Vertex, m: Vertex, grade: int, win: _Window
) -> list[Path]:
    """All directed paths u -> m of the exact given length, in word order."""
    win.check(u)
    win.check(m)
    out: list[Path] = []
    distances: dict[Vertex, int | None] = {}
    grade_forced = q.grade_forced

    def dist(at: Vertex) -> int | None:
        if at not in distances:
            distances[at] = q.distance(at, m)
        return distances[at]

    def walk(at: Vertex, acc: list[Arrow]):
        remaining = grade - len(acc)
        d = dist(at)
        if d is None or d > remaining or (remaining - d) % 2 != 0:
            return
        if grade_forced and d != remaining:
            return
        if remaining == 0:
            out.append(tuple(acc))
            return
        for a in _sorted_arrows(q, at):
            win.check(a.target)
            acc.append(a)
            walk(a.target, acc)
            acc.pop()

    walk(u, [])
    return out


def _relation_rows(
    q: TranslationQuiver,
    u: Vertex,
    m: Vertex,
    grade: int,
    paths: list[Path],
    win: _Window,
) -> list[list[int]]:
    """All mesh-relation instances between the given paths, as int rows.

    An instance is prefix . relation . suffix: a path u -> tau(v), the
    relation at the mesh ending in v, and a path v -> m.  Every instance
    connects equal-length paths by construction.  The candidate meshes
    are read off the enumerated paths themselves: the two-step segment
    of an instance is a segment of a full u -> m path.
    """
    index = {p: i for i, p in enumerate(paths)}
    candidates = set()
    for p in paths:
        seq = path_vertices(u, p)
        for s in range(grade - 1):
            v = q.tau_inv(seq[s])
            if seq[s + 2] == v:
                candidates.add((s, v))
    rows = []
    for s, v in sorted(candidates):
        start = q.tau(v)
        mesh = q.mesh(v)
        for w in mesh.middles:
            win.check(w)
        prefixes = _enumerate_paths(q, u, start, s, win)
        suffixes = _enumerate_paths(q, v, m, grade - s - 2, win)
        for pre in prefixes:
            for suf in suffixes:
                row = [0] * len(paths)
                for w in mesh.middles:
                    first = q.arrow_between(start, w)
                    second = q.arrow_between(w, v)
                    full = pre + (first, second) + suf
                    row[index[full]] += 1
                rows.append(row)
    return rows


def mesh_relation(q: TranslationQuiver, v: Vertex) -> PathVector:
    """The defining relation of the mesh ending at v (coefficients all +1)."""
    mesh = q.mesh(v)
    terms = []
    for w in mesh.middles:
        first = q.arrow_between(mesh.start, w)
        second = q.arrow_between(w, v)
        terms.append(((first, second), 1))
    return PathVector(mesh.start, v, tuple(terms))


def relation_instances(
    q: TranslationQuiver, u: Vertex, m: Vertex, grade: int, window: int
) -> list[PathVector]:
    """Mesh-relation instances between grade-`grade` paths u -> m."""
    win = _Window(q, window, grade + 2)
    paths = _enumerate_paths(q, u, m, grade, win)
    rows = _relation_rows(q, u, m, grade, paths, win)
    out = []
    for row in rows:
        terms = tuple(
            (paths[i], coeff) for i, coeff in enumerate(row) if coeff
        )
        out.append(PathVector(u, m, terms))
    return out


@dataclass
class FlipEdge:
    """Two parallel paths differing by one mesh exchange (sign -1)."""

    path_a: int
    path_b: int
    position: int
    mesh_end: Vertex
    verified: bool = True


class _MeshClasses:
    """Parallel paths u -> m modulo the mesh ideal, as a signed union-find.

    No mesh of the modeled shapes has more than two middles, so every
    relation instance either kills one path (one middle) or makes two
    paths equal up to -1 (two middles).  Each path is thus (-1)^parity
    times its component's root, or zero when the component is dead: it
    holds a killed path or, outside characteristic 2 (where the signs
    collapse), its flips close an odd cycle, p = -p.  The quotient
    dimension is the number of live components.

    One scan finds every instance: position s of a path with
    seq[s] = tau(seq[s + 2]) is the mesh ending at seq[s + 2], applied
    with that path's own prefix and suffix.
    """

    def __init__(
        self, q: TranslationQuiver, u: Vertex, m: Vertex, grade: int, win: _Window, field: Field
    ):
        self.paths = paths = _enumerate_paths(q, u, m, grade, win)
        n = len(paths)
        self.parent = list(range(n))
        self.parity = [0] * n  # relative to the parent
        self.dead = [False] * n  # read at roots only
        self.signed = field.char != 2
        self.components = n
        self.flip_edges: list[FlipEdge] = []
        self.zero_paths: set[int] = set()
        # Label words are cheap dictionary keys; from a fixed source they
        # determine the path on every modeled shape.
        words = [path_word(p) for p in paths]
        self.index = {w: i for i, w in enumerate(words)}
        if len(self.index) != n:
            raise InternalCheckError(f"arrow labels do not determine the paths from {u}")

        # tau and the mesh exchanges are cached per mesh end: the same
        # vertex recurs across paths.  None marks a one-middle mesh.
        tau_of: dict[Vertex, Vertex] = {}
        swaps_of: dict[Vertex, dict[Vertex, tuple[str, str]] | None] = {}
        for i, p in enumerate(paths):
            seq = path_vertices(u, p)
            word = words[i]
            for s in range(grade - 1):
                v = seq[s + 2]
                start = tau_of.get(v)
                if start is None:
                    start = tau_of[v] = q.tau(v)
                if seq[s] != start:
                    continue
                if v not in swaps_of:
                    middles = q.mesh(v).middles
                    swaps_of[v] = None if len(middles) == 1 else {
                        w: (q.arrow_between(start, w).label, q.arrow_between(w, v).label)
                        for w in middles
                    }
                swaps = swaps_of[v]
                if swaps is None:
                    # the two-step segment is a full relation on its own
                    self.zero_paths.add(i)
                    self.kill(i)
                    continue
                for w, labels in swaps.items():
                    if w == seq[s + 1]:
                        continue
                    j = self.index[word[:s] + labels + word[s + 2:]]
                    if i < j:
                        self.flip_edges.append(FlipEdge(i, j, s, v))
                        self.join(i, j)

    def find(self, i: int) -> tuple[int, int]:
        """The root of path i's component and the parity of i relative to it.

        The root is the lowest-index path of the component; path halving
        keeps the trees shallow.
        """
        parent, parity = self.parent, self.parity
        odd = 0
        while parent[i] != i:
            up = parent[i]
            parity[i] ^= parity[up]
            parent[i] = parent[up]
            odd ^= parity[i]
            i = parent[i]
        return i, odd

    def kill(self, i: int) -> None:
        self.dead[self.find(i)[0]] = True

    def join(self, i: int, j: int) -> None:
        """Impose path_i + path_j = 0."""
        (ri, pi), (rj, pj) = self.find(i), self.find(j)
        if ri == rj:
            # an odd cycle of flips forces p = -p
            if pi == pj and self.signed:
                self.dead[ri] = True
            return
        if rj < ri:
            ri, rj = rj, ri
        self.parent[rj] = ri
        self.parity[rj] = pi ^ pj ^ 1
        self.dead[ri] = self.dead[ri] or self.dead[rj]
        self.components -= 1

    @property
    def live(self) -> int:
        """Dimension of the quotient: the number of live components."""
        return sum(1 for i, r in enumerate(self.parent) if i == r and not self.dead[i])


def hom_dim_mesh(
    q: TranslationQuiver,
    u: Vertex,
    m: Vertex,
    window: int,
    grade: int | None = None,
    field: Field = QQ,
) -> HomSpace:
    """Graded piece of mesh-category Hom(u, m).

    When the quiver shape forces one path length per vertex pair the
    grade is inferred; on the tube, where lengths mix, an explicit grade
    is required.  dim = 0 when no path of the grade exists.
    """
    q.validate(u)
    q.validate(m)
    if grade is None:
        if not q.grade_forced:
            raise MixedPathLengthError(
                f"path lengths u -> m are not forced on the {q.kind} quiver; "
                "pass an explicit grade"
            )
        d = q.distance(u, m)
        if d is None:
            win = _Window(q, window, 2)
            win.check_base(u)
            win.check_base(m)
            return HomSpace(u, m, 0, 0, 0)
        grade = d
    elif grade < 0:
        raise UnsupportedParameterError(f"grade must be >= 0, got {grade}")
    win = _Window(q, window, grade + 2)
    win.check_base(u)
    win.check_base(m)
    classes = _MeshClasses(q, u, m, grade, win, field)
    return HomSpace(u, m, grade, len(classes.paths), len(classes.paths) - classes.live)


def knit_layers(
    q: TranslationQuiver, m: Vertex, k_max: int, window: int
) -> LayerTable:
    """Radical-layer multiplicities of Hom(-, m) by the knitting recurrence.

    layer 0 is {m: 1}; layer 1 lists the mesh middles of m; deeper layers
    satisfy layer_k(v) = sum of layer_{k-1} over the middles minus
    layer_{k-2}(tau(v)).  The recurrence is exact on shapes where the
    mesh sequences stay exact; elsewhere it eventually drives an entry
    negative.  Reporting stops just before that: rows are recorded for
    k <= valid_through, and valid_through < k_max marks the truncation.
    Intermediate bookkeeping keeps formal (possibly negative) integers;
    only the reported rows for m gate the validity range.
    """
    if k_max < 0:
        raise UnsupportedParameterError(f"k_max must be >= 0, got {k_max}")
    q.validate(m)
    win = _Window(q, window, k_max + 2)
    win.check_base(m)

    memo: dict[tuple[Vertex, int], dict[Vertex, int]] = {}

    def layer(v: Vertex, k: int) -> dict[Vertex, int]:
        key = (v, k)
        got = memo.get(key)
        if got is not None:
            return got
        win.check(v)
        if k == 0:
            result = {v: 1}
        elif k == 1:
            result = {w: 1 for w in q.mesh(v).middles}
        else:
            acc: dict[Vertex, int] = {}
            for w in q.mesh(v).middles:
                for x, mult in layer(w, k - 1).items():
                    acc[x] = acc.get(x, 0) + mult
            for x, mult in layer(q.tau(v), k - 2).items():
                acc[x] = acc.get(x, 0) - mult
            result = {x: mult for x, mult in acc.items() if mult}
        memo[key] = result
        return result

    rows: dict[int, dict[Vertex, int]] = {}
    valid_through = k_max
    try:
        for k in range(k_max + 1):
            row = layer(m, k)
            if any(mult < 0 for mult in row.values()):
                valid_through = k - 1
                break
            rows[k] = row
    finally:
        # layer() refers to itself, so it and memo form a reference cycle
        # that only a full collection would free; release the memo now.
        memo.clear()
    return LayerTable(target=m, layers=rows, k_max=k_max, valid_through=valid_through)


@dataclass
class PathSignReport:
    """Outcome of checking that parallel paths agree up to predicted sign.

    ``signs[i]`` is the sign of path i relative to the first path in its
    flip-graph component; for any two paths in one component the
    predicted ratio is (-1)^(number of mesh flips), and the check
    verifies that this congruence really holds modulo the mesh ideal.
    """

    source: Vertex
    target: Vertex
    grade: int
    num_paths: int
    method: str  # "dense" | "certificate" | "vacuous"
    signs: list[int] = dataclass_field(default_factory=list)
    flip_edges: list[FlipEdge] = dataclass_field(default_factory=list)
    zero_paths: list[int] = dataclass_field(default_factory=list)
    connected: bool = True
    verified_pairs: int = 0
    hom_dim: int | None = None
    counterexamples: list = dataclass_field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return not self.counterexamples


def path_sign_check(
    q: TranslationQuiver,
    u: Vertex,
    m: Vertex,
    window: int,
    grade: int | None = None,
    field: Field = QQ,
    dense_limit: int = DENSE_SIGN_LIMIT,
) -> PathSignReport:
    """Verify parallel paths u -> m are congruent up to the predicted sign.

    Paths that differ by exchanging the two middles of one mesh are
    congruent up to -1: their sum is literally a relation instance.
    Chaining exchanges predicts the relative sign of any two paths as
    (-1)^(number of flips).  The flip edges, the paths killed by a
    one-middle mesh, and the components all come from one scan into the
    signed union-find of path classes (:class:`_MeshClasses`).  Since no
    mesh has more than two middles, that union-find is the mesh ideal
    itself: two paths of one component agree up to their predicted sign,
    and two paths of different components agree only if both are zero.

    ``method`` is a label only, kept because the benchmark checks it:
    reports on at most ``dense_limit`` paths are "dense" and carry
    ``hom_dim`` and per-pair counts; larger ones are "certificate", where
    each flip edge is an exhibited ideal element and a connected flip
    graph certifies every pair by transitivity.
    """
    q.validate(u)
    q.validate(m)
    if grade is None:
        if not q.grade_forced:
            raise MixedPathLengthError(
                f"pass an explicit grade on the {q.kind} quiver"
            )
        grade = q.distance(u, m)
        if grade is None:
            return PathSignReport(u, m, 0, 0, "vacuous")
    win = _Window(q, window, grade + 2)
    win.check_base(u)
    win.check_base(m)
    classes = _MeshClasses(q, u, m, grade, win, field)
    n = len(classes.paths)
    if n == 0:
        return PathSignReport(u, m, grade, 0, "vacuous")

    report = PathSignReport(u, m, grade, n, "dense" if n <= dense_limit else "certificate")
    report.flip_edges = classes.flip_edges
    report.zero_paths = sorted(classes.zero_paths)
    # Each flip contributes -1; signs are relative to the root, the
    # lowest-index path of each component.
    roots = [classes.find(i) for i in range(n)]
    report.signs = [-1 if odd else 1 for _, odd in roots]
    report.connected = classes.components == 1

    if report.method == "dense":
        # Pairs within one component agree up to their predicted sign (or
        # both vanish); pairs across components agree only if both vanish.
        report.hom_dim = classes.live
        sizes = Counter(r for r, _ in roots)
        live_roots = [r for r in sizes if not classes.dead[r]]
        n_dead = n - sum(sizes[r] for r in live_roots)
        report.verified_pairs = n_dead * (n_dead - 1) // 2 + sum(
            sizes[r] * (sizes[r] - 1) // 2 for r in live_roots
        )
        if not report.connected:
            # Every path of a live component fails against every path
            # outside it; the scan per live root is paid for by its output.
            bad = set()
            for r in live_roots:
                mine = [i for i in range(n) if roots[i][0] == r]
                others = [j for j in range(n) if roots[j][0] != r]
                bad.update((min(a, b), max(a, b)) for a in mine for b in others)
            report.counterexamples = [{"pair": p, "predicted_sign": None} for p in sorted(bad)]
    elif report.connected:
        # Certificate mode: every flip edge is a genuine relation instance
        # (checked structurally in the scan: segment start = tau(mesh end),
        # the two branches are exactly the mesh middles), so within a
        # connected flip graph all pairwise signs follow by transitivity.
        report.verified_pairs = n * (n - 1) // 2
    else:
        report.counterexamples.append(
            {"disconnected_flip_graph": True, "components": classes.components}
        )
    return report


# Zero multiplicity is certified on this many extra vertex rings beyond
# the diamond (coordinate step 2 per ring).
DIAMOND_MARGIN_RINGS = 2


def diamond_cokernel(
    q: TranslationQuiver,
    m: Vertex,
    n: int,
    window: int,
    field: Field = QQ,
) -> LayerTable:
    """Layer table of coker(Hom(-, top + bottom) -> Hom(-, m)) for the
    diamond with corners m, m+(2n,0), m+(0,2n), m+(2n,2n).

    The two maps are the all-gamma_prime chain from the top corner and
    the all-gamma chain from the bottom corner.  Per vertex v the
    multiplicity is the quotient dimension of grade-forced Hom(v, m) by
    the relation span plus every composite factoring through a corner.
    The scan covers the diamond quadrant plus DIAMOND_MARGIN_RINGS rings
    so the vanishing outside the expected grid is checked, not assumed.
    """
    if not isinstance(q, DihedralFamily):
        raise QuiverKindError(f"diamond_cokernel needs the dihedral family, got {q.kind}")
    if n < 1:
        raise UnsupportedParameterError(f"n must be >= 1, got {n}")
    q.validate(m)
    mi, mj = m.coords
    # The two fixed edge maps, as (corner, label word of the chain to m).
    chains = (
        (q.vertex(mi + 2 * n, mj), ("gamma_prime",) * n),
        (q.vertex(mi, mj + 2 * n), ("gamma",) * n),
    )
    # Rings grow with n so that every layer up to the deepest possible
    # factor (grade 2n-2) is scanned completely, not just on the grid.
    rings = max(DIAMOND_MARGIN_RINGS, n - 2)
    win = _Window(q, window, n + rings + 2)
    win.check_base(m)
    for corner in (chains[0][0], chains[1][0], q.tensor_translate(m, (2 * n, 2 * n))):
        win.check_base(corner)

    reach = 2 * n + 2 * rings
    layers: dict[int, dict[Vertex, int]] = {}
    for a in range(0, reach + 1, 2):
        for b in range(0, reach + 1, 2):
            v = q.vertex(mi + a, mj + b)
            win.check(v)
            grade = (a + b) // 2
            classes = _MeshClasses(q, v, m, grade, win, field)
            if not classes.paths:
                continue
            for corner, chain_word in chains:
                lead = q.distance(v, corner)
                if lead is None:
                    continue
                for p in _enumerate_paths(q, v, corner, lead, win):
                    classes.kill(classes.index[path_word(p) + chain_word])
            mult = classes.live
            if mult > 0:
                layers.setdefault(grade, {})[v] = mult
    # Rows are complete (every vertex of the grade scanned) up to n+rings.
    complete_through = n + rings
    return LayerTable(
        target=m, layers=layers, k_max=complete_through, valid_through=complete_through
    )


def rim_obstruction_check(q: TranslationQuiver, rim_vertex: Vertex, window: int) -> bool:
    """True iff the double-step composite at a rim vertex is zero mod meshes.

    On the ZA-infinity component the mesh at a rim vertex has a single
    middle term, so the up-then-down composite from tau(v) to v is a
    relation instance by itself; this computes the reduction honestly
    rather than trusting the construction.
    """
    if not isinstance(q, ZAInf):
        raise QuiverKindError(f"rim_obstruction_check needs a ZA-infinity quiver, got {q.kind}")
    q.validate(rim_vertex)
    if rim_vertex.coords[0] != 1:
        raise PreconditionError(f"{rim_vertex} is not on the rim (level 1)")
    win = _Window(q, window, 4)
    win.check_base(rim_vertex)
    start = q.tau(rim_vertex)
    win.check_base(start)
    classes = _MeshClasses(q, start, rim_vertex, 2, win, QQ)
    if len(classes.paths) != 1:
        raise PreconditionError(
            f"expected exactly one double-step path {start} -> {rim_vertex}, found {len(classes.paths)}"
        )
    return classes.live == 0
