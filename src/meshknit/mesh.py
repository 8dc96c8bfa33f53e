"""Hom spaces, knitting, path signs, and diamond cokernels in mesh categories.

The mesh category of a stable translation quiver has formal linear
combinations of directed paths as its morphism spaces, modulo the ideal
generated by one relation per mesh: the sum over the mesh middles of
the two-step composites through them, all coefficients +1.  Relative
signs between parallel paths are not imposed; they emerge from
reduction modulo the ideal.

Every mesh of the modeled shapes has one or two middles, so every
relation instance is a single path or a sum of two paths.  The quotient
is therefore "zero, or plus-or-minus one representative per class".  It
is built depth by depth, as the representable functor Hom(u, -) is
(Riedtmann 1980): the classes of length t at x are the pairs (class of
length t - 1 at w, arrow w -> x), modulo the mesh relation at x composed
with the classes of length t - 2 at tau(x).  One signed union-find per
depth over those few class nodes (:class:`_MeshClasses`) computes the
quotient exactly, with no linear algebra and without building a path;
the per-path signs and zero paths are concatenated from per-class lists.

Diamond cokernels enumerate no paths: on the dihedral family they are
alternating sums of four knitting tables (see :func:`diamond_cokernel`).

Path length is the grading, and doubles as the radical filtration:
irreducible morphisms (single arrows) span grade 1.

Every operation takes a window radius.  Computations internally enlarge
the window by the maximum path length in play plus 2, and raise
:class:`~meshknit.errors.WindowError` naming the offending vertex
rather than silently truncating, since a missing boundary mesh would
corrupt the relation span.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field as dataclass_field
from itertools import count as _count, zip_longest

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
    TUBE,
    DihedralFamily,
    TranslationQuiver,
    Tube,
    Vertex,
    ZAInf,
    new_vertex,
)

# path_sign_check labels reports on up to this many paths "dense" and
# gives them hom_dim and per-pair counts; larger ones are "certificate".
# Both come from the same union-find: the label is kept because the
# benchmark checks it.
DENSE_SIGN_LIMIT = 120


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


@dataclass(eq=False)
class LayerTable:
    """Multiplicities of simple functors in radical layers of Hom(-, target).

    ``rows`` are integer rows (k, first, step, mults): ``mults[t]`` sits in
    layer k at the vertex first + t * step (coordinates added).  Producers
    make one row per layer; rows of one layer share no vertex.  ``layers[k]``
    maps vertices to nonzero multiplicities, built from the rows on each read;
    a row of zeros still records its layer.  Two tables are equal when their
    targets, ``layers``, k_max and valid_through are: the rows are only an
    encoding of the table.  Rows are reported for k <= valid_through
    only; valid_through < k_max flags where the knitting recurrence left its
    validity range (an entry would have gone negative).
    """

    target: Vertex
    rows: list[tuple[int, Vertex, tuple[int, ...], list[int]]]
    k_max: int
    valid_through: int

    def _cells(self, k: int | None = None):
        """(layer, vertex, multiplicity) of each nonzero entry, row by row; of layer k if given."""
        for layer, (c, coords), step, mults in self.rows:
            if k is None or layer == k:
                for at, mult in zip(zip(*map(_count, coords, step)), mults):
                    if mult:
                        yield layer, new_vertex((c, at)), mult

    @property
    def layers(self) -> dict[int, dict[Vertex, int]]:
        layers: dict[int, dict[Vertex, int]] = {k: {} for k, *_ in self.rows}
        for k, v, mult in self._cells():
            layers[k][v] = mult
        return layers

    def __eq__(self, other):  # what the rows encode, not how
        if not isinstance(other, LayerTable):
            return NotImplemented
        fields = [(t.target, t.layers, t.k_max, t.valid_through) for t in (self, other)]
        return fields[0] == fields[1]

    def entry(self, k: int, v: Vertex) -> int:
        return self.row(k).get(v, 0)

    def row(self, k: int) -> dict[Vertex, int]:
        return {v: mult for _, v, mult in self._cells(k)}

    @property
    def truncated(self) -> bool:
        return self.valid_through < self.k_max

    def multiplicities(self) -> dict[Vertex, int]:
        """Total multiplicity per vertex across all reported layers."""
        out: dict[Vertex, int] = {}
        for _, v, mult in self._cells():
            out[v] = out.get(v, 0) + mult
        return {v: m for v, m in sorted(out.items()) if m}


class _Window:
    """Caller window plus internal safety margin, for valid vertices; fails loudly at the edge."""

    def __init__(self, quiver: TranslationQuiver, base: int, margin: int):
        if base < 1:
            raise UnsupportedParameterError(f"window must be >= 1, got {base}")
        self.quiver = quiver
        self.base = base
        self.radius = base + margin

    def check_base(self, v: Vertex) -> Vertex:
        if not self.quiver._in_window(v, self.base):
            raise WindowError(f"vertex {v} lies outside window radius {self.base}", v)
        return v

    def check(self, v: Vertex) -> Vertex:
        if not self.quiver._in_window(v, self.radius):
            raise WindowError(
                f"computation needed vertex {v} outside the enlarged window "
                f"(radius {self.radius}); widen the window",
                v,
            )
        return v


def _prefix_blocks(
    q: TranslationQuiver, u: Vertex, m: Vertex, grade: int, win: _Window
) -> list[dict[Vertex, tuple[int, dict[Vertex, int]]]]:
    """The trie of the paths u -> m of the given length, by depth and vertex.

    With the paths numbered in word order (arrows in label order), those
    through a prefix of t arrows ending at x form a block of consecutive
    indices.  ``blocks[t][x]`` is (size, offsets): the number of paths
    x -> m of length grade - t, and where each child's block starts in it.

    Each (t, x) is expanded once, depth first with an explicit stack, and
    only if m is reachable from x in exactly the remaining number of
    steps.  Each vertex is window-checked on its first visit, in the
    order a walk of every path would first meet it.
    """
    win.check(u)
    win.check(m)
    distances: dict[Vertex, int | None] = {}

    def reaches(at: Vertex, remaining: int) -> bool:
        if at not in distances:
            distances[at] = q._distance(win.check(at), m)
        d = distances[at]
        if d is None or d > remaining or (remaining - d) % 2:
            return False
        return not q.grade_forced or d == remaining

    blocks: list[dict] = [{} for _ in range(grade + 1)]
    if not reaches(u, grade):
        return blocks
    blocks[grade][m] = (1, {})
    # frame: depth, vertex, its arrow iterator, child offsets, block size so far
    frames = [[0, u, iter(q.arrows_out(u)), {}, 0]] if grade else []
    while frames:
        frame = frames[-1]
        t, x, arrows, kids, size = frame
        a = next(arrows, None)
        if a is None:
            frames.pop()
            blocks[t][x] = (size, kids)
            if frames and size:  # x's block follows its elder siblings' in the parent's
                frames[-1][3][x] = frames[-1][4]
                frames[-1][4] += size
        elif reaches(a.target, grade - t - 1):
            y = a.target
            if y not in blocks[t + 1]:
                frames.append([t + 1, y, iter(q.arrows_out(y)), {}, 0])
            elif y in kids:
                # offsets are keyed by the child vertex
                raise InternalCheckError(f"two arrows {x} -> {y} lie on paths to {m}", x)
            elif blocks[t + 1][y][0]:
                kids[y] = size
                frame[4] = size + blocks[t + 1][y][0]
    return blocks


@dataclass
class FlipEdge:
    """Two parallel paths differing by one mesh exchange (sign -1)."""

    path_a: int
    path_b: int
    position: int
    mesh_end: Vertex


class _MeshClasses:
    """Parallel paths u -> m modulo the mesh ideal, built depth by depth.

    In length t at x the ideal is the ideal of length t - 1 extended by
    each arrow w -> x, plus the mesh relation at x composed with the
    paths of length t - 2 into tau(x).  So the classes at (t, x) are the
    nodes (root class at (t - 1, w), arrow w -> x), subject to one
    relation per root class r at (t - 2, tau(x)): r followed by the mesh
    at x.  No mesh of the modeled shapes has more than two middles, so a
    relation kills one node (one middle) or joins two nodes up to -1 (two
    middles), and a signed union-find per depth computes the quotient.  A
    component is dead when it holds a killed node or, outside
    characteristic 2, its joins close an odd cycle (p = -p); a node made
    from a dead class is dead too.  Only the (length, vertex) pairs of
    :func:`_prefix_blocks` get nodes.

    A join stands for one flip edge per path of r, so the components are
    those of the flip graph on the paths, dead ones included.  Each node
    is measured from its first path in word order.  Nodes are numbered
    in that order (the roots of the depth above in order, then arrows in
    label order), and a join keeps the lower node as the root, so a
    component's first path is its root's.
    """

    def __init__(
        self, q: TranslationQuiver, u: Vertex, m: Vertex, grade: int, win: _Window, field: Field
    ):
        self.q, self.u, self.grade = q, u, grade
        self.blocks = blocks = _prefix_blocks(q, u, m, grade, win)
        self.paths = blocks[0].get(u, (0,))[0]
        # per node: parent (a lower node), parity relative to it, vertex; at
        # roots: dead, the number of paths it holds, its nodes by arrow target
        parent, parity, vertex, dead, count = [0], [0], [u], [False], [1]
        self.ext: list[dict[Vertex, int] | None] = [None]
        ext, signed = self.ext, field.char != 2
        self.lone: dict[Vertex, Vertex] = {}  # one-middle mesh ends met: their start

        def find(i: int) -> tuple[int, int]:
            odd = 0
            while parent[i] != i:
                up = parent[i]
                parity[i] ^= parity[up]
                parent[i] = parent[up]
                odd ^= parity[i]
                i = parent[i]
            return i, odd

        # roots per depth, in node order and by vertex
        self.roots = [[0] if self.paths else []]
        by_vertex: list[dict[Vertex, list[int]]] = [{u: self.roots[0]}]
        mesh_ends = {}  # tau^-1 per mesh start: on the tube a vertex recurs across depths
        for t in range(1, grade + 1):
            first = len(parent)
            for c in self.roots[t - 1]:
                e = ext[c] = {}
                c_dead, c_count = dead[c], count[c]
                for y in blocks[t - 1][vertex[c]][1]:
                    e[y] = i = len(parent)
                    parent.append(i)
                    parity.append(0)
                    vertex.append(y)
                    dead.append(c_dead)
                    count.append(c_count)
                    ext.append(None)
            layer = blocks[t]
            # the mesh at y starts at s = tau(y), and its middles are the
            # targets of the arrows out of s: all of them lie on paths to m
            for s, s_roots in by_vertex[t - 2].items() if t > 1 else ():
                y = mesh_ends.get(s)
                if y is None:
                    y = mesh_ends[s] = q._tau(s, -1)
                if y not in layer or not layer[y][0]:
                    continue
                middles = blocks[t - 2][s][1]
                if len(middles) == 1:
                    # the two-step segment is a full relation on its own
                    (w,) = middles
                    self.lone[y] = s
                    for r in s_roots:
                        c = find(ext[r][w])[0]
                        dead[find(ext[c][y])[0]] = True
                    continue
                w1, w2 = middles
                for r in s_roots:
                    (c1, p1), (c2, p2) = find(ext[r][w1]), find(ext[r][w2])
                    # impose (-1)^p1 node1 + (-1)^p2 node2 = 0
                    (r1, q1), (r2, q2) = find(ext[c1][y]), find(ext[c2][y])
                    odd = q1 ^ q2 ^ p1 ^ p2
                    if r1 == r2:
                        if not odd and signed:
                            dead[r1] = True  # an odd cycle of flips forces p = -p
                        continue
                    if r2 < r1:
                        r1, r2 = r2, r1
                    parent[r2], parity[r2] = r1, odd ^ 1
                    dead[r1] = dead[r1] or dead[r2]
                    count[r1] += count[r2]
            roots = [i for i in range(first, len(parent)) if parent[i] == i]
            self.roots.append(roots)
            here: dict[Vertex, list[int]] = {}
            for i in roots:
                if vertex[i] in here:
                    here[vertex[i]].append(i)
                else:
                    here[vertex[i]] = [i]
            by_vertex.append(here)
        # Parents are lower nodes, so one pass in node order points every
        # node at its root, with its parity relative to the root.
        for i, up in enumerate(parent):
            if up != i:
                parent[i], parity[i] = parent[up], parity[i] ^ parity[up]
        self.parent, self.parity = parent, parity
        final = self.roots[grade]
        self.sizes = [(count[r], dead[r]) for r in final]  # per component: paths, dead
        self.components = len(final)
        self.live = sum(1 for r in final if not dead[r])

    def codes(self) -> list[int]:
        """Per path in word order, k + 1 times its sign relative to the
        first path of its component k (components in path order).

        One walk from the last depth back carries (class, parity): the
        codes of the paths on from a class concatenate those of the nodes
        extending it, negated where a node's parity is odd.  Both signs
        of each class's list are kept, so the cost is the total size of
        those lists, with no join.
        """
        out = [1] * self.paths  # an impossible count fails here, at once
        if self.paths < 2:
            return out
        parent, parity, ext = self.parent, self.parity, self.ext
        memo = {r: ([k + 1], [-k - 1]) for k, r in enumerate(self.roots[self.grade])}
        for t in range(self.grade - 1, 0, -1):
            lower = {}
            for c in self.roots[t]:
                plus, minus = [], []
                for i in ext[c].values():
                    pair = memo[parent[i]]
                    plus += pair[parity[i]]
                    minus += pair[parity[i] ^ 1]
                lower[c] = plus, minus
            memo = lower
        lo = 0
        for i in ext[0].values():
            part = memo[parent[i]][parity[i]]
            out[lo:lo + len(part)] = part
            lo += len(part)
        return out

    def zero_paths(self) -> list[int]:
        """The paths with a one-middle segment, in word order.

        That is a property of the path, not of its class.  A walk from
        the last depth back keeps, per arrow w -> x into depth t, the
        offsets in x's block of the paths on from x with such a segment
        from depth t - 1 on.  Only a kill can make one, so the walk runs
        only after one (never on the dihedral family).
        """
        lone, blocks = self.lone, self.blocks
        if not lone:
            return []
        below: dict[tuple, list[int]] = {}
        for t in range(self.grade - 1, -1, -1):
            here = {}
            if t:
                tails = [(w, x) for w, (_, kids) in blocks[t - 1].items() for x in kids]
            else:
                tails = [(None, self.u)]
            for w, x in tails:
                out: list[int] = []
                for y, off in blocks[t][x][1].items():
                    if y in lone and lone[y] == w:
                        out += range(off, off + blocks[t + 1][y][0])
                    else:
                        out += [off + z for z in below.get((x, y), ())]
                here[w, x] = out
            below = here
        return below[None, self.u]

    def flip_edges(self) -> list[FlipEdge]:
        """Every flip edge, from one walk of the prefix trie.

        The paths through one prefix are a block of consecutive indices.
        A prefix ending tau(v) -> w -> v pairs its block, path by path,
        with the block through the other middle w', found by adding the
        offsets of w' and of v.  Edges come by prefix, in word order.
        """
        q, blocks, grade = self.q, self.blocks, self.grade
        edges: list[FlipEdge] = []
        seq, lows = [self.u] * (grade + 1), [0] * (grade + 1)  # vertex, block start per depth
        # depth first in word order; child y of x closes the segment seq[t - 1] -> x -> y
        root_kids = blocks[0][self.u][1] if self.paths else {}
        stack = [(1, x, off) for x, off in reversed(root_kids.items())] if grade > 1 else []
        while stack:
            t, x, lo = stack.pop()
            seq[t], lows[t] = x, lo
            for y, off in reversed(blocks[t][x][1].items()):
                y_lo = lo + off
                if t + 1 < grade:
                    stack.append((t + 1, y, y_lo))
                mesh = q._mesh(y)
                if mesh.start != seq[t - 1] or len(mesh.middles) == 1:
                    continue
                start_kids = blocks[t - 1][mesh.start][1]
                for w in mesh.middles:
                    shift = lows[t - 1] + start_kids[w] + blocks[t][w][1][y] - y_lo
                    if shift > 0:  # w != x, and each pair is listed from its lower side
                        edges += (
                            FlipEdge(i, i + shift, t - 1, y)
                            for i in range(y_lo, y_lo + blocks[t + 1][y][0])
                        )
        return edges


def _windowed_classes(
    q: TranslationQuiver, u: Vertex, m: Vertex, window: int, grade: int, field: Field
) -> _MeshClasses:
    if grade < 0:
        raise UnsupportedParameterError(f"grade must be >= 0, got {grade}")
    win = _Window(q, window, grade + 2)
    win.check_base(u)
    win.check_base(m)
    return _MeshClasses(q, u, m, grade, win, field)


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
        # with no path u -> m at all, grade 0 counts none below
        grade = q._distance(u, m) or 0
    classes = _windowed_classes(q, u, m, window, grade, field)
    return HomSpace(u, m, grade, classes.paths, classes.paths - classes.live)


def knit_layers(
    q: TranslationQuiver, m: Vertex, k_max: int, window: int
) -> LayerTable:
    """Radical-layer multiplicities of Hom(-, m) by the knitting recurrence.

    Layer 0 is {m: 1}.  Layer k adds each entry of layer k-1 at every
    middle of the mesh ending in its vertex, and subtracts each entry of
    layer k-2 at the tau-image of its vertex.  This forward push is the
    transpose of the per-vertex recurrence layer_k(v) = sum of
    layer_{k-1} over the middles of v minus layer_{k-2}(tau(v)), and it
    is exact: with M summing over middles and T applying tau, both read
    the (m, x) entry of P_k = M P_{k-1} - T P_{k-2}, and M and T commute
    because tau is an automorphism, mid(tau(v)) = tau(mid(v)).  Each shape
    pushes one integer row per layer (terms out of range are 0):

    * dihedral: the mesh ending at (i, j) has middles (i+2, j), (i, j+2), so
      layer k lives on m + (2a, 2(k-a)), a = 0..k, and
      R_k[a] = R_{k-1}[a-1] + R_{k-1}[a] - R_{k-2}[a-1].  O(k_max^2).
    * ZA-infinity, target (L, p): the same on (L + k - 2a, p + a), cut at the
      rim; a row starts at the rim end, steps (+2 levels, -1 position) and
      ends at its last nonzero entry (at most L).  O(k_max min(k_max, L)).
    * tube of rank n: tau is the identity on J_1..J_{n-1}, so
      R_k[i] = R_{k-1}[i-1] + R_{k-1}[i+1] - R_{k-2}[i].  O(k_max n).

    Every row lies in the window enlarged by k_max + 2 when m lies in the
    window.  The recurrence is exact where the mesh sequences stay exact;
    elsewhere it eventually drives an entry negative, and reporting stops
    just before: valid_through < k_max marks the truncation.
    """
    if k_max < 0:
        raise UnsupportedParameterError(f"k_max must be >= 0, got {k_max}")
    q.validate(m)
    _Window(q, window, k_max + 2).check_base(m)
    c, coords = m
    if isinstance(q, DihedralFamily):
        mi, mj = coords
        rows = [
            (k, new_vertex((c, (mi, mj + 2 * k))), (2, -2), line)
            for k, line in enumerate(_knit_lines(k_max))
        ]
    elif isinstance(q, ZAInf):
        level, pos = coords
        rows = [
            (k, new_vertex((c, (level + k - 2 * top, pos + top))), (2, -1), line[::-1])
            for k, line in enumerate(_knit_lines(k_max, rim=level))
            for top in [len(line) - 1]
        ]
    elif isinstance(q, Tube):
        first = new_vertex((TUBE, (1,)))
        last, older = [0] * (q.n - 1), [0] * (q.n - 1)
        last[coords[0] - 1] = 1
        rows = [(0, first, (1,), last)]
        for k in range(1, k_max + 1):
            line = [x + y - z for x, y, z in zip([0, *last], [*last[1:], 0], older)]
            if min(line) < 0:
                break
            rows.append((k, first, (1,), line))
            older, last = last, line
    else:
        raise QuiverKindError(f"knit_layers knits the three modeled shapes, got {q.kind}")
    return LayerTable(target=m, rows=rows, k_max=k_max, valid_through=len(rows) - 1)


def _knit_lines(k_max: int, rim: int = 0) -> list[list[int]]:
    """The integer rows R_0..R_k_max of a dihedral knit, up to one with a negative entry.

    Rows drop their trailing zeros.  With ``rim``, a ZA-infinity target's level,
    entry a of row k sits at level rim + k - 2a, so a row is cut below level 1."""
    lines = [[1]]
    for k in range(1, k_max + 1):
        last, older = lines[-1], lines[-2] if k > 1 else []
        line = [x + y - z for x, y, z in zip_longest([0, *last], last, [0, *older], fillvalue=0)]
        if rim:
            del line[(rim + k + 1) // 2 :]
        if min(line) < 0:
            break
        while len(line) > 1 and not line[-1]:
            line.pop()
        lines.append(line)
    return lines


@dataclass
class PathSignReport:
    """Outcome of checking that parallel paths agree up to predicted sign.

    ``signs[i]`` is the sign of path i relative to the first path in its
    flip-graph component; for any two paths in one component the
    predicted ratio is (-1)^(number of mesh flips), and the check
    verifies that this congruence really holds modulo the mesh ideal.
    ``flip_edges`` is computed on first access.
    """

    source: Vertex
    target: Vertex
    grade: int
    num_paths: int
    method: str  # "dense" | "certificate" | "vacuous"
    signs: list[int] = dataclass_field(default_factory=list)
    zero_paths: list[int] = dataclass_field(default_factory=list)
    connected: bool = True
    verified_pairs: int = 0
    hom_dim: int | None = None
    counterexamples: list = dataclass_field(default_factory=list)
    # the flip edges, or the function that lists them
    _edges: list[FlipEdge] | Callable[[], list[FlipEdge]] = dataclass_field(
        default_factory=list, repr=False, compare=False
    )

    @property
    def flip_edges(self) -> list[FlipEdge]:
        if callable(self._edges):
            self._edges = self._edges()
        return self._edges

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
) -> PathSignReport:
    """Verify parallel paths u -> m are congruent up to the predicted sign.

    Paths that differ by exchanging the two middles of one mesh are
    congruent up to -1: their sum is literally a relation instance.
    Chaining exchanges predicts the relative sign of any two paths as
    (-1)^(number of flips).  Since no mesh has more than two middles, the
    signed union-find of :class:`_MeshClasses` is the mesh ideal itself:
    two paths of one component agree up to their predicted sign, and two
    paths of different components agree only if both are zero.

    Cost: the classes take time polynomial in the grade (a few nodes per
    (length, vertex) pair of the prefix trie, with no path built), and
    ``hom_dim``, ``connected`` and ``verified_pairs`` come from their
    roots at (grade, m) and path counts.  ``signs`` and ``zero_paths``
    cost the total size of the per-class lists they are concatenated
    from, and ``flip_edges`` the prefix trie plus its edges, on first
    access only.  The n-entry ``signs`` list is allocated before any is
    filled, so an impossible path count fails at once.

    ``method`` and ``DENSE_SIGN_LIMIT`` stay only because the benchmark
    checks them: reports on at most ``DENSE_SIGN_LIMIT`` paths are
    "dense" and carry ``hom_dim`` and per-pair counts; larger ones are
    "certificate", where a connected flip graph certifies every pair by
    transitivity.
    """
    q.validate(u)
    q.validate(m)
    if grade is None:
        if not q.grade_forced:
            raise MixedPathLengthError(
                f"pass an explicit grade on the {q.kind} quiver"
            )
        grade = q._distance(u, m)
        if grade is None:
            return PathSignReport(u, m, 0, 0, "vacuous")
    classes = _windowed_classes(q, u, m, window, grade, field)
    n = classes.paths
    if n == 0:
        return PathSignReport(u, m, grade, 0, "vacuous")

    report = PathSignReport(u, m, grade, n, "dense" if n <= DENSE_SIGN_LIMIT else "certificate")
    codes = classes.codes()
    report.connected = classes.components == 1
    # One component: the codes are the signs.
    report.signs = codes if report.connected else [1 if c > 0 else -1 for c in codes]
    report.zero_paths = classes.zero_paths()
    report._edges = classes.flip_edges

    if report.method == "dense":
        # Pairs within one component agree up to their predicted sign (or
        # both vanish); pairs across components agree only if both vanish.
        report.hom_dim = classes.live
        live = [k for k, (_, dead) in enumerate(classes.sizes) if not dead]
        n_dead = n - sum(classes.sizes[k][0] for k in live)
        report.verified_pairs = n_dead * (n_dead - 1) // 2 + sum(
            classes.sizes[k][0] * (classes.sizes[k][0] - 1) // 2 for k in live
        )
        if not report.connected:
            # Every path of a live component fails against every path
            # outside it; the scan per live component is paid for by its output.
            bad = set()
            for k in live:
                mine = [i for i in range(n) if abs(codes[i]) == k + 1]
                others = [j for j in range(n) if abs(codes[j]) != k + 1]
                bad.update((min(a, b), max(a, b)) for a in mine for b in others)
            report.counterexamples = [{"pair": p, "predicted_sign": None} for p in sorted(bad)]
    elif report.connected:
        report.verified_pairs = n * (n - 1) // 2
    else:
        report.counterexamples.append(
            {"disconnected_flip_graph": True, "components": classes.components}
        )
    return report


# Zero multiplicity is certified on this many extra vertex rings beyond
# the diamond (coordinate step 2 per ring).
DIAMOND_MARGIN_RINGS = 2


def diamond_cokernel(q: TranslationQuiver, m: Vertex, n: int, window: int) -> LayerTable:
    """Layer table of coker(Hom(-, T + B) -> Hom(-, m)) for the diamond
    with corners m, T = m+(2n,0), B = m+(0,2n), X = m+(2n,2n), the maps
    being the all-gamma_prime chain from T and the all-gamma chain from B.

    Every mesh of the dihedral family has two middles, so Hom(v, w) is
    one-dimensional for v in the cone w + (a, b), a, b >= 0, zero
    elsewhere, and no composite of nonzero classes vanishes.  The cones
    of T and B meet in the cone of X, so over every field the sequence
    Hom(-, X) -> Hom(-, T) + Hom(-, B) -> Hom(-, m) -> coker -> 0 is
    exact, and the table is knit(m) - knit(T) - knit(B) + knit(X), each
    indexed by its grade to m.  It covers the diamond quadrant plus
    DIAMOND_MARGIN_RINGS rings, where a negative entry raises
    InternalCheckError: the vanishing off the grid is checked, not assumed.
    """
    if not isinstance(q, DihedralFamily):
        raise QuiverKindError(f"diamond_cokernel needs the dihedral family, got {q.kind}")
    if n < 1:
        raise UnsupportedParameterError(f"n must be >= 1, got {n}")
    c, (mi, mj) = q.validate(m)
    # (corner, its offset a along the rows m + (2a, 2(grade - a)), grade from it to m, sign)
    corners = (
        (m, 0, 0, 1),
        (q.vertex(mi + 2 * n, mj), n, n, -1),
        (q.vertex(mi, mj + 2 * n), 0, n, -1),
        (q.vertex(mi + 2 * n, mj + 2 * n), n, 2 * n, 1),
    )
    # Check every corner before knitting any, so a far corner fails at once.
    win = _Window(q, window, 0)
    for corner, *_ in corners:
        win.check_base(corner)
    # Rings grow with n so that every layer up to the deepest possible
    # factor (grade 2n-2) is covered completely, not just on the grid.
    rings = max(DIAMOND_MARGIN_RINGS, n - 2)
    complete_through = n + rings
    # Knitting is translation invariant, so every corner's rows are the same
    # segments, moved along the rows of m.
    lines = _knit_lines(2 * complete_through)
    rows = []
    for grade in range(2 * complete_through + 1):
        sums = [0] * (grade + 1)
        for _, offset, shift, sign in corners:
            if 0 <= grade - shift < len(lines):
                for a, mult in enumerate(lines[grade - shift], offset):
                    sums[a] += sign * mult
        # the quadrant m + (2a, 2b) with a, b <= complete_through
        lo = max(0, grade - complete_through)
        mults = sums[lo : min(grade, complete_through) + 1]
        if min(mults) < 0:
            a = lo + next(a for a, mult in enumerate(mults) if mult < 0)
            v = new_vertex((c, (mi + 2 * a, mj + 2 * (grade - a))))
            raise InternalCheckError(
                f"diamond cokernel at {m} has multiplicity {sums[a]} at {v} (grade {grade})",
                (grade, v),
            )
        if any(mults):
            first = new_vertex((c, (mi + 2 * lo, mj + 2 * (grade - lo))))
            rows.append((grade, first, (2, -2), mults))
    return LayerTable(target=m, rows=rows, k_max=complete_through, valid_through=complete_through)


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
    _Window(q, window, 0).check_base(rim_vertex)
    start = q._tau(rim_vertex, 1)
    classes = _windowed_classes(q, start, rim_vertex, window, 2, QQ)
    if classes.paths != 1:
        raise PreconditionError(
            f"expected exactly one double-step path {start} -> {rim_vertex}, found {classes.paths}"
        )
    return classes.live == 0
