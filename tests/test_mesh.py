"""Path calculus modulo mesh relations: Hom dims, knitting, signs."""

import gc
from collections import Counter
from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings, strategies as st

from meshknit import cli, mesh, quiver
from meshknit.errors import (
    InternalCheckError,
    MixedPathLengthError,
    PreconditionError,
    QuiverKindError,
    UnsupportedParameterError,
    WindowError,
)
from meshknit.linalg import GF, GF5, QQ
from references import Subspace, knit_push, span_contains, span_dim, table_from_layers


@pytest.fixture(scope="module")
def tube4():
    return quiver.build_tube(4)


@pytest.fixture(scope="module")
def dihedral():
    return quiver.build_dihedral_family(10)


# -- graded Hom dimensions -------------------------------------------------


def test_tube_endomorphisms_by_grade(tube4):
    j2 = tube4.vertex(2)
    assert mesh.hom_dim_mesh(tube4, j2, j2, window=4, grade=0).dim == 1
    assert mesh.hom_dim_mesh(tube4, j2, j2, window=4, grade=2).dim == 1
    assert mesh.hom_dim_mesh(tube4, j2, j2, window=4, grade=4).dim == 0
    assert mesh.hom_dim_mesh(tube4, j2, j2, window=4, grade=1).dim == 0


def test_tube_needs_an_explicit_grade(tube4):
    with pytest.raises(MixedPathLengthError):
        mesh.hom_dim_mesh(tube4, tube4.vertex(2), tube4.vertex(2), window=4)


def test_dihedral_hom_grade_is_inferred(dihedral):
    hom = mesh.hom_dim_mesh(dihedral, dihedral.vertex(2, 2), dihedral.vertex(0, 0), window=4)
    assert hom.grade == 2
    assert hom.basis_dim == 2
    assert hom.relation_rank == 1
    assert hom.dim == 1


def test_dihedral_unreachable_pairs_have_dim_zero(dihedral):
    hom = mesh.hom_dim_mesh(dihedral, dihedral.vertex(0, 0), dihedral.vertex(2, 2), window=4)
    assert hom.dim == 0


def test_negative_grade_is_rejected(tube4):
    with pytest.raises(UnsupportedParameterError):
        mesh.hom_dim_mesh(tube4, tube4.vertex(1), tube4.vertex(1), window=4, grade=-1)
    with pytest.raises(UnsupportedParameterError, match="grade must be >= 0, got -3"):
        mesh.path_sign_check(tube4, tube4.vertex(1), tube4.vertex(1), window=4, grade=-3)


def test_window_violation_is_loud(dihedral):
    with pytest.raises(WindowError):
        mesh.hom_dim_mesh(
            dihedral, dihedral.vertex(12, 12), dihedral.vertex(0, 0), window=2
        )


# -- the path-materialising scan, kept as the oracle ----------------------------
#
# The package computes the classes of paths u -> m depth by depth, on a
# few nodes per (length, vertex) pair, and never builds a path.  The
# functions below build every path as a tuple of arrows, and
# _PathScanClasses runs a signed union-find on the paths themselves,
# finding each relation instance by scanning every position of every
# path and looking its flip partner up by label word.  They are the
# literal computation the depth classes must agree with.


def path_vertices(u, path):
    """Vertex sequence visited by a path starting at u (length + 1 entries)."""
    seq = [u]
    for a in path:
        if a.source != seq[-1]:
            raise PreconditionError(f"path is not composable at {seq[-1]}")
        seq.append(a.target)
    return seq


def path_word(path):
    return tuple(a.label for a in path)


def _enumerate_paths(q, u, m, grade, win):
    """All directed paths u -> m of the exact given length, in word order.

    Depth first with an explicit stack of arrow iterators.  A vertex is
    entered only if m is reachable from it in exactly the remaining
    number of steps.  Each vertex is window-checked once, on its first
    visit.
    """
    win.check(u)
    win.check(m)
    distances = {}

    def reaches(at, remaining):
        if at not in distances:
            distances[at] = q.distance(win.check(at), m)
        d = distances[at]
        if d is None or d > remaining or (remaining - d) % 2:
            return False
        return not q.grade_forced or d == remaining

    if not reaches(u, grade):
        return []
    if grade == 0:
        return [()]
    out, prefix, stack = [], [], [iter(q.arrows_out(u))]
    while stack:
        a = next(stack[-1], None)
        if a is None:
            stack.pop()
            if prefix:
                prefix.pop()
            continue
        remaining = grade - len(prefix) - 1
        if not reaches(a.target, remaining):
            continue
        if remaining == 0:
            out.append((*prefix, a))
        else:
            prefix.append(a)
            stack.append(iter(q.arrows_out(a.target)))
    return out


class _PathScanClasses:
    """The signed union-find of every path, filled by a scan of every path.

    Each path is (-1)^parity times its component's root, the lowest-index
    path of the component, or zero when the component is dead: it holds
    a killed path or, outside characteristic 2, its flips close an odd
    cycle.  ``paths`` is the list of enumerated paths and ``index`` maps
    each label word to its path's index.
    """

    def __init__(self, q, u, m, grade, win, field):
        self.paths = paths = _enumerate_paths(q, u, m, grade, win)
        n = len(paths)
        self.parent = list(range(n))
        self.parity = [0] * n  # relative to the parent
        self.dead = [False] * n  # read at roots only
        self.signed = field.char != 2
        self.components = n
        self.flip_edges = []
        self.zero_paths = set()
        words = [path_word(p) for p in paths]
        self.index = {w: i for i, w in enumerate(words)}
        if len(self.index) != n:
            raise InternalCheckError(f"arrow labels do not determine the paths from {u}")
        for i, (p, word) in enumerate(zip(paths, words)):
            seq = path_vertices(u, p)
            for s in range(grade - 1):
                v = seq[s + 2]
                start = q.tau(v)
                if seq[s] != start:
                    continue
                middles = q.mesh(v).middles
                if len(middles) == 1:
                    self.zero_paths.add(i)
                    self.kill(i)
                    continue
                for w in middles:
                    if w == seq[s + 1]:
                        continue
                    labels = (q.arrow_between(start, w).label, q.arrow_between(w, v).label)
                    j = self.index[word[:s] + labels + word[s + 2:]]
                    if i < j:
                        self.flip_edges.append(mesh.FlipEdge(i, j, s, v))
                        self.join(i, j)

    def find(self, i):
        """The root of path i's component and the parity of i relative to it."""
        parent, parity = self.parent, self.parity
        odd = 0
        while parent[i] != i:
            up = parent[i]
            parity[i] ^= parity[up]
            parent[i] = parent[up]
            odd ^= parity[i]
            i = parent[i]
        return i, odd

    def kill(self, i):
        self.dead[self.find(i)[0]] = True

    def join(self, i, j):
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
    def live(self):
        """Dimension of the quotient: the number of live components."""
        return sum(1 for i, r in enumerate(self.parent) if i == r and not self.dead[i])


def _enumerate_paths_checking_each_arrow(q, u, m, grade, win):
    """Reference walk: window-checks the target of every arrow it follows."""
    win.check(u)
    win.check(m)
    distances = {}

    def reaches(at, remaining):
        if at not in distances:
            distances[at] = q.distance(at, m)
        d = distances[at]
        if d is None or d > remaining or (remaining - d) % 2:
            return False
        return not q.grade_forced or d == remaining

    if not reaches(u, grade):
        return []
    if grade == 0:
        return [()]
    out, prefix, stack = [], [], [iter(q.arrows_out(u))]
    while stack:
        a = next(stack[-1], None)
        if a is None:
            stack.pop()
            if prefix:
                prefix.pop()
            continue
        win.check(a.target)
        remaining = grade - len(prefix) - 1
        if not reaches(a.target, remaining):
            continue
        if remaining == 0:
            out.append((*prefix, a))
        else:
            prefix.append(a)
            stack.append(iter(q.arrows_out(a.target)))
    return out


def _walk_outcome(count_paths, q, u, m, grade, radius):
    try:
        return count_paths(q, u, m, grade, mesh._Window(q, radius, 0))
    except WindowError as exc:
        return ("WindowError", str(exc), exc.vertex)


def _prefix_walk_count(q, u, m, grade, win):
    return mesh._MeshClasses(q, u, m, grade, win, QQ).paths


def test_each_vertex_is_window_checked_once_with_the_per_arrow_outcome():
    tube = quiver.build_tube(5)
    za = quiver.build_za_inf(6)
    dih = quiver.build_dihedral_family(9)
    cases = [
        (tube, tube.vertex(1), tube.vertex(1), grade) for grade in range(7)
    ] + [
        (za, za.vertex(1, 0), za.vertex(level, -k), grade)
        for level in (1, 2)
        for k in range(5)
        for grade in range(9)
    ] + [
        (dih, dih.vertex(*u), dih.vertex(*m), None)
        for u, m in [((10, 10), (0, 0)), ((4, 4), (-4, -4)), ((6, 2), (0, -2))]
    ]
    interior = 0
    for q, u, m, grade in cases:
        if grade is None:
            grade = q.distance(u, m)
        for radius in range(1, 10):
            want = _walk_outcome(
                lambda *a: len(_enumerate_paths_checking_each_arrow(*a)), q, u, m, grade, radius
            )
            got = _walk_outcome(lambda *a: len(_enumerate_paths(*a)), q, u, m, grade, radius)
            assert got == want, (q, u, m, grade, radius)
            got = _walk_outcome(_prefix_walk_count, q, u, m, grade, radius)
            assert got == want, (q, u, m, grade, radius)
            interior += isinstance(got, tuple) and got[2] not in (u, m)
    # Some walks leave the window between their endpoints (ZA-infinity
    # paths climb above both ends), so the check inside the walk is exercised.
    assert interior > 0


def test_hom_dims_agree_over_finite_field(dihedral):
    pairs = [((4, 2), (0, 0)), ((2, 2), (0, 0)), ((6, 0), (0, 0))]
    for src, tgt in pairs:
        u, m = dihedral.vertex(*src), dihedral.vertex(*tgt)
        over_q = mesh.hom_dim_mesh(dihedral, u, m, window=4, field=QQ)
        over_5 = mesh.hom_dim_mesh(dihedral, u, m, window=4, field=GF5)
        over_2 = mesh.hom_dim_mesh(dihedral, u, m, window=4, field=GF(2))
        assert over_q.dim == over_5.dim == over_2.dim


# -- mesh relations ---------------------------------------------------------
#
# The literal definition of the mesh ideal: relation instances as explicit
# linear combinations of paths.  The package computes the ideal by a
# signed union-find instead; these serve as its oracle below.


@dataclass(frozen=True)
class PathVector:
    """A formal linear combination of parallel equal-length paths."""

    source: quiver.Vertex
    target: quiver.Vertex
    terms: tuple

    def __post_init__(self):
        lengths = set()
        for path, coeff in self.terms:
            seq = path_vertices(self.source, path)
            if seq[-1] != self.target:
                raise PreconditionError(f"path ends at {seq[-1]}, expected {self.target}")
            if coeff == 0:
                raise PreconditionError("zero coefficient in PathVector term")
            lengths.add(len(path))
        if len(lengths) > 1:
            raise MixedPathLengthError(f"mixed path lengths {sorted(lengths)} in one PathVector")

    @property
    def grade(self):
        return len(self.terms[0][0]) if self.terms else 0


def _relation_rows(q, u, m, grade, paths, win):
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
        middles = q.mesh(v).middles
        for w in middles:
            win.check(w)
        prefixes = _enumerate_paths(q, u, start, s, win)
        suffixes = _enumerate_paths(q, v, m, grade - s - 2, win)
        for pre in prefixes:
            for suf in suffixes:
                row = [0] * len(paths)
                for w in middles:
                    full = pre + (q.arrow_between(start, w), q.arrow_between(w, v)) + suf
                    row[index[full]] += 1
                rows.append(row)
    return rows


def mesh_relation(q, v):
    """The defining relation of the mesh ending at v (coefficients all +1)."""
    start = q.mesh(v).start
    terms = tuple(
        ((q.arrow_between(start, w), q.arrow_between(w, v)), 1) for w in q.mesh(v).middles
    )
    return PathVector(start, v, terms)


def relation_instances(q, u, m, grade, window):
    """Mesh-relation instances between grade-`grade` paths u -> m."""
    win = mesh._Window(q, window, grade + 2)
    paths = _enumerate_paths(q, u, m, grade, win)
    return [
        PathVector(u, m, tuple((paths[i], c) for i, c in enumerate(row) if c))
        for row in _relation_rows(q, u, m, grade, paths, win)
    ]


def test_mesh_relation_terms(dihedral):
    rel = mesh_relation(dihedral, dihedral.vertex(0, 0))
    assert rel.source == dihedral.vertex(2, 2)
    assert rel.target == dihedral.vertex(0, 0)
    assert rel.grade == 2
    assert len(rel.terms) == 2


def test_mesh_relation_at_tube_edge(tube4):
    # The mesh ending at J1 has a single middle, so a single term.
    rel = mesh_relation(tube4, tube4.vertex(1))
    assert len(rel.terms) == 1
    assert rel.grade == 2


def test_path_vector_rejects_mixed_lengths(tube4):
    j2, j1 = tube4.vertex(2), tube4.vertex(1)
    loop = (tube4.arrow_between(j2, j1), tube4.arrow_between(j1, j2))
    with pytest.raises(MixedPathLengthError):
        PathVector(j2, j2, ((loop, 1), ((), 1)))


def test_relation_instances_share_the_grade(dihedral):
    u = dihedral.vertex(6, 4)
    m = dihedral.vertex(0, 0)
    grade = dihedral.distance(u, m)
    # PathVector rejects mixed lengths, so every instance is homogeneous.
    instances = relation_instances(dihedral, u, m, grade, window=6)
    assert instances
    assert all(rel.grade == grade and rel.terms for rel in instances)


# -- knitting ----------------------------------------------------------------


def test_knit_tube4_middle_vertex(tube4):
    table = mesh.knit_layers(tube4, tube4.vertex(2), k_max=6, window=4)
    j1, j2, j3 = (tube4.vertex(i) for i in (1, 2, 3))
    assert table.row(0) == {j2: 1}
    assert table.row(1) == {j1: 1, j3: 1}
    assert table.row(2) == {j2: 1}
    assert table.row(3) == {}
    assert table.valid_through == 3
    assert table.truncated


def test_knit_tube4_edge_vertex(tube4):
    table = mesh.knit_layers(tube4, tube4.vertex(1), k_max=3, window=4)
    assert table.row(0) == {tube4.vertex(1): 1}
    assert table.row(1) == {tube4.vertex(2): 1}
    assert table.row(2) == {tube4.vertex(3): 1}
    assert table.row(3) == {}
    assert table.valid_through == 3
    assert not table.truncated


def test_knit_tube6_periodicity():
    q = quiver.build_tube(6)
    j3 = q.vertex(3)
    table = mesh.knit_layers(q, j3, k_max=5, window=4)
    assert [table.entry(k, j3) for k in range(5)] == [1, 0, 1, 0, 1]
    assert table.valid_through == 5


def test_knit_dihedral_layer_two(dihedral):
    m = dihedral.vertex(0, 0)
    table = mesh.knit_layers(dihedral, m, k_max=2, window=4)
    assert table.row(1) == {dihedral.vertex(0, 2): 1, dihedral.vertex(2, 0): 1}
    expected = {
        dihedral.vertex(4, 0): 1,
        dihedral.vertex(2, 2): 1,
        dihedral.vertex(0, 4): 1,
    }
    assert table.row(2) == expected
    assert not table.truncated


def test_knit_table_bookkeeping(tube4):
    table = mesh.knit_layers(tube4, tube4.vertex(2), k_max=6, window=4)
    assert table.entry(1, tube4.vertex(1)) == 1
    assert table.entry(5, tube4.vertex(1)) == 0
    assert sum(table.entry(k, tube4.vertex(2)) for k in range(7)) == 2
    assert table.multiplicities() == {
        tube4.vertex(1): 1,
        tube4.vertex(2): 2,
        tube4.vertex(3): 1,
    }
    assert max(k for k, row in table.layers.items() if row) == 2


def test_layer_tables_compare_by_layers_not_rows(tube4):
    table = mesh.knit_layers(tube4, tube4.vertex(2), k_max=6, window=4)
    assert any(0 in mults for *_, mults in table.rows)  # the tube's rows carry zeros
    same = table_from_layers(table.target, table.layers, table.k_max, table.valid_through)
    assert same.rows != table.rows and same == table
    assert same != table_from_layers(table.target, table.layers, table.k_max, 5)
    # layers follow the rows: there is no cached copy to go stale
    table.rows.append((6, tube4.vertex(1), (1,), [7]))
    assert table.layers[6] == {tube4.vertex(1): 7} and table.entry(6, tube4.vertex(1)) == 7
    assert table != same


dihedral_coords = st.tuples(
    st.integers(min_value=-3, max_value=3), st.integers(min_value=-3, max_value=3)
).filter(lambda c: (c[0] - c[1]) % 2 == 0)


@given(dihedral_coords, st.integers(min_value=1, max_value=4))
@example((0, 0), 200)
@settings(max_examples=40, deadline=None)
def test_knit_is_exact_on_the_dihedral_family(coords, k_max):
    q = quiver.build_dihedral_family(10)
    table = mesh.knit_layers(q, q.vertex(*coords), k_max=k_max, window=8)
    assert table.valid_through == k_max
    # Layer k lives exactly on the vertices at knitting distance k.
    for k in range(k_max + 1):
        for v, mult in table.row(k).items():
            assert mult == 1
            assert q.distance(v, q.vertex(*coords)) == k


def _knit_reference(q, m, k_max, window):
    """The per-vertex knitting recursion, memoised over (vertex, layer).

    layer_k(v) = sum of layer_{k-1} over the mesh middles of v minus
    layer_{k-2}(tau(v)), computed for every (v, k) in the backward cone
    of m.  knit_layers pushes one row forward instead; this is the
    literal recurrence it must agree with.
    """
    if k_max < 0:
        raise UnsupportedParameterError(f"k_max must be >= 0, got {k_max}")
    q.validate(m)
    win = mesh._Window(q, window, k_max + 2)
    win.check_base(m)
    memo = {}

    def layer(v, k):
        if (v, k) not in memo:
            win.check(v)
            if k == 0:
                result = {v: 1}
            elif k == 1:
                result = {w: 1 for w in q.mesh(v).middles}
            else:
                acc = {}
                for w in q.mesh(v).middles:
                    for x, mult in layer(w, k - 1).items():
                        acc[x] = acc.get(x, 0) + mult
                for x, mult in layer(q.tau(v), k - 2).items():
                    acc[x] = acc.get(x, 0) - mult
                result = {x: mult for x, mult in acc.items() if mult}
            memo[v, k] = result
        return memo[v, k]

    rows, valid_through = {}, k_max
    for k in range(k_max + 1):
        row = layer(m, k)
        if any(mult < 0 for mult in row.values()):
            valid_through = k - 1
            break
        rows[k] = row
    return table_from_layers(m, rows, k_max, valid_through)


KNIT_TUBES = {n: quiver.build_tube(n) for n in range(3, 10)}
KNIT_DIHEDRAL = quiver.build_dihedral_family(4)
KNIT_ZA = quiver.build_za_inf(4)


@st.composite
def knit_requests(draw):
    """(quiver, vertex, k_max, window) on one of the three shapes.

    The dihedral and ZA-infinity boxes reach past the smaller windows, so
    some requests fail the window check.
    """
    shape = draw(st.sampled_from(["tube", "dihedral", "za-inf"]))
    window = draw(st.integers(1, 4))
    if shape == "tube":
        q = KNIT_TUBES[draw(st.integers(3, 9))]
        return q, q.vertex(draw(st.integers(1, q.n - 1))), draw(st.integers(0, 40)), window
    if shape == "dihedral":
        i = draw(st.integers(-6, 6))
        j = draw(st.integers(-6, 6).filter(lambda j: (i - j) % 2 == 0))
        return KNIT_DIHEDRAL, KNIT_DIHEDRAL.vertex(i, j), draw(st.integers(0, 12)), window
    v = KNIT_ZA.vertex(draw(st.integers(1, 5)), draw(st.integers(-5, 5)))
    return KNIT_ZA, v, draw(st.integers(0, 12)), window


def _knit_outcome(knit, q, m, k_max, window):
    try:
        table = knit(q, m, k_max, window)
    except (UnsupportedParameterError, WindowError) as exc:
        return type(exc), str(exc)
    return table.layers, table.k_max, table.valid_through


@given(knit_requests())
@settings(max_examples=200, deadline=None)
def test_knit_matches_the_per_vertex_recursion(case):
    assert _knit_outcome(mesh.knit_layers, *case) == _knit_outcome(_knit_reference, *case)


@given(
    st.integers(-5, 5),
    st.integers(-5, 5),
    st.booleans(),
    st.integers(0, 40),
    st.integers(1, 4),
)
@settings(max_examples=150, deadline=None)
def test_dihedral_rows_match_the_per_vertex_push(half_i, half_j, odd, k_max, window):
    # both parity components; some vertices lie outside the smaller windows
    m = KNIT_DIHEDRAL.vertex(2 * half_i + odd, 2 * half_j + odd)
    case = (KNIT_DIHEDRAL, m, k_max, window)
    assert _knit_outcome(mesh.knit_layers, *case) == _knit_outcome(knit_push, *case)
    if KNIT_DIHEDRAL.in_window(m, window):  # row k starts at m + (0, 2k)
        (i, j), rows = m.coords, mesh.knit_layers(*case).rows
        assert [(k, KNIT_DIHEDRAL.validate(first), step) for k, first, step, _ in rows] == [
            (k, KNIT_DIHEDRAL.vertex(i, j + 2 * k), (2, -2)) for k in range(len(rows))
        ]


@given(
    st.integers(-10, 10),
    st.integers(-10, 10),
    st.booleans(),
    st.integers(0, 40),
    st.integers(1, 4),
)
@settings(max_examples=150, deadline=None)
def test_dihedral_rows_stay_inside_the_enlarged_window(half_i, half_j, odd, k_max, window):
    # The dihedral knit checks only its base: every row vertex lies in the enlarged
    # window on its own, and a base outside the window still raises.
    m = KNIT_DIHEDRAL.vertex(2 * half_i + odd, 2 * half_j + odd)
    if not KNIT_DIHEDRAL.in_window(m, window):
        with pytest.raises(WindowError):
            mesh.knit_layers(KNIT_DIHEDRAL, m, k_max, window)
        return
    table = mesh.knit_layers(KNIT_DIHEDRAL, m, k_max, window)
    for row in table.layers.values():
        assert all(KNIT_DIHEDRAL.in_window(v, window + k_max + 2) for v in row)


def test_dihedral_knit_builds_no_mesh():
    q = quiver.build_dihedral_family(4)
    table = mesh.knit_layers(q, q.vertex(1, -1), k_max=20, window=4)
    assert table.valid_through == 20
    assert q._meshes == {} and q._arrows_out == {}


PUSH_TUBES = {n: quiver.build_tube(n) for n in range(3, 31)}
KNIT_ZA_WIDE = quiver.build_za_inf(12)
tube_targets = st.integers(3, 30).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1)))


@given(tube_targets, st.integers(0, 44))
@example((3, 1), 2)  # an all-zero layer before the truncation
@example((4, 2), 44)  # truncated after an empty layer
@example((30, 29), 44)  # the second rim reached at once
@example((30, 1), 44)
@settings(max_examples=150, deadline=None)
def test_tube_rows_match_the_per_vertex_push(target, k_max):
    # Every row lies on J_1..J_{n-1}: it starts at a valid J_i, at or below
    # J_{n-1}, runs two levels down per entry and ends with a nonzero entry
    # (or is one zero) at J_1 or above.
    n, i = target
    case = (PUSH_TUBES[n], PUSH_TUBES[n].vertex(i), k_max, 4)
    assert _knit_outcome(mesh.knit_layers, *case) == _knit_outcome(knit_push, *case)
    for k, first, step, mults in mesh.knit_layers(*case).rows:
        high = PUSH_TUBES[n].validate(first).coords[0]
        assert step == (-2,) and mults and (mults[-1] or mults == [0])
        assert high <= min(i + k, n - 1) and (i + k - high) % 2 == 0
        assert high - 2 * (len(mults) - 1) >= 1


@given(st.integers(1, 11), st.integers(-3, 3), st.integers(0, 44))
@example(1, 0, 44)
@example(11, -3, 44)
@settings(max_examples=100, deadline=None)
def test_za_rows_match_the_per_vertex_push(level, pos, k_max):
    # Row k starts at (L + k, p), runs two levels down and one position on per
    # entry, and ends with a nonzero entry (or is one zero) at the rim or above.
    case = (KNIT_ZA_WIDE, KNIT_ZA_WIDE.vertex(level, pos), k_max, 12)
    assert _knit_outcome(mesh.knit_layers, *case) == _knit_outcome(knit_push, *case)
    for k, first, step, mults in mesh.knit_layers(*case).rows:
        assert KNIT_ZA_WIDE.validate(first) == KNIT_ZA_WIDE.vertex(level + k, pos)
        assert step == (-2, 1) and mults and (mults[-1] or mults == [0])
        assert level + k - 2 * (len(mults) - 1) >= 1


@given(st.integers(1, 10), st.integers(0, 20), st.integers(2, 12))
@example(1, 0, 2)
@example(10, 20, 2)
@settings(max_examples=80, deadline=None)
def test_tube_below_its_second_rim_knits_as_za_infinity(level, k_max, above):
    # With n - 1 > L + k_max the tube's second rim is never reached: its knit is
    # ZA-infinity's at (L, 0), row for row, with the positions dropped.
    tube = quiver.build_tube(level + k_max + above)
    table = mesh.knit_layers(tube, tube.vertex(level), k_max, 4)
    za = mesh.knit_layers(KNIT_ZA_WIDE, KNIT_ZA_WIDE.vertex(level, 0), k_max, 12)
    assert [(k, v.coords[0], m) for k, v, _, m in table.rows] == [
        (k, v.coords[0], m) for k, v, _, m in za.rows
    ]
    dropped = {
        k: {tube.vertex(v.coords[0]): mult for v, mult in row.items()}
        for k, row in za.layers.items()
    }
    assert (table.layers, table.valid_through) == (dropped, za.valid_through)


def test_knit_rejects_negative_k_max(tube4):
    with pytest.raises(UnsupportedParameterError):
        mesh.knit_layers(tube4, tube4.vertex(1), k_max=-1, window=4)


# -- path-sign consistency ----------------------------------------------------


def test_sign_check_dense_on_small_grid(dihedral):
    report = mesh.path_sign_check(
        dihedral, dihedral.vertex(4, 4), dihedral.vertex(0, 0), window=6
    )
    assert report.method == "dense"
    assert report.num_paths == 6
    assert report.all_ok
    assert report.connected
    assert not report.zero_paths


def test_sign_check_vacuous_when_no_paths(dihedral):
    report = mesh.path_sign_check(
        dihedral, dihedral.vertex(0, 0), dihedral.vertex(2, 2), window=4
    )
    assert report.method == "vacuous"
    assert report.num_paths == 0
    assert report.all_ok


def test_sign_check_certificate_mode_agrees(dihedral):
    u, m = dihedral.vertex(10, 8), dihedral.vertex(0, 0)
    # C(9, 4) = 126 parallel paths, past DENSE_SIGN_LIMIT
    cert = mesh.path_sign_check(dihedral, u, m, window=8)
    assert cert.method == "certificate" and cert.num_paths == 126 > mesh.DENSE_SIGN_LIMIT
    assert cert.all_ok and cert.connected
    assert cert.verified_pairs == 126 * 125 // 2
    scan = _PathScanClasses(dihedral, u, m, cert.grade, mesh._Window(dihedral, 8, 0), QQ)
    assert scan.components == 1
    assert cert.signs == [(-1) ** scan.find(i)[1] for i in range(126)]


def test_sign_check_on_tube_needs_grade(tube4):
    with pytest.raises(MixedPathLengthError):
        mesh.path_sign_check(tube4, tube4.vertex(2), tube4.vertex(2), window=4)
    report = mesh.path_sign_check(tube4, tube4.vertex(2), tube4.vertex(2), window=4, grade=2)
    assert report.all_ok


@pytest.mark.parametrize(
    "grade, num_paths, method, hom_dim", [(14, 64, "dense", 0), (16, 128, "certificate", None)]
)
def test_dense_sign_limit_decides_whether_a_report_has_hom_dim(tube4, grade, num_paths, method,
                                                                hom_dim):
    # The same pair on either side of DENSE_SIGN_LIMIT: only the dense
    # report carries hom_dim.
    report = mesh.path_sign_check(tube4, tube4.vertex(1), tube4.vertex(1), window=4, grade=grade)
    assert (report.num_paths, report.method, report.hom_dim) == (num_paths, method, hom_dim)
    assert report.connected and report.all_ok
    assert report.verified_pairs == num_paths * (num_paths - 1) // 2


def test_sign_check_records_zero_paths_through_rim():
    q = quiver.build_za_inf(8)
    # tau(v) -> v at the rim: the unique double-step path is itself a relation.
    report = mesh.path_sign_check(q, q.vertex(1, 1), q.vertex(1, 0), window=6)
    assert report.num_paths == 1
    assert report.zero_paths == [0]
    assert report.all_ok


def test_flip_edges_are_listed_on_first_access(dihedral):
    report = mesh.path_sign_check(
        dihedral, dihedral.vertex(4, 4), dihedral.vertex(0, 0), window=6
    )
    assert callable(report._edges)
    edges = report.flip_edges
    assert report.flip_edges is edges
    # by prefix, prefixes in word order
    assert [(e.path_a, e.path_b, e.position, str(e.mesh_end)) for e in edges] == [
        (1, 3, 0, "2,2"), (2, 4, 0, "2,2"), (0, 1, 1, "2,0"),
        (1, 2, 2, "0,0"), (4, 5, 1, "0,2"), (3, 4, 2, "0,0"),
    ]


# -- diamond cokernel ---------------------------------------------------------


def test_diamond_n1_is_concentrated_at_the_anchor(dihedral):
    m = dihedral.vertex(0, 0)
    table = mesh.diamond_cokernel(dihedral, m, 1, window=4)
    assert table.multiplicities() == {m: 1}


def test_diamond_n2_fills_the_even_grid(dihedral):
    m = dihedral.vertex(0, 0)
    table = mesh.diamond_cokernel(dihedral, m, 2, window=6)
    expected = {
        dihedral.vertex(0, 0): 1,
        dihedral.vertex(0, 2): 1,
        dihedral.vertex(2, 0): 1,
        dihedral.vertex(2, 2): 1,
    }
    assert table.multiplicities() == expected
    assert table.entry(1, dihedral.vertex(0, 2)) == 1
    assert table.entry(2, dihedral.vertex(2, 2)) == 1


def test_diamond_multiplicities_sit_on_layers_by_grade(dihedral):
    m = dihedral.vertex(1, 1)
    table = mesh.diamond_cokernel(dihedral, m, 2, window=6)
    for k, row in table.layers.items():
        for v in row:
            assert dihedral.distance(v, m) == k


def test_diamond_rejects_other_quivers():
    q = quiver.build_tube(4)
    with pytest.raises(QuiverKindError):
        mesh.diamond_cokernel(q, q.vertex(1), 1, window=4)


def test_diamond_rejects_nonpositive_size(dihedral):
    with pytest.raises(UnsupportedParameterError):
        mesh.diamond_cokernel(dihedral, dihedral.vertex(0, 0), 0, window=4)


# -- rim obstruction -----------------------------------------------------------


def test_rim_obstruction_holds_at_the_rim():
    q = quiver.build_za_inf(6)
    for pos in range(-2, 3):
        assert mesh.rim_obstruction_check(q, q.vertex(1, pos), window=4)


def test_rim_obstruction_rejects_interior_vertices():
    q = quiver.build_za_inf(6)
    with pytest.raises(PreconditionError):
        mesh.rim_obstruction_check(q, q.vertex(2, 0), window=4)


def test_rim_obstruction_rejects_other_quivers(dihedral):
    with pytest.raises(QuiverKindError):
        mesh.rim_obstruction_check(dihedral, dihedral.vertex(0, 0), window=4)


# -- the union-find against the RREF oracle -------------------------------------
#
# The mesh ideal is computed by a signed union-find of classes.  The
# oracle below is its literal definition instead: every relation instance
# from _relation_rows, reduced by exact RREF.

TUBES = {n: quiver.build_tube(n) for n in range(3, 7)}
ZA = quiver.build_za_inf(12)
DIHEDRAL = quiver.build_dihedral_family(20)
ORACLE_WINDOW = 10
fields = st.sampled_from([QQ, GF(2), GF(3)])


@st.composite
def parallel_pairs(draw):
    """(quiver, source, target, grade) on one of the three shapes.

    The grade is explicit on the tube and None (forced) elsewhere.
    """
    shape = draw(st.sampled_from(["tube", "za-inf", "dihedral"]))
    if shape == "tube":
        q = TUBES[draw(st.integers(3, 6))]
        u, m = (q.vertex(draw(st.integers(1, q.n - 1))) for _ in range(2))
        return q, u, m, draw(st.integers(0, 8))
    if shape == "za-inf":
        u = ZA.vertex(draw(st.integers(1, 4)), draw(st.integers(-1, 4)))
        return ZA, u, ZA.vertex(draw(st.integers(1, 4)), 0), None
    c = draw(st.integers(-1, 1))
    # a + b <= 8 keeps the RREF oracle small: at most C(8, 4) = 70 paths.
    a = draw(st.integers(-1, 6))
    b = draw(st.integers(-1, min(6, 8 - max(a, 0))))
    return DIHEDRAL, DIHEDRAL.vertex(c + 2 * a, c + 2 * b), DIHEDRAL.vertex(c, c), None


def _oracle_ideal(q, u, m, grade, field):
    """The enumerated paths and the RREF span of every relation instance."""
    win = mesh._Window(q, ORACLE_WINDOW, grade + 2)
    paths = _enumerate_paths(q, u, m, grade, win)
    ideal = Subspace(field, len(paths))
    for row in _relation_rows(q, u, m, grade, paths, win):
        ideal.insert(row)
    return paths, ideal


def _unit(n, i):
    return [1 if k == i else 0 for k in range(n)]


def _oracle_sign_fields(report, paths, ideal, field):
    """hom_dim, verified_pairs and counterexamples by comparing residues.

    Flip-graph components come from the report's flip edges, each of
    which must be a relation instance; every pair of paths is then
    compared through its canonical residues.  Signs must be relative to
    the lowest-index path of each component.
    """
    n = len(paths)
    comp = list(range(n))

    def root(i):
        while comp[i] != i:
            i = comp[i]
        return i

    for e in report.flip_edges:
        pair = [0] * n
        pair[e.path_a] = pair[e.path_b] = 1
        assert span_contains(ideal, pair)
        comp[root(e.path_a)] = root(e.path_b)
    firsts = {}
    for i in range(n):
        firsts.setdefault(root(i), i)
    assert all(report.signs[i] == 1 for i in firsts.values())
    residues = [ideal.residue(_unit(n, i)) for i in range(n)]
    verified, bad = 0, []
    for i in range(n):
        for j in range(i + 1, n):
            ri, rj = residues[i], residues[j]
            if root(i) == root(j):
                predicted = report.signs[i] * report.signs[j]
                if ri == (rj if predicted == 1 else tuple(field.sub(field.zero, x) for x in rj)):
                    verified += 1
                else:
                    bad.append({"pair": (i, j), "predicted_sign": predicted})
            elif not any(ri) and not any(rj):
                verified += 1
            else:
                bad.append({"pair": (i, j), "predicted_sign": None})
    bad += [{"zero_path": i} for i in report.zero_paths if any(residues[i])]
    return n - span_dim(ideal), verified, bad


@given(parallel_pairs(), fields)
@settings(max_examples=120, deadline=None)
def test_hom_dim_matches_the_rref_oracle(case, field):
    q, u, m, grade = case
    hom = mesh.hom_dim_mesh(q, u, m, window=ORACLE_WINDOW, grade=grade, field=field)
    if grade is None and q.distance(u, m) is None:
        assert hom.dim == 0
        return
    paths, ideal = _oracle_ideal(q, u, m, hom.grade, field)
    assert hom.basis_dim == len(paths)
    assert hom.dim == len(paths) - span_dim(ideal)


@st.composite
def knit_hom_requests(draw):
    """(quiver, target, k_max, window, sources) on the tube or the dihedral family.

    The sources are every tube vertex, or on the dihedral family the
    vertices m + (2a, 2b) for a, b in -1..k_max (the knit's support and a
    ring around it).
    """
    if draw(st.booleans()):
        q = TUBES[draw(st.integers(3, 6))]
        return q, q.vertex(draw(st.integers(1, q.n - 1))), draw(st.integers(0, 12)), 4, [
            q.vertex(i) for i in range(1, q.n)
        ]
    c = draw(st.integers(-1, 1))
    k_max = draw(st.integers(0, 6))
    sources = [
        DIHEDRAL.vertex(c + 2 * a, c + 2 * b)
        for a in range(-1, k_max + 1)
        for b in range(-1, k_max + 1)
    ]
    return DIHEDRAL, DIHEDRAL.vertex(c, c), k_max, ORACLE_WINDOW, sources


@given(knit_hom_requests(), fields)
@settings(max_examples=60, deadline=None)
def test_knit_entries_are_the_graded_hom_dims(case, field):
    # Where knitting is valid, its entry at (g, u) is dim Hom(u, m)_g,
    # which the depth classes compute directly.
    q, m, k_max, window, sources = case
    table = mesh.knit_layers(q, m, k_max, window)
    for g in range(table.valid_through + 1):
        for u in sources:
            hom = mesh.hom_dim_mesh(q, u, m, window, grade=g, field=field)
            assert table.entry(g, u) == hom.dim, (u, g)


@given(parallel_pairs(), fields)
@settings(max_examples=120, deadline=None)
def test_dense_sign_reports_match_the_rref_oracle(case, field):
    q, u, m, grade = case
    report = mesh.path_sign_check(q, u, m, window=ORACLE_WINDOW, grade=grade, field=field)
    if report.method != "dense":
        return
    paths, ideal = _oracle_ideal(q, u, m, report.grade, field)
    assert report.num_paths == len(paths)
    for i in report.zero_paths:
        assert span_contains(ideal, _unit(len(paths), i))
    expected = _oracle_sign_fields(report, paths, ideal, field)
    assert (report.hom_dim, report.verified_pairs, report.counterexamples) == expected


@given(st.sampled_from([1, 2]), st.integers(-1, 1), fields)
@settings(max_examples=12, deadline=None)
def test_diamond_cokernel_matches_the_rref_oracle(n, c, field):
    # The table takes no field; the oracle below is computed over each.
    m = DIHEDRAL.vertex(c, c)
    table = mesh.diamond_cokernel(DIHEDRAL, m, n, window=ORACLE_WINDOW)
    # The all-gamma_prime chain from the top corner and the all-gamma
    # chain from the bottom corner, as arrow tuples.
    chains = []
    for step in ((2, 0), (0, 2)):
        hops = [DIHEDRAL.vertex(c + k * step[0], c + k * step[1]) for k in range(n, -1, -1)]
        chain = tuple(DIHEDRAL.arrow_between(x, y) for x, y in zip(hops, hops[1:]))
        chains.append((hops[0], chain))
    reach = 2 * n + 2 * max(mesh.DIAMOND_MARGIN_RINGS, n - 2)
    for a in range(0, reach + 1, 2):
        for b in range(0, reach + 1, 2):
            v = DIHEDRAL.vertex(c + a, c + b)
            grade = (a + b) // 2
            paths, span = _oracle_ideal(DIHEDRAL, v, m, grade, field)
            index = {p: i for i, p in enumerate(paths)}
            win = mesh._Window(DIHEDRAL, ORACLE_WINDOW, grade + 2)
            for corner, chain in chains:
                lead = DIHEDRAL.distance(v, corner)
                if lead is not None:
                    for p in _enumerate_paths(DIHEDRAL, v, corner, lead, win):
                        span.insert(_unit(len(paths), index[p + chain]))
            assert table.entry(grade, v) == len(paths) - span_dim(span), (v, grade)


def _diamond_scan(q, m, n, window, field):
    """The diamond cokernel vertex by vertex, from the union-find of paths.

    Per vertex v of the scanned square the multiplicity is the number of
    live classes of grade-forced paths v -> m once every path through a
    corner, followed by that corner's chain to m, is killed.
    diamond_cokernel sums four knit tables instead; this is the direct
    computation it must agree with, window errors included.
    """
    if not isinstance(q, quiver.DihedralFamily):
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
    rings = max(mesh.DIAMOND_MARGIN_RINGS, n - 2)
    win = mesh._Window(q, window, n + rings + 2)
    win.check_base(m)
    for corner in (chains[0][0], chains[1][0], q.vertex(mi + 2 * n, mj + 2 * n)):
        win.check_base(corner)
    reach = 2 * n + 2 * rings
    layers = {}
    for a in range(0, reach + 1, 2):
        for b in range(0, reach + 1, 2):
            v = q.vertex(mi + a, mj + b)
            win.check(v)
            grade = (a + b) // 2
            classes = _PathScanClasses(q, v, m, grade, win, field)
            if not classes.paths:
                continue
            for corner, chain_word in chains:
                lead = q.distance(v, corner)
                if lead is None:
                    continue
                for p in _enumerate_paths(q, v, corner, lead, win):
                    classes.kill(classes.index[path_word(p) + chain_word])
            if classes.live > 0:
                layers.setdefault(grade, {})[v] = classes.live
    return table_from_layers(m, layers, n + rings, n + rings)


def _diamond_outcome(cokernel, *args):
    """Rows in insertion order with the table bounds, or the error raised."""
    try:
        table = cokernel(*args)
    except (UnsupportedParameterError, WindowError) as exc:
        return type(exc), str(exc)
    rows = [(k, list(row.items())) for k, row in table.layers.items()]
    return rows, table.k_max, table.valid_through


@given(
    st.integers(1, 4),
    st.integers(-4, 4),
    st.integers(-4, 4),
    st.integers(1, 8),
    fields,
)
@example(4, 1, 0, 8, QQ)
@example(4, 0, -1, 8, GF(2))
@example(3, -1, 1, 6, GF(3))
@settings(max_examples=60, deadline=None)
def test_diamond_cokernel_matches_the_union_find_scan(n, i, k, window, field):
    # Anchors of both parities; small windows fail at a corner.
    m = DIHEDRAL.vertex(i, i + 2 * k)
    expected = _diamond_outcome(_diamond_scan, DIHEDRAL, m, n, window, field)
    assert _diamond_outcome(mesh.diamond_cokernel, DIHEDRAL, m, n, window) == expected


def _inflated_knit_lines(k, a, by):
    """mesh._knit_lines with by added to entry a of row k, when that row stores it."""
    knit_lines = mesh._knit_lines

    def inflated(k_max, *rims):
        starts, lines = knit_lines(k_max, *rims)
        lines = [list(line) for line in lines]
        if k < len(lines) and 0 <= a - starts[k] < len(lines[k]):
            lines[k][a - starts[k]] += by
        return starts, lines

    return inflated


def test_negative_diamond_entry_is_an_internal_error(dihedral, monkeypatch, capsys):
    # An inflated row 0 enters the signed sum once at m and once, negated, at
    # each of the corners T = m+(4,0) and B = m+(0,4): the sum goes negative
    # at both, and B comes first in vertex order.  The CLI reports that as a
    # bug, not as a result.
    monkeypatch.setattr(mesh, "_knit_lines", _inflated_knit_lines(0, 0, 1))
    with pytest.raises(InternalCheckError) as err:
        mesh.diamond_cokernel(dihedral, dihedral.vertex(0, 0), 2, window=6)
    assert err.value.witness == (2, dihedral.vertex(0, 4))
    assert cli.main(["diamond", "--n", "2", "--vertex", "0,0", "--window", "6"]) == 6
    out, errs = capsys.readouterr()
    assert out == ""
    assert errs.splitlines() == [f"meshknit: internal error: {err.value}"]


def _counter_diamond_cokernel(q, m, n, window):
    """diamond_cokernel as it summed the four corners' knit tables in a Counter
    keyed by (grade, vertex), sorted."""
    if not isinstance(q, quiver.DihedralFamily):
        raise QuiverKindError(f"diamond_cokernel needs the dihedral family, got {q.kind}")
    if n < 1:
        raise UnsupportedParameterError(f"n must be >= 1, got {n}")
    q.validate(m)
    mi, mj = m.coords
    corners = (
        (m, 0, 1),
        (q.vertex(mi + 2 * n, mj), n, -1),
        (q.vertex(mi, mj + 2 * n), n, -1),
        (q.vertex(mi + 2 * n, mj + 2 * n), 2 * n, 1),
    )
    win = mesh._Window(q, window, 0)
    for corner, _, _ in corners:
        win.check_base(corner)
    complete_through = n + max(mesh.DIAMOND_MARGIN_RINGS, n - 2)
    reach = 2 * complete_through
    sums = Counter()
    for corner, shift, sign in corners:
        for k, row in mesh.knit_layers(q, corner, reach - shift, window).layers.items():
            for v, mult in row.items():
                i, j = v.coords
                if i - mi <= reach and j - mj <= reach:
                    sums[k + shift, v] += sign * mult
    layers = {}
    for (grade, v), mult in sorted(sums.items()):
        if mult < 0:
            raise InternalCheckError(
                f"diamond cokernel at {m} has multiplicity {mult} at {v} (grade {grade})",
                (grade, v),
            )
        if mult:
            layers.setdefault(grade, {})[v] = mult
    return table_from_layers(m, layers, complete_through, complete_through)


def _cokernel_outcome(cokernel, *args):
    """The table's rows in insertion order, with vertex types and bounds, or the error."""
    try:
        table = cokernel(*args)
    except (InternalCheckError, UnsupportedParameterError, WindowError) as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)
    rows = [(k, [(type(v), v, mult) for v, mult in row.items()]) for k, row in table.layers.items()]
    return rows, table.target, table.k_max, table.valid_through


@given(st.integers(1, 4), st.integers(-9, 9), st.integers(-5, 5), st.integers(1, 12))
@example(4, -9, -5, 12)
@example(1, 0, 0, 1)
@example(2, -3, 1, 2)
@settings(max_examples=120, deadline=None)
def test_diamond_cokernel_matches_the_counter_sum(n, i, k, window):
    # both components, negative anchors, and windows too small for a corner
    q = quiver.build_dihedral_family(12)
    m = q.vertex(i, i + 2 * k)
    want = _cokernel_outcome(_counter_diamond_cokernel, q, m, n, window)
    assert _cokernel_outcome(mesh.diamond_cokernel, q, m, n, window) == want


@given(
    st.integers(1, 4),
    st.integers(-5, 5),
    st.integers(-3, 3),
    st.integers(1, 12),
    st.integers(0, 12),
    st.integers(1, 3),
)
@example(2, 0, 0, 1, 0, 1)
@example(1, -3, 1, 2, 1, 2)
@settings(max_examples=120, deadline=None)
def test_diamond_cokernel_mutations_match_the_counter_sum(n, i, k, row, a, by):
    # An inflated knit row (row 0 of knit_layers is {m: 1} whatever the rows
    # say) reaches both sums alike, the Counter sum through knit_layers: where
    # it drives an entry negative, both raise the same InternalCheckError at
    # the same witness.
    q = quiver.build_dihedral_family(12)
    m = q.vertex(i, i + 2 * k)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mesh, "_knit_lines", _inflated_knit_lines(row, a, by))
        want = _cokernel_outcome(_counter_diamond_cokernel, q, m, n, 12)
        assert _cokernel_outcome(mesh.diamond_cokernel, q, m, n, 12) == want
    if row == 1 and a == 0:  # B's row 1 enters, negated, at m + (0, 2n + 2), off the diamond
        assert want[0] is InternalCheckError


class _ToyQuiver(quiver.TranslationQuiver):
    """A layered translation quiver given by explicit arrows and a partial tau.

    The three modeled shapes always have connected flip graphs; this one
    need not, so it reaches the cross-component branch of the sign check.
    """

    kind = "toy"

    def __init__(self, arrows, tau):
        super().__init__()
        self.arrows = [(self.v(s), label, self.v(t)) for s, t, label in arrows]
        self.tau_map = {self.v(a): self.v(b) for a, b in tau.items()}

    @staticmethod
    def v(i):
        return quiver.Vertex("toy", (i,))

    def validate(self, v):
        return v

    def _arrows(self, v):
        return tuple(sorted((label, t) for s, label, t in self.arrows if s == v))

    def _tau(self, v, k):
        if k == 1:
            return self.tau_map.get(v, quiver.Vertex("no-tau", v.coords))
        inverse = {b: a for a, b in self.tau_map.items()}
        return inverse.get(v, quiver.Vertex("no-tau-inv", v.coords))

    def _in_window(self, v, radius):
        return True

    def _distance(self, u, m):
        frontier, d = {u}, 0
        while frontier:
            if m in frontier:
                return d
            frontier = {a.target for x in frontier for a in self.arrows_out(x)}
            d += 1
        return None


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)])
def test_disconnected_flip_graph_matches_the_rref_oracle(field):
    # Paths 0 -> 9 of length 4, in word order: x.x.x.x dies at the
    # one-middle mesh ending in 7; y.x.x.y and y.y.x.y flip at the mesh
    # ending in 8; z.z.z.z meets no mesh.  Three components, one dead.
    q = _ToyQuiver(
        [(0, 1, "x"), (1, 3, "x"), (3, 7, "x"), (7, 9, "x"),
         (0, 2, "y"), (2, 4, "x"), (2, 5, "y"), (4, 8, "x"), (5, 8, "x"), (8, 9, "y"),
         (0, 6, "z"), (6, 10, "z"), (10, 11, "z"), (11, 9, "z")],
        {7: 1, 8: 2},
    )
    u, m = q.v(0), q.v(9)
    report = mesh.path_sign_check(q, u, m, window=1, field=field)
    assert report.method == "dense" and not report.connected
    assert report.zero_paths == [0]
    assert report.hom_dim == mesh.hom_dim_mesh(q, u, m, window=1, field=field).dim == 2
    paths, ideal = _oracle_ideal(q, u, m, report.grade, field)
    expected = _oracle_sign_fields(report, paths, ideal, field)
    assert (report.hom_dim, report.verified_pairs, report.counterexamples) == expected
    assert [c["pair"] for c in report.counterexamples] == [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]


@pytest.mark.parametrize("stages, method", [(3, "dense"), (7, "certificate")])
def test_a_disconnected_report_lists_pairs_only_when_dense(stages, method):
    # A chain of `stages` squares with no meshes: 2^stages paths, each its
    # own component.  A dense report lists every pair; a certificate gives
    # one disconnected_flip_graph record in place of the O(n^2) list.
    arrows = []
    for s in range(stages):
        start, end = 3 * s, 3 * s + 3
        arrows += [(start, start + 1, "x"), (start, start + 2, "y"),
                   (start + 1, end, "x"), (start + 2, end, "x")]
    q = _ToyQuiver(arrows, {})
    report = mesh.path_sign_check(q, q.v(0), q.v(3 * stages), window=1)
    n = 2**stages
    assert (report.num_paths, report.method) == (n, method)
    assert not report.connected and not report.all_ok
    if method == "dense":
        assert report.hom_dim == n and report.verified_pairs == 0
        assert [c["pair"] for c in report.counterexamples] == [
            (i, j) for i in range(n) for j in range(i + 1, n)
        ]
    else:
        assert report.hom_dim is None
        assert report.counterexamples == [{"disconnected_flip_graph": True, "components": n}]


@st.composite
def toy_quivers(draw):
    """(quiver, source, target, grade) on a random layered _ToyQuiver.

    Layer 0 is the source and the last layer the target; arrows join
    consecutive layers, with labels in a drawn order so that label order
    and vertex order disagree.  tau is drawn among the pairs (s, v) two
    layers apart where every target of an arrow out of s has an arrow
    into v and there are one or two of them, so the meshes have one or
    two middles.  Paths that meet no mesh, or whose meshes do not link
    them, give disconnected flip graphs.
    """
    grade = draw(st.integers(0, 6))
    sizes = [1] + [draw(st.integers(1, 3)) for _ in range(grade - 1)] + [1] * (grade > 0)
    layers, first = [], 0
    for size in sizes:
        layers.append(list(range(first, first + size)))
        first += size
    arrows = []
    for here, there in zip(layers, layers[1:]):
        for x in here:
            targets = [y for y in there if draw(st.booleans())] or [draw(st.sampled_from(there))]
            order = draw(st.permutations(range(len(targets))))
            arrows += [(x, y, f"a{k}") for y, k in zip(targets, order)]
    out = {x: {y for s, y, _ in arrows if s == x} for layer in layers for x in layer}
    into = {y: {s for s, t, _ in arrows if t == y} for layer in layers for y in layer}
    pairs = [
        (v, s)
        for low, high in zip(layers, layers[2:])
        for s in low
        for v in high
        if 1 <= len(out[s]) <= 2 and out[s] <= into[v]
    ]
    tau = {}
    for v, s in draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []:
        if v not in tau and s not in tau.values():
            tau[v] = s
    q = _ToyQuiver(arrows, tau)
    return q, q.v(0), q.v(first - 1), grade


def _odd_cycle(n, edges):
    """True when the graph on range(n) with these edges is not 2-colourable."""
    adjacent = [[] for _ in range(n)]
    for a, b in edges:
        adjacent[a].append(b)
        adjacent[b].append(a)
    colour = [None] * n
    for root in range(n):
        if colour[root] is not None:
            continue
        colour[root], todo = 0, [root]
        while todo:
            a = todo.pop()
            for b in adjacent[a]:
                if colour[b] is None:
                    colour[b] = colour[a] ^ 1
                    todo.append(b)
                elif colour[b] == colour[a]:
                    return True
    return False


def _scan_view(c):
    """What the path scan holds: per path (root, parity), then per component."""
    n = len(c.paths)
    finds = [c.find(i) for i in range(n)]
    firsts = list(dict.fromkeys(root for root, _ in finds))
    sizes = [(sum(1 for r, _ in finds if r == root), c.dead[root]) for root in firsts]
    return n, finds, sorted(c.zero_paths), c.flip_edges, c.components, c.live, sizes


def _depth_view(c):
    """The same from the depth classes, whose codes name each path's component."""
    codes = c.codes()
    firsts = {}
    finds = [(firsts.setdefault(abs(code), i), int(code < 0)) for i, code in enumerate(codes)]
    assert list(firsts) == list(range(1, len(firsts) + 1))
    return c.paths, finds, c.zero_paths(), c.flip_edges(), c.components, c.live, c.sizes


def _classes_outcome(classes, view, q, u, m, grade, window, field):
    """Everything the union-find of paths u -> m holds, or the WindowError raised.

    The parity half of each path's (root, parity) is compared only when
    the flip graph is 2-colourable: along an odd cycle it depends on the
    order of the joins.
    """
    try:
        c = classes(q, u, m, grade, mesh._Window(q, window, 0), field)
    except WindowError as exc:
        return type(exc), str(exc), exc.vertex
    n, finds, zero_paths, flip_edges, components, live, sizes = view(c)
    edges = sorted((e.path_a, e.path_b, e.position, e.mesh_end) for e in flip_edges)
    if _odd_cycle(n, [e[:2] for e in edges]):
        finds = [root for root, _ in finds]
    return n, finds, zero_paths, edges, components, live, sizes


@st.composite
def scan_requests(draw):
    """(quiver, source, target, grade, window) on one of the four graph kinds.

    The window gets no margin, and the modeled shapes draw it below what
    their paths need, so some requests fail the window check, some of
    them between the endpoints.
    """
    if draw(st.booleans()):
        q, u, m, grade = draw(toy_quivers())
        return q, u, m, grade, 1
    q, u, m, grade = draw(parallel_pairs())
    if grade is None:
        grade = q.distance(u, m)
        if grade is None:
            grade = draw(st.integers(0, 8))
    return q, u, m, grade, draw(st.integers(1, 8))


@given(scan_requests(), fields)
@example((DIHEDRAL, DIHEDRAL.vertex(8, 8), DIHEDRAL.vertex(0, 0), 8, ORACLE_WINDOW), GF(3))
@example((ZA, ZA.vertex(1, 4), ZA.vertex(1, 0), 8, 4), QQ)
@example((TUBES[6], TUBES[6].vertex(3), TUBES[6].vertex(2), 7, 1), GF(2))
@settings(max_examples=300, deadline=None)
def test_depth_classes_match_the_path_scan(case, field):
    q, u, m, grade, window = case
    expected = _classes_outcome(_PathScanClasses, _scan_view, q, u, m, grade, window, field)
    got = _classes_outcome(mesh._MeshClasses, _depth_view, q, u, m, grade, window, field)
    assert got == expected


relation_ops = st.integers(1, 8).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.booleans(), st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12),
    )
)


@given(relation_ops, fields)
@settings(max_examples=150, deadline=None)
def test_union_find_matches_rref_on_arbitrary_relations(case, field):
    # The path-level union-find of the oracle scan, on n parallel two-step
    # paths 0 -> k + 2 -> 1 and no meshes (the arrows out of a vertex must
    # have distinct targets), so every relation comes from the drawn kills
    # (path_i = 0) and joins (path_i + path_j = 0), including odd cycles,
    # which the modeled shapes never produce.
    n, ops = case
    q = _ToyQuiver([(0, k + 2, f"a{k}") for k in range(n)] + [(k + 2, 1, "b") for k in range(n)], {})
    classes = _PathScanClasses(q, q.v(0), q.v(1), 2, mesh._Window(q, 1, 4), field)
    ideal = Subspace(field, n)
    for is_kill, i, j in ops:
        row = _unit(n, i)
        if is_kill:
            classes.kill(i)
        else:
            classes.join(i, j)
            row[j] += 1
        ideal.insert(row)
    assert classes.live == n - span_dim(ideal)
    for i in range(n):
        root, odd = classes.find(i)
        assert root <= i
        residue = ideal.residue(_unit(n, i))
        assert classes.dead[root] == (not any(residue))
        of_root = ideal.residue(_unit(n, root))
        assert residue == (of_root if odd == 0 else tuple(field.sub(field.zero, x) for x in of_root))


# -- reference cycles -----------------------------------------------------------


def test_mesh_operations_leave_no_reference_cycles(dihedral):
    # A self-referencing closure would keep its whole working set (memo,
    # path list, distances) alive until a full collection.
    za = quiver.build_za_inf(8)
    calls = [
        lambda: mesh.knit_layers(dihedral, dihedral.vertex(0, 0), k_max=8, window=4),
        lambda: mesh.knit_layers(za, za.vertex(1, 0), k_max=8, window=4),
        lambda: mesh.hom_dim_mesh(dihedral, dihedral.vertex(6, 4), dihedral.vertex(0, 0), window=6),
        lambda: mesh.path_sign_check(
            dihedral, dihedral.vertex(6, 4), dihedral.vertex(0, 0), window=6
        ),
        lambda: mesh.diamond_cokernel(dihedral, dihedral.vertex(0, 0), 2, window=6),
    ]
    for call in calls:
        call()  # warm the per-quiver arrow cache
    gc.collect()
    gc.disable()
    try:
        for call in calls:
            call()
            assert gc.collect() == 0
    finally:
        gc.enable()
