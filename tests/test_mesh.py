"""Path calculus modulo mesh relations: Hom dims, knitting, signs."""

import pytest
from hypothesis import given, settings, strategies as st

from meshknit import mesh, quiver
from meshknit.errors import (
    MixedPathLengthError,
    PreconditionError,
    QuiverKindError,
    UnsupportedParameterError,
    WindowError,
)
from meshknit.linalg import GF, GF5, QQ, Subspace


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


def test_window_violation_is_loud(dihedral):
    with pytest.raises(WindowError):
        mesh.hom_dim_mesh(
            dihedral, dihedral.vertex(12, 12), dihedral.vertex(0, 0), window=2
        )


def test_hom_dims_agree_over_finite_field(dihedral):
    pairs = [((4, 2), (0, 0)), ((2, 2), (0, 0)), ((6, 0), (0, 0))]
    for src, tgt in pairs:
        u, m = dihedral.vertex(*src), dihedral.vertex(*tgt)
        over_q = mesh.hom_dim_mesh(dihedral, u, m, window=4, field=QQ)
        over_5 = mesh.hom_dim_mesh(dihedral, u, m, window=4, field=GF5)
        over_2 = mesh.hom_dim_mesh(dihedral, u, m, window=4, field=GF(2))
        assert over_q.dim == over_5.dim == over_2.dim


# -- mesh relations ---------------------------------------------------------


def test_mesh_relation_terms(dihedral):
    rel = mesh.mesh_relation(dihedral, dihedral.vertex(0, 0))
    assert rel.source == dihedral.vertex(2, 2)
    assert rel.target == dihedral.vertex(0, 0)
    assert rel.grade == 2
    assert len(rel.terms) == 2


def test_mesh_relation_at_tube_edge(tube4):
    # The mesh ending at J1 has a single middle, so a single term.
    rel = mesh.mesh_relation(tube4, tube4.vertex(1))
    assert len(rel.terms) == 1
    assert rel.grade == 2


def test_path_vector_rejects_mixed_lengths(tube4):
    j2, j1 = tube4.vertex(2), tube4.vertex(1)
    loop = (tube4.arrow_between(j2, j1), tube4.arrow_between(j1, j2))
    with pytest.raises(MixedPathLengthError):
        mesh.PathVector(j2, j2, ((loop, 1), ((), 1)))


def test_relation_instances_share_the_grade(dihedral):
    u = dihedral.vertex(6, 4)
    m = dihedral.vertex(0, 0)
    grade = dihedral.distance(u, m)
    win = mesh._Window(dihedral, 6, 8)
    paths = mesh._enumerate_paths(dihedral, u, m, grade, win)
    rows = mesh._relation_rows(dihedral, u, m, grade, paths, win)
    assert rows
    # Every relation row is supported on the enumerated parallel paths.
    for row in rows:
        assert len(row) == len(paths)
        assert any(c != 0 for c in row)


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
    assert table.total_at(tube4.vertex(2)) == 2
    assert table.multiplicities() == {
        tube4.vertex(1): 1,
        tube4.vertex(2): 2,
        tube4.vertex(3): 1,
    }
    assert table.max_layer == 2


dihedral_coords = st.tuples(
    st.integers(min_value=-3, max_value=3), st.integers(min_value=-3, max_value=3)
).filter(lambda c: (c[0] - c[1]) % 2 == 0)


@given(dihedral_coords, st.integers(min_value=1, max_value=4))
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
    u, m = dihedral.vertex(4, 4), dihedral.vertex(0, 0)
    # 6 parallel paths; a tiny limit forces the certificate strategy.
    dense = mesh.path_sign_check(dihedral, u, m, window=8)
    cert = mesh.path_sign_check(dihedral, u, m, window=8, dense_limit=2)
    assert dense.method == "dense"
    assert cert.method == "certificate"
    assert dense.all_ok and cert.all_ok
    assert dense.signs == cert.signs


def test_sign_check_on_tube_needs_grade(tube4):
    with pytest.raises(MixedPathLengthError):
        mesh.path_sign_check(tube4, tube4.vertex(2), tube4.vertex(2), window=4)
    report = mesh.path_sign_check(tube4, tube4.vertex(2), tube4.vertex(2), window=4, grade=2)
    assert report.all_ok


def test_sign_check_records_zero_paths_through_rim():
    q = quiver.build_za_inf(8)
    # tau(v) -> v at the rim: the unique double-step path is itself a relation.
    report = mesh.path_sign_check(q, q.vertex(1, 1), q.vertex(1, 0), window=6)
    assert report.num_paths == 1
    assert report.zero_paths == [0]
    assert report.all_ok


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
# The mesh ideal is computed by a signed union-find of path classes.  The
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
    paths = mesh._enumerate_paths(q, u, m, grade, win)
    ideal = Subspace(field, len(paths))
    for row in mesh._relation_rows(q, u, m, grade, paths, win):
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
        assert ideal.contains(pair)
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
                if ri == (rj if predicted == 1 else tuple(field.neg(x) for x in rj)):
                    verified += 1
                else:
                    bad.append({"pair": (i, j), "predicted_sign": predicted})
            elif not any(ri) and not any(rj):
                verified += 1
            else:
                bad.append({"pair": (i, j), "predicted_sign": None})
    bad += [{"zero_path": i} for i in report.zero_paths if any(residues[i])]
    return n - ideal.rank, verified, bad


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
    assert hom.dim == len(paths) - ideal.rank


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
        assert ideal.contains(_unit(len(paths), i))
    expected = _oracle_sign_fields(report, paths, ideal, field)
    assert (report.hom_dim, report.verified_pairs, report.counterexamples) == expected


@given(st.sampled_from([1, 2]), st.integers(-1, 1), fields)
@settings(max_examples=12, deadline=None)
def test_diamond_cokernel_matches_the_rref_oracle(n, c, field):
    m = DIHEDRAL.vertex(c, c)
    table = mesh.diamond_cokernel(DIHEDRAL, m, n, window=ORACLE_WINDOW, field=field)
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
                    for p in mesh._enumerate_paths(DIHEDRAL, v, corner, lead, win):
                        span.insert(_unit(len(paths), index[p + chain]))
            assert table.entry(grade, v) == len(paths) - span.rank, (v, grade)


class _ToyQuiver(quiver.TranslationQuiver):
    """A layered translation quiver given by explicit arrows and a partial tau.

    The three modeled shapes always have connected flip graphs; this one
    need not, so it reaches the cross-component branch of the sign check.
    """

    kind = "toy"

    def __init__(self, arrows, tau):
        self.arrows = [quiver.Arrow(self.v(s), self.v(t), label) for s, t, label in arrows]
        self.tau_map = {self.v(a): self.v(b) for a, b in tau.items()}

    @staticmethod
    def v(i):
        return quiver.Vertex("toy", (i,))

    def validate(self, v):
        return v

    def tau(self, v):
        return self.tau_map.get(v, quiver.Vertex("no-tau", v.coords))

    def tau_inv(self, v):
        inverse = {b: a for a, b in self.tau_map.items()}
        return inverse.get(v, quiver.Vertex("no-tau-inv", v.coords))

    def arrows_out(self, v):
        return tuple(a for a in self.arrows if a.source == v)

    def arrows_in(self, v):
        return tuple(a for a in self.arrows if a.target == v)

    def in_window(self, v, radius):
        return True

    def distance(self, u, m):
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


relation_ops = st.integers(1, 8).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.booleans(), st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12),
    )
)


@given(relation_ops, fields)
@settings(max_examples=150, deadline=None)
def test_union_find_matches_rref_on_arbitrary_relations(case, field):
    # n parallel single-arrow paths and no meshes, so every relation comes
    # from the drawn kills (path_i = 0) and joins (path_i + path_j = 0),
    # including odd cycles, which the modeled shapes never produce.
    n, ops = case
    q = _ToyQuiver([(0, 1, f"a{k}") for k in range(n)], {})
    classes = mesh._MeshClasses(q, q.v(0), q.v(1), 1, mesh._Window(q, 1, 3), field)
    ideal = Subspace(field, n)
    for is_kill, i, j in ops:
        row = _unit(n, i)
        if is_kill:
            classes.kill(i)
        else:
            classes.join(i, j)
            row[j] += 1
        ideal.insert(row)
    assert classes.live == n - ideal.rank
    for i in range(n):
        root, odd = classes.find(i)
        assert root <= i
        residue = ideal.residue(_unit(n, i))
        assert classes.dead[root] == (not any(residue))
        of_root = ideal.residue(_unit(n, root))
        assert residue == (of_root if odd == 0 else tuple(field.neg(x) for x in of_root))
