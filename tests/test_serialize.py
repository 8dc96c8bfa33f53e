"""The artifact writers against the standard library and the writers they replaced.

``canonical_json`` writes JSON directly; its reference is
``json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=True)``.
``layer_table_tsv`` and ``layer_table_payload`` read a table's integer
rows; their references are the writers that read its ``layers`` mapping
(``tests/references.py``) and, before those, the ones kept here.  The
labels are formatted from the coordinates; their reference is ``str(v)``.
"""

import json
import math

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import references
from meshknit import center, jordan, quiver
from meshknit.jordan import CheckReport
from meshknit.linalg import GF
from meshknit.mesh import LayerTable, diamond_cokernel, knit_layers
from meshknit.serialize import (
    SCHEMA_VERSION,
    _grid_offsets,
    _labelled,
    _names,
    canonical_json,
    layer_table_payload,
    layer_table_tsv,
    oracle_payload,
)
from references import table_from_layers


def reference_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


# -- canonical_json against json.dumps ------------------------------------------

texts = st.one_of(
    st.text(),
    st.text(alphabet=st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é€\U0001f600\ud800')),
)
leaves = st.one_of(
    texts,
    st.integers(),
    st.integers(-(10**300), 10**300),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 1e300, -1e-300, 5e-324, math.nan, math.inf, -math.inf, 0.1]),
)
json_values = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(texts, inner, max_size=5),
        st.dictionaries(st.integers(-(10**20), 10**20), inner, max_size=5),
        st.dictionaries(st.floats(allow_nan=False), inner, max_size=4),
        st.dictionaries(st.booleans(), inner, max_size=2),
    ),
    max_leaves=40,
)


@given(json_values)
@settings(max_examples=400, deadline=None)
def test_canonical_json_is_json_dumps(x):
    assert canonical_json(x) == reference_json(x)


class _Own:
    """A leaf whose own text is not its JSON text: json.dumps ignores these methods."""

    def __repr__(self):
        return "own"

    __str__ = __repr__

    def __format__(self, spec):
        return "own"


class _Text(_Own, str):
    pass


class _Count(_Own, int):
    pass


class _Ratio(_Own, float):
    pass


# leaves of every type a list or dict writes itself, and subclasses of them that it leaves to _json
flat_leaves = st.one_of(
    texts,
    st.integers(),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    texts.map(_Text),
    st.integers().map(_Count),
    st.floats(allow_nan=False).map(_Ratio),
)
flat_containers = st.one_of(
    st.lists(flat_leaves, max_size=8),
    st.lists(flat_leaves, max_size=8).map(tuple),
    st.dictionaries(texts, flat_leaves, max_size=8),
    st.dictionaries(st.integers(-50, 50), flat_leaves, max_size=8),
)


@given(
    st.one_of(
        flat_containers,
        st.lists(flat_containers, max_size=4),
        st.dictionaries(texts, flat_containers, max_size=4),
    )
)
@settings(max_examples=400, deadline=None)
def test_canonical_json_writes_leaves_in_lists_and_dicts_as_json_dumps(x):
    assert canonical_json(x) == reference_json(x)


@pytest.mark.parametrize(
    "x",
    [
        {},
        [],
        (),
        [True, False, None, 1, -1, 0, "1", 1.0, _Count(1), _Text("t"), _Ratio(2.5)],
        {"t": True, "f": False, "n": None, "i": 0, "s": "", "x": 0.5, "c": _Count(-7)},
        {"a": {}, "b": [], "c": (), "d": [[]], "e": {"f": {}}},
        {"row": {"0,2": 1, "-2,0": 12, "J3": -4}},
        {"flag": True, "count": 1, "none": None, "ratio": 0.5},
        {3: 0, 10: 1, 2: 1, -1: 7},
        {None: 1},
        [2**200, -(2**64), 1e16, 1e-7, -0.0],
    ],
)
def test_canonical_json_edge_cases(x):
    assert canonical_json(x) == reference_json(x)


def test_canonical_json_rejects_what_json_rejects():
    for bad in ({"a": object()}, [{1, 2}], {(1, 2): 3}):
        with pytest.raises(TypeError):
            canonical_json(bad)
        with pytest.raises(TypeError):
            reference_json(bad)


def test_oracle_payload_with_int_keyed_dims_and_tuples():
    # a failed socle check reports its dims keyed by block number
    reports = {
        "socle": CheckReport("socle", False, [{"m": "J2", "dims": {10: 1, 2: 0, 3: 1}}], {"modules": 3}),
        "serre": CheckReport("serre-duality", True, [], {"pairs": 9, "span": (1, 2), "share": 0.25}),
    }
    payload = oracle_payload(reports, {"command": "oracle", "n": 4, "field": "GF(5)"})
    assert canonical_json(payload) == reference_json(payload)


# -- layer tables against the writers they replaced -----------------------------


def reference_tsv(table: LayerTable, config: dict) -> str:
    lines = [
        f"# schema: {SCHEMA_VERSION}",
        f"# config: {' '.join(f'{k}={v}' for k, v in sorted(config.items()))}",
        f"# target: {table.target}",
        f"# k_max: {table.k_max}",
        f"# valid_through: {table.valid_through}",
    ]
    if table.truncated:
        lines.append("# truncated: true")
    columns = table.valid_through + 1
    lines.append("\t".join(["vertex"] + [str(k) for k in range(columns)]))
    vertices = sorted({v for row in table.layers.values() for v in row})
    cells = {v: [str(v), 0] for v in vertices}
    for k in range(columns):
        for v, mult in table.layers.get(k, {}).items():
            cell = cells[v]
            cell[0] += "\t0" * (k - cell[1]) + f"\t{mult}"
            cell[1] = k + 1
    lines += [text + "\t0" * (columns - filled) for text, filled in cells.values()]
    return "\n".join(lines) + "\n"


def reference_payload(table: LayerTable, config: dict) -> dict:
    layers = []
    for k in range(table.valid_through + 1):
        row = table.layers.get(k, {})
        layers.append({"k": k, "row": {str(v): mult for v, mult in row.items()}})
    return {
        "schema": SCHEMA_VERSION,
        "kind": "layer-table",
        "config": dict(sorted(config.items())),
        "target": str(table.target),
        "k_max": table.k_max,
        "valid_through": table.valid_through,
        "truncated": table.truncated,
        "layers": layers,
    }


TUBE = quiver.build_tube(6)
DIHEDRAL = quiver.build_dihedral_family(4)
ZA = quiver.build_za_inf(4)

# Per shape, the vertices a table may hold; the dihedral tables mix both
# components, so the odd one is sorted after the even one.
shape_vertices = st.sampled_from(
    [
        st.integers(1, 5).map(TUBE.vertex),
        st.tuples(st.integers(-12, 12), st.integers(-6, 6)).map(
            lambda c: DIHEDRAL.vertex(c[0], c[0] + 2 * c[1])
        ),
        st.tuples(st.integers(1, 12), st.integers(-12, 12)).map(lambda c: ZA.vertex(*c)),
    ]
)


@st.composite
def layer_tables(draw):
    vertices = draw(shape_vertices)
    # empty rows, and layers in any order, past valid_through too
    layers = draw(
        st.dictionaries(
            st.integers(0, 14),
            st.dictionaries(vertices, st.integers(1, 10**6), max_size=8),
            max_size=10,
        )
    )
    valid_through = draw(st.integers(0, 14))
    k_max = valid_through + draw(st.sampled_from([0, 0, 1, 5]))
    return table_from_layers(draw(vertices), layers, k_max, valid_through)


CONFIG = {"window": 4, "command": "knit", "seed": 0, "format": "tsv", "quiver": "x", "k_max": 3}


@st.composite
def one_cell_tables(draw):
    # every vertex in one layer, as in a dihedral knit: the writer's one-line-per-cell
    # path; mixed components and shapes, negative coordinates, layers past valid_through
    mixed = st.one_of(shape_vertices.flatmap(lambda vertices: vertices), any_vertex)
    vertices = draw(st.lists(draw(st.one_of(shape_vertices, st.just(mixed))), unique=True, max_size=24))
    layers = {}
    for v in vertices:
        layers.setdefault(draw(st.integers(0, 14)), {})[v] = draw(st.integers(1, 10**6))
    valid_through = draw(st.integers(0, 14))
    target = vertices[0] if vertices else DIHEDRAL.vertex(0, 0)
    return table_from_layers(target, layers, valid_through + draw(st.sampled_from([0, 1, 5])), valid_through)


@given(st.one_of(layer_tables(), one_cell_tables()))
@settings(max_examples=400, deadline=None)
def test_layer_table_tsv_matches_the_old_writer(table):
    assert layer_table_tsv(table, CONFIG) == reference_tsv(table, CONFIG)


@given(st.one_of(layer_tables(), one_cell_tables()))
@settings(max_examples=300, deadline=None)
def test_layer_table_json_matches_the_old_writer(table):
    assert canonical_json(layer_table_payload(table, CONFIG)) == reference_json(
        reference_payload(table, CONFIG)
    )


def test_odd_dihedral_table_past_valid_through():
    odd = [DIHEDRAL.vertex(i, j) for i, j in [(1, -1), (-3, 1), (1, 3), (-1, -1)]]
    table = table_from_layers(odd[0], {3: {odd[3]: 2}, 0: {odd[0]: 1}, 1: {}, 2: {odd[1]: 1, odd[2]: 1}}, 5, 1)
    assert table.truncated
    tsv = layer_table_tsv(table, CONFIG)
    assert tsv == reference_tsv(table, CONFIG)
    # vertices met only past valid_through keep a line of zeros
    assert tsv.splitlines()[-4:] == ["-3,1\t0\t0", "-1,-1\t0\t0", "1,-1\t1\t0", "1,3\t0\t0"]
    payload = layer_table_payload(table, CONFIG)
    assert canonical_json(payload) == reference_json(reference_payload(table, CONFIG))


# -- labels against str(v) ---------------------------------------------------------


def _str_cells(row):
    """(str(v), multiplicity) of a row's nonzero entries, through the table's own cells."""
    return [(str(v), mult) for _, v, mult in LayerTable(row[1], [row], 0, 0)._cells()]


@pytest.mark.parametrize(
    "table",
    [
        *(knit_layers(TUBE, TUBE.vertex(i), 14, 4) for i in range(1, 6)),
        *(knit_layers(ZA, ZA.vertex(level, pos), 9, 12) for level, pos in [(1, 0), (3, -2), (5, 4)]),
        *(knit_layers(DIHEDRAL, DIHEDRAL.vertex(i, j), 12, 20) for i, j in [(0, 0), (3, -1), (-4, 6)]),
        *(diamond_cokernel(DIHEDRAL, DIHEDRAL.vertex(i, j), n, 12) for i, j in [(0, 0), (-1, 3)] for n in (1, 2, 3)),
    ],
    ids=lambda t: f"{t.target.component}:{t.target}:{t.k_max}",
)
def test_labels_of_knit_and_diamond_tables_are_str(table):
    for row in table.rows:
        assert _labelled(row) == _str_cells(row)
    # the dihedral tables list their vertices column by column; the tube and ZA-infinity ones do not
    on_grid = table.target.component not in (quiver.TUBE, quiver.ZA_INF)
    assert (_grid_offsets(table.rows, table.valid_through + 1) is not None) == on_grid


# Any component, the three shapes' and one unknown, with one to three coordinates
# (one-coordinate dihedral vertices, two-coordinate tube vertices, ...).
any_vertex = st.builds(
    quiver.Vertex,
    st.sampled_from([quiver.TUBE, quiver.DIHEDRAL_EVEN, quiver.DIHEDRAL_ODD, quiver.ZA_INF, "x"]),
    st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=3).map(tuple),
)


@st.composite
def hand_made_tables(draw):
    # most tables draw from a few components and coordinate lengths, so that
    # single-component and single-length tables come up often
    vertices = st.sampled_from(draw(st.lists(any_vertex, min_size=1, max_size=6)))
    layers = draw(
        st.dictionaries(st.integers(0, 4), st.dictionaries(vertices, st.integers(1, 9), max_size=5), max_size=4)
    )
    return table_from_layers(draw(vertices), layers, 4, draw(st.integers(0, 4)))


@given(hand_made_tables())
@settings(max_examples=300, deadline=None)
def test_labels_of_hand_made_tables_are_str(table):
    for row in table.rows:
        assert _labelled(row) == _str_cells(row)
    assert layer_table_tsv(table, CONFIG) == reference_tsv(table, CONFIG)


@pytest.mark.parametrize(
    "vertices",
    [
        [],
        [quiver.Vertex(quiver.TUBE, (3,)), quiver.Vertex(quiver.DIHEDRAL_EVEN, (0, 2))],
        [quiver.Vertex(quiver.TUBE, (3, 4)), quiver.Vertex(quiver.TUBE, (2,))],
        [quiver.Vertex(quiver.DIHEDRAL_ODD, (1, 1)), quiver.Vertex(quiver.ZA_INF, (5,))],
        [quiver.Vertex(quiver.ZA_INF, (1, 2, 3)), quiver.Vertex(quiver.ZA_INF, (1, 2))],
        [quiver.Vertex(quiver.DIHEDRAL_EVEN, (-2, 4))] * 3,
    ],
)
def test_labels_of_mixed_vertex_lists_are_str(vertices):
    assert _names(vertices) == [str(v) for v in vertices]


@given(st.lists(any_vertex, max_size=8))
def test_names_of_any_vertices_are_str(vertices):
    assert _names(vertices) == [str(v) for v in vertices]


# -- every shape's tables against the per-vertex push and the writers that read layers ----

KNIT_TUBES = {n: quiver.build_tube(n) for n in range(3, 10)}
KNIT_ZA = quiver.build_za_inf(12)
KNIT_DIHEDRAL = quiver.build_dihedral_family(8)
NEW_WRITERS = (layer_table_tsv, layer_table_payload)
PREVIOUS_WRITERS = (references.layer_table_tsv, references.layer_table_payload)


def _written(table, writers):
    tsv, payload = writers
    return tsv(table, CONFIG), canonical_json(payload(table, CONFIG))


@st.composite
def knit_cases(draw):
    """(quiver, target, k_max, window): every tube J_i, ZA-infinity levels 1..6, dihedral of both parities."""
    shape = draw(st.sampled_from(["tube", "za-inf", "dihedral"]))
    if shape == "tube":
        q = KNIT_TUBES[draw(st.integers(3, 9))]
        return q, q.vertex(draw(st.integers(1, q.n - 1))), draw(st.integers(0, 40)), 4
    if shape == "za-inf":
        v = KNIT_ZA.vertex(draw(st.integers(1, 6)), draw(st.integers(-4, 4)))
        return KNIT_ZA, v, draw(st.integers(0, 12)), 12
    odd = draw(st.booleans())
    v = KNIT_DIHEDRAL.vertex(2 * draw(st.integers(-3, 3)) + odd, 2 * draw(st.integers(-3, 3)) + odd)
    return KNIT_DIHEDRAL, v, draw(st.integers(0, 40)), 8


@given(knit_cases())
@example((KNIT_TUBES[4], KNIT_TUBES[4].vertex(2), 40, 4))  # truncated after an empty layer
@example((KNIT_TUBES[9], KNIT_TUBES[9].vertex(1), 40, 4))
@example((KNIT_ZA, KNIT_ZA.vertex(6, 4), 12, 12))
@example((KNIT_DIHEDRAL, KNIT_DIHEDRAL.vertex(1, -1), 40, 8))
@settings(max_examples=150, deadline=None)
def test_knit_tables_write_as_the_per_vertex_push_did(case):
    table, pushed = knit_layers(*case), references.knit_push(*case)
    assert (table.layers, table.k_max, table.valid_through) == (pushed.layers, pushed.k_max, pushed.valid_through)
    assert _written(table, NEW_WRITERS) == _written(pushed, PREVIOUS_WRITERS)


DIAMOND_QUIVER = quiver.build_dihedral_family(12)


@st.composite
def grid_tables(draw):
    """Rows on one dihedral-like grid, as a knit or a diamond has them: zeros, gaps and layers past valid_through."""
    component = draw(st.sampled_from([quiver.DIHEDRAL_EVEN, quiver.DIHEDRAL_ODD, quiver.ZA_INF, "x"]))
    i, j = draw(st.integers(-6, 6)), draw(st.integers(-6, 6))
    rows = []
    for r in range(draw(st.integers(1, 8))):
        offset = draw(st.integers(0, 3))
        mults = draw(st.lists(st.integers(0, 3), min_size=1, max_size=6))
        rows.append((draw(st.integers(0, 9)), quiver.Vertex(component, (i + 2 * offset, j + 2 * r - 2 * offset)), (2, -2), mults))
    valid_through = draw(st.integers(0, 9))
    return LayerTable(rows[0][1], rows, valid_through + draw(st.sampled_from([0, 1, 4])), valid_through)


@st.composite
def row_tables(draw):
    """Arbitrary rows, any step, no vertex twice in one layer."""
    component = draw(st.sampled_from([quiver.DIHEDRAL_EVEN, quiver.ZA_INF, quiver.TUBE, "x"]))
    length = draw(st.sampled_from([1, 2, 2, 2, 3]))
    steps = st.tuples(*[st.integers(-3, 3)] * length)
    step = draw(steps)
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        first = quiver.Vertex(component, tuple(draw(st.integers(-6, 6)) for _ in range(length)))
        row_step = draw(st.one_of(st.just(step), steps))
        rows.append((draw(st.integers(0, 6)), first, row_step, draw(st.lists(st.integers(0, 3), max_size=6))))
    table = LayerTable(quiver.Vertex(component, (0,) * length), rows, 6, draw(st.integers(0, 6)))
    cells = [(k, v) for k, v, _ in table._cells()]
    assume(len(cells) == len(set(cells)))
    return table


@st.composite
def other_tables(draw):
    """Diamonds, translated center tables, brute-force tables, and dict-built and arbitrary row tables."""
    kind = draw(st.sampled_from(["diamond", "translated", "brute-force", "dict", "rows"]))
    if kind in ("diamond", "translated"):
        odd = draw(st.booleans())
        v = DIAMOND_QUIVER.vertex(2 * draw(st.integers(-3, 3)) + odd, 2 * draw(st.integers(-3, 3)) + odd)
        n = draw(st.integers(1, 4))
        if kind == "diamond":
            return diamond_cokernel(DIAMOND_QUIVER, v, n, 12)
        return center.mu_element(DIAMOND_QUIVER, n).image_table(v)
    if kind == "brute-force":
        n = draw(st.integers(3, 6))
        m = jordan.indec(n, draw(st.integers(1, n - 1)))
        return jordan.radical_layers_bruteforce(m, draw(st.integers(0, 2 * n)), draw(st.sampled_from([GF(2), GF(3)])))
    if kind == "dict":
        return draw(st.one_of(layer_tables(), one_cell_tables(), hand_made_tables()))
    return draw(st.one_of(grid_tables(), row_tables()))


@given(other_tables())
@settings(max_examples=300, deadline=None)
def test_tables_write_as_the_writers_that_read_layers(table):
    assert _written(table, NEW_WRITERS) == _written(table, PREVIOUS_WRITERS)
    assert layer_table_tsv(table, CONFIG) == reference_tsv(table, CONFIG)
