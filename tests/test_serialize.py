"""The artifact writers against the standard library and the writers they replaced.

``canonical_json`` writes JSON directly; its reference is
``json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=True)``.
``layer_table_tsv`` and ``layer_table_payload`` label and sort each
vertex once; their references are the writers they replaced, kept here.
The labeller formats a table's coordinates without calling ``str`` per
vertex; its reference is ``str(v)``.
"""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from meshknit import quiver
from meshknit.jordan import CheckReport
from meshknit.mesh import LayerTable, diamond_cokernel, knit_layers
from meshknit.serialize import (
    SCHEMA_VERSION,
    _labels,
    canonical_json,
    layer_table_payload,
    layer_table_tsv,
    oracle_payload,
)


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
    return LayerTable(draw(vertices), layers, k_max, valid_through)


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
    return LayerTable(target, layers, valid_through + draw(st.sampled_from([0, 1, 5])), valid_through)


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
    table = LayerTable(odd[0], {3: {odd[3]: 2}, 0: {odd[0]: 1}, 1: {}, 2: {odd[1]: 1, odd[2]: 1}}, 5, 1)
    assert table.truncated
    tsv = layer_table_tsv(table, CONFIG)
    assert tsv == reference_tsv(table, CONFIG)
    # vertices met only past valid_through keep a line of zeros
    assert tsv.splitlines()[-4:] == ["-3,1\t0\t0", "-1,-1\t0\t0", "1,-1\t1\t0", "1,3\t0\t0"]
    payload = layer_table_payload(table, CONFIG)
    assert canonical_json(payload) == reference_json(reference_payload(table, CONFIG))


# -- labels against str(v) ---------------------------------------------------------


def _table_labels(table: LayerTable) -> dict:
    return _labels([v for row in table.layers.values() for v in row])


def _str_labels(table: LayerTable) -> dict:
    return {v: str(v) for row in table.layers.values() for v in row}


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
    labels = _table_labels(table)
    assert labels == _str_labels(table)
    assert list(labels) == list(dict.fromkeys(v for row in table.layers.values() for v in row))


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
    return LayerTable(draw(vertices), layers, 4, draw(st.integers(0, 4)))


@given(hand_made_tables())
@settings(max_examples=300, deadline=None)
def test_labels_of_hand_made_tables_are_str(table):
    assert _table_labels(table) == _str_labels(table)
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
    assert _labels(vertices) == {v: str(v) for v in vertices}
