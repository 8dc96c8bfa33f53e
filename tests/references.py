"""Code the package no longer carries, kept as the tests' references.

* linear algebra: ``rref``, the matrix sum and the subspace membership
  and dimension that only the tests read;
* the matrix model's zero class;
* layer tables: a table built from a ``{k: {vertex: multiplicity}}``
  mapping, the per-vertex knitting push on any shape, and the TSV and
  JSON writers that read a table's ``layers`` mapping;
* the center request: ``support_report`` and ``support_payload`` as they
  read the window one vertex at a time and labelled each distinct vertex
  through one ``Vertex``-keyed dict.
"""

import operator
from collections import Counter
from operator import itemgetter

from meshknit import center, mesh
from meshknit.errors import DimensionError, FieldMismatchError, UnsupportedParameterError
from meshknit.linalg import Matrix, Subspace
from meshknit.quiver import TUBE
from meshknit.serialize import SCHEMA_VERSION, config_line

# -- linear algebra ---------------------------------------------------------------


def rref(m):
    """Reduced row echelon form and the pivot columns."""
    space = Subspace(m.field, m.cols)
    space.extend(m.data)
    return Matrix._of(m.field, tuple(space.basis()), m.cols), tuple(sorted(space._rows))


def matrix_sum(a, b):
    """a + b, refusing mixed fields and shapes."""
    if a.field != b.field:
        raise FieldMismatchError(f"cannot add over {a.field} and {b.field}")
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise DimensionError(f"shape mismatch: ({a.rows}x{a.cols}) + ({b.rows}x{b.cols})")
    p = a.field.char
    pairs = zip(a.data, b.data)
    if p:
        out = tuple(tuple((x + y) % p for x, y in zip(r1, r2)) for r1, r2 in pairs)
    else:
        out = tuple(tuple(map(operator.add, r1, r2)) for r1, r2 in pairs)
    return Matrix._of(a.field, out, a.cols)


def span_contains(space, vec) -> bool:
    return not any(space.residue(vec))


def span_dim(space) -> int:
    return len(space.basis())


def zero_map(ctx, x, y):
    """The zero class x -> y of the matrix model's context."""
    return ctx.classify(x, y, Matrix.zeros(ctx.field, y.dim, x.dim))


# -- layer tables -----------------------------------------------------------------


def table_from_layers(target, layers, k_max, valid_through):
    """A LayerTable holding ``layers``: one row per entry, a row of no entry per empty layer."""
    rows = []
    for k, row in layers.items():
        if not row:
            rows.append((k, target, (0,) * len(target.coords), []))
        for v, mult in row.items():
            # a dihedral-like step, so some hand-made tables reach the writers' grid path
            step = (2, -2) if len(v.coords) == 2 else (1,) * len(v.coords)
            rows.append((k, v, step, [mult]))
    return mesh.LayerTable(target, rows, k_max, valid_through)


def knit_push(q, m, k_max, window):
    """``knit_layers`` as it pushed the tube and ZA-infinity mesh by mesh, on any shape."""
    if k_max < 0:
        raise UnsupportedParameterError(f"k_max must be >= 0, got {k_max}")
    q.validate(m)
    win = mesh._Window(q, window, k_max + 2)
    win.check_base(m)
    rows = {0: {m: 1}}
    for k in range(1, k_max + 1):
        acc = Counter()
        for v, mult in rows[k - 1].items():
            for w in q._mesh(v).middles:
                acc[w] += mult
        for v, mult in rows.get(k - 2, {}).items():
            acc[q._mesh(v).start] -= mult
        row = {win.check(x): mult for x, mult in acc.items() if mult}
        if any(mult < 0 for mult in row.values()):
            return table_from_layers(m, rows, k_max, k - 1)
        rows[k] = row
    return table_from_layers(m, rows, k_max, k_max)


def labels(vertices):
    """``str(v)`` of each vertex, from one test of the components (the writers' old labeller)."""
    components = set(map(itemgetter(0), vertices))
    fmt = "J%s" if components == {TUBE} else None if TUBE in components else "%s,%s"
    if fmt:
        try:
            return {v: fmt % v[1] for v in vertices}
        except TypeError:  # a coordinate tuple of another length
            pass
    return {v: str(v) for v in vertices}


def layer_table_payload(table, config):
    """The JSON writer as it read ``table.layers``."""
    names = labels([v for row in table.layers.values() for v in row])
    layers = [
        {"k": k, "row": {names[v]: mult for v, mult in table.layers.get(k, {}).items()}}
        for k in range(table.valid_through + 1)
    ]
    return {
        "schema": SCHEMA_VERSION,
        "kind": "layer-table",
        "config": dict(config),
        "target": str(table.target),
        "k_max": table.k_max,
        "valid_through": table.valid_through,
        "truncated": table.truncated,
        "layers": layers,
    }


def layer_table_tsv(table, config):
    """The TSV writer as it read ``table.layers``, one dict entry per vertex."""
    lines = [
        f"# schema: {SCHEMA_VERSION}",
        f"# config: {config_line(config)}",
        f"# target: {table.target}",
        f"# k_max: {table.k_max}",
        f"# valid_through: {table.valid_through}",
    ]
    if table.truncated:
        lines.append("# truncated: true")
    columns = table.valid_through + 1
    lines.append("\t".join(["vertex", *map(str, range(columns))]))
    zeros = "\t0" * columns
    cells = [v for row in table.layers.values() for v in row]
    text = labels(cells)
    if len(text) == len(cells):  # each vertex in one layer
        for k, row in table.layers.items():
            head, tail = zeros[: 2 * k], zeros[2 * k + 2 :]
            for v, mult in row.items():
                text[v] = f"{text[v]}{head}\t{mult}{tail}" if k < columns else text[v] + zeros
    else:  # fill each line layer by layer, counting the layers it holds
        filled = dict.fromkeys(text, 0)
        for k in range(columns):
            for v, mult in table.layers.get(k, {}).items():
                text[v] = f"{text[v]}{zeros[: 2 * (k - filled[v])]}\t{mult}"
                filled[v] = k + 1
        for v, count in filled.items():
            text[v] += zeros[2 * count :]
    order = sorted(text, key=itemgetter(1))
    order.sort(key=itemgetter(0))
    lines += map(text.__getitem__, order)
    lines.append("")
    return "\n".join(lines)


# -- the center request -------------------------------------------------------------


def support_report(e, window):
    """``center.support_report`` as it read the supports one window vertex at a time."""
    per_vertex = {v: e._image_supports([v])[0] for v in e.quiver.window(window)}
    return center.SupportReport(
        element_kind=e.kind,
        degree=e.degree,
        window=window,
        element_support=[v for v, factors in per_vertex.items() if factors],
        per_vertex_hom_support=per_vertex,
        finite_flags=dict.fromkeys(per_vertex, True),
    )


def support_payload(support, propagation, config):
    """``serialize.support_payload`` as it labelled each distinct vertex through one dict."""
    per_vertex = support.per_vertex_hom_support
    vertices = [*per_vertex, *support.finite_flags, *support.element_support]
    label = labels(list(dict.fromkeys(vertices + [w for ws in per_vertex.values() for w in ws])))
    payload = {
        "schema": SCHEMA_VERSION,
        "kind": support.element_kind,
        "config": dict(config),
        "degree": support.degree,
        "window": support.window,
        "support": [label[v] for v in sorted(support.element_support)],
        "per_vertex": {label[v]: [label[w] for w in ws] for v, ws in per_vertex.items()},
        "finite_flags": {label[v]: flag for v, flag in support.finite_flags.items()},
    }
    if propagation is not None:
        payload["hypotheses"] = dict(propagation.hypotheses)
        payload["support_min_two"] = propagation.support_min_two
        payload["applicable"] = propagation.applicable
        payload["conclusion"] = propagation.conclusion
        payload["notes"] = list(propagation.notes)
    return payload
