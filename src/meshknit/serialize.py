"""Canonical serialization of tables and reports: versioned JSON and TSV.

Both formats are deterministic byte for byte: JSON is emitted with
sorted keys and fixed indentation, exactly as ``json.dumps(payload,
sort_keys=True, indent=2, ensure_ascii=True)`` writes it, TSV rows are
in vertex order, and every artifact embeds the run configuration
together with the schema tag ``meshknit/1``.  Layer tables go straight
from their integer rows to text, labelled from the coordinates, with no
payload or vertex built; rows that list their vertices column by column
(each dihedral knit and diamond) need no sort, other rows sort their distinct vertices.
"""

from __future__ import annotations

from itertools import accumulate, chain, compress, count, pairwise, zip_longest
from json.encoder import encode_basestring_ascii as _quote

from .mesh import LayerTable, PathSignReport
from .quiver import TUBE

SCHEMA_VERSION = "meshknit/1"
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_NAMED = {None: "null", True: "true", False: "false"}
# lists and dicts write these leaves themselves, with no call of _json per leaf
_LEAF = {str: _quote, int: int.__repr__, bool: _NAMED.__getitem__, type(None): _NAMED.__getitem__}


def canonical_json(payload: dict) -> str:
    return _json(payload, "\n") + "\n"


def _json(x, indent: str) -> str:
    """x as JSON text whose nested lines start with indent (a newline and spaces)."""
    inner = indent + "  "
    if isinstance(x, (list, tuple)):
        items = [_LEAF[type(v)](v) if type(v) in _LEAF else _json(v, inner) for v in x]
        return f"[{inner}{(',' + inner).join(items)}{indent}]" if items else "[]"
    if isinstance(x, dict):
        # json sorts the keys as they are (keys are unique, so no value is
        # compared), then writes non-string keys as scalar text
        keys = sorted(x)
        lists = keys and type(x[keys[0]]) is list and set(map(type, x.values())) == {list}
        if lists and all(x.values()):
            head, sep = "[" + inner + "  ", "," + inner + "  "
            try:  # nonempty lists of strings under string keys, in one pass
                items = [f"{_quote(k)}: {head}{sep.join(map(_quote, x[k]))}{inner}]" for k in keys]
                return f"{{{inner}{(',' + inner).join(items)}{indent}}}"
            except TypeError:
                pass
        items = [
            f"{_quote(k if isinstance(k, str) else _scalar(k))}: "
            f"{v if type(v) is int else _LEAF[type(v)](v) if type(v) in _LEAF else _json(v, inner)}"
            for k in keys
            for v in [x[k]]
        ]
        return f"{{{inner}{(',' + inner).join(items)}{indent}}}" if items else "{}"
    if isinstance(x, str):
        return _quote(x)
    return _scalar(x)


def _scalar(x) -> str:
    if x is None or type(x) is bool:
        return _NAMED[x]
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        text = float.__repr__(x)
        return _NONFINITE.get(text, text)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def config_line(config: dict) -> str:
    return " ".join(f"{k}={v}" for k, v in sorted(config.items()))


def layer_table_json(table: LayerTable, config: dict) -> str:
    """``canonical_json`` of the table's payload, written from its rows: each nonzero entry is
    one item '"<label>": <mult>', and each layer sorts its items once ('"' sorts below every
    label character, so the items fall in label order)."""
    layers: list[list[str]] = [[] for _ in range(table.valid_through + 1)]
    shared = set()  # layers whose labels may repeat: fed by several rows, or tube rows of longer coordinates
    for row in table.rows:
        k, (c, coords), _, _ = row
        if 0 <= k < len(layers):
            if layers[k] or c == TUBE and len(coords) > 1:
                shared.add(k)
            layers[k] += _items(row)
    for k in shared:  # a label's last entry wins, as in a dict
        layers[k] = list({item.rpartition(": ")[0]: item for item in layers[k]}.values())
    texts = []  # each layer's text at the payload's depth: items at 8 spaces, layers at 4
    for k, items in enumerate(layers):
        items.sort()
        row = "{\n        " + ",\n        ".join(items) + "\n      }" if items else "{}"
        texts.append(f'{{\n      "k": {k},\n      "row": {row}\n    }}')
    listed = "[\n    " + ",\n    ".join(texts) + "\n  ]" if texts else "[]"
    header = _json(config, "\n  ")
    return (
        f'{{\n  "config": {header},\n  "k_max": {table.k_max},\n  "kind": "layer-table",\n'
        f'  "layers": {listed},\n  "schema": "{SCHEMA_VERSION}",\n  "target": {_quote(str(table.target))},\n'
        f'  "truncated": {_NAMED[table.truncated]},\n  "valid_through": {table.valid_through}\n}}\n'
    )


def layer_table_tsv(table: LayerTable, config: dict) -> str:
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
    # per vertex its line: its multiplicity in each layer; a vertex met only past
    # valid_through gets a line of zeros
    offsets = _grid_offsets(table.rows, columns)
    if offsets is not None:
        # column by column, each column's cells in row order, is vertex order; each vertex
        # is in one row, and padding and zero entries get no line; zeros are sliced from one run
        zeros = "\t0" * columns
        texts, mults = [], []
        for (k, (_, (i, j)), (s, u), row), offset in zip(table.rows, offsets):
            head, tail = zeros[: 2 * k] + "\t", zeros[2 * k + 2 :]
            cells = zip(count(i, s), count(j, u), row)
            texts.append([None] * offset + [f"{a},{b}{head}{r}{tail}" for a, b, r in cells])
            mults.append([0] * offset + row)
        by_column = chain.from_iterable(zip_longest(*texts))
        lines += compress(by_column, chain.from_iterable(zip_longest(*mults, fillvalue=0)))
    else:  # per vertex its cells, filled from the rows; only the distinct vertices are sorted
        cells: dict[tuple, list[str]] = {}
        for k, (c, coords), step, mults in table.rows:
            for at, r in zip(zip(*map(count, coords, step)), mults):
                if r:
                    line = cells.get((c, at)) or cells.setdefault((c, at), ["\t0"] * columns)
                    if 0 <= k < columns:
                        line[k] = f"\t{r}"
        vertices = sorted(cells)
        lines += map(str.__add__, _names(vertices), map("".join, map(cells.__getitem__, vertices)))
    lines.append("")
    return "\n".join(lines)


def _grid_offsets(rows: list, columns: int) -> list[int] | None:
    """Per row, the column of its first vertex, when the rows list their vertices column by column:
    layers 0..columns - 1, two coordinates on one component but the tube, one step (s, u), s > 0,
    first vertices (i, j) on one grid of columns i, s j - u i growing from row to row (so no two
    rows share a vertex).  None otherwise, or when the grid would hold over four slots per entry:
    the writer pads every row to the grid's width.  A knit's triangle of rows in its square takes
    under two slots per entry, and a diamond fewer; four is twice that.  A hand-built table's
    scattered rows would pad with the spread of the rows, not their entries, so they are sorted."""
    c, step = (rows[0][1].component, rows[0][2]) if rows else (TUBE, ())
    if c == TUBE or len(step) != 2 or step[0] <= 0:
        return None
    (s, u), firsts = step, [first for _, first, _, _ in rows]
    for (k, _, row_step, _), (component, coords) in zip(rows, firsts):
        if not 0 <= k < columns or row_step != step or component != c or len(coords) != 2:
            return None
    keys = [s * j - u * i for _, (i, j) in firsts]
    lo = min(i for _, (i, _) in firsts)
    if any(a >= b for a, b in zip(keys, keys[1:])) or any((i - lo) % s for _, (i, _) in firsts):
        return None
    offsets = [(i - lo) // s for _, (i, _) in firsts]
    width = max(offset + len(row[3]) for offset, row in zip(offsets, rows))
    return offsets if width * len(rows) <= 4 * sum(len(row[3]) for row in rows) else None


def _items(row) -> list[str]:
    """'"<label>": <mult>' of a row's nonzero entries, each label ``str(v)`` from the coordinates."""
    _, (c, coords), step, mults = row
    if c == TUBE:
        return [f'"J{i}": {r}' for i, r in zip(count(coords[0], step[0]), mults) if r]
    if len(coords) == 2:
        (i, j), (s, u) = coords, step
        return [f'"{a},{b}": {r}' for a, b, r in zip(count(i, s), count(j, u), mults) if r]
    cells = zip(zip(*map(count, coords, step)), mults)
    return [f"{_quote(','.join(map(str, at)))}: {r}" for at, r in cells if r]


def _names(vertices) -> list[str]:
    """``str(v)`` of each vertex, formatted from its coordinates."""
    return [
        f"J{c[0]}" if k == TUBE else f"{c[0]},{c[1]}" if len(c) == 2 else ",".join(map(str, c))
        for k, c in vertices
    ]


def sign_report_payload(report: PathSignReport, config: dict) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "kind": "sign-report",
        "config": dict(config),
        "source": str(report.source),
        "target": str(report.target),
        "grade": report.grade,
        "num_paths": report.num_paths,
        "method": report.method,
        "connected": report.connected,
        "verified_pairs": report.verified_pairs,
        "hom_dim": report.hom_dim,
        "signs": list(report.signs),
        "zero_paths": list(report.zero_paths),
        "counterexamples": report.counterexamples,
        "all_ok": report.all_ok,
    }


def support_payload(support, propagation, config: dict) -> dict:
    """SupportReport (plus optional PropagationReport) as one JSON object."""
    per_vertex, flags = support.per_vertex_hom_support, support.finite_flags
    window = list(per_vertex)
    names = _names(window)

    def labels(vertices: list) -> list[str]:  # the window is labelled once
        return names if vertices == window else _names(vertices)

    # the supports' labels in one list, cut at each vertex's share
    factors = labels(list(chain.from_iterable(per_vertex.values())))
    cuts = pairwise(accumulate(map(len, per_vertex.values()), initial=0))
    payload = {
        "schema": SCHEMA_VERSION,
        "kind": support.element_kind,
        "config": dict(config),
        "degree": support.degree,
        "window": support.window,
        "support": labels(sorted(support.element_support)),
        "per_vertex": dict(zip(names, [factors[a:b] for a, b in cuts])),
        "finite_flags": dict(zip(labels(list(flags)), flags.values())),
    }
    if propagation is not None:
        payload["hypotheses"] = dict(propagation.hypotheses)
        payload["support_min_two"] = propagation.support_min_two
        payload["applicable"] = propagation.applicable
        payload["conclusion"] = propagation.conclusion
        payload["notes"] = list(propagation.notes)
    return payload


def oracle_payload(results: dict, config: dict) -> dict:
    checks = {
        name: {"ok": bool(rep.ok), "failures": list(rep.failures), "stats": dict(rep.stats)}
        for name, rep in results.items()
    }
    return {
        "schema": SCHEMA_VERSION,
        "kind": "oracle-report",
        "config": dict(config),
        "checks": checks,
        "all_ok": all(c["ok"] for c in checks.values()),
    }
