"""Canonical serialization of tables and reports: versioned JSON and TSV.

Both formats are deterministic byte for byte: JSON is emitted with
sorted keys and fixed indentation, exactly as ``json.dumps(payload,
sort_keys=True, indent=2, ensure_ascii=True)`` writes it, TSV rows are
sorted by vertex, and every artifact embeds the run configuration
together with the schema tag ``meshknit/1``.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter

from .mesh import LayerTable, PathSignReport
from .quiver import TUBE, Vertex

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
        items = [
            f"{_quote(k if isinstance(k, str) else _scalar(k))}: "
            f"{v if type(v) is int else _LEAF[type(v)](v) if type(v) in _LEAF else _json(v, inner)}"
            for k in sorted(x)
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


def layer_table_payload(table: LayerTable, config: dict) -> dict:
    # canonical_json sorts the vertex keys
    labels = _labels([v for row in table.layers.values() for v in row])
    layers = [
        {"k": k, "row": {labels[v]: mult for v, mult in table.layers.get(k, {}).items()}}
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
    # per vertex its line, with zeros sliced from one run; past valid_through, zeros
    zeros = "\t0" * columns
    cells = [v for row in table.layers.values() for v in row]
    text = _labels(cells)
    if len(text) == len(cells):  # each vertex in one layer, as in every dihedral knit
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
    # two stable sorts, by coordinates and then by component, give the vertex
    # order for a fraction of what comparing whole vertices costs
    order = sorted(text, key=itemgetter(1))
    order.sort(key=itemgetter(0))
    lines += map(text.__getitem__, order)
    lines.append("")
    return "\n".join(lines)


def _labels(vertices: list[Vertex]) -> dict[Vertex, str]:
    """``str(v)`` of each vertex, from one test of the components, not one per vertex.

    ``J<i>`` labels vertices all on the tube and ``<i>,<j>`` vertices none of which is;
    a mix of the two, or coordinates that do not fit the format, fall back to ``str``.
    A vertex listed twice is labelled twice, so a caller with many repeats passes them once.
    """
    components = set(map(itemgetter(0), vertices))
    fmt = "J%s" if components == {TUBE} else None if TUBE in components else "%s,%s"
    if fmt:
        try:
            return {v: fmt % v[1] for v in vertices}
        except TypeError:  # a coordinate tuple of another length
            pass
    return {v: str(v) for v in vertices}


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
    per_vertex = support.per_vertex_hom_support
    vertices = [*per_vertex, *support.finite_flags, *support.element_support]
    label = _labels(list(dict.fromkeys(vertices + [w for ws in per_vertex.values() for w in ws])))
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
