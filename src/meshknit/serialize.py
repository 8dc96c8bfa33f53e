"""Canonical serialization of tables and reports: versioned JSON and TSV.

Both formats are deterministic byte for byte: JSON is emitted with
sorted keys and fixed indentation, TSV rows are sorted by vertex, and
every artifact embeds the run configuration together with the schema
tag ``meshknit/1``.
"""

from __future__ import annotations

import json

from .errors import InvalidVertexError
from .mesh import LayerTable, PathSignReport
from .quiver import (
    DihedralFamily,
    DIHEDRAL_ODD,
    TranslationQuiver,
    Tube,
    Vertex,
    ZAInf,
)

SCHEMA_VERSION = "meshknit/1"


def vertex_str(v: Vertex) -> str:
    return str(v)


def parse_vertex(q: TranslationQuiver, text: str) -> Vertex:
    """Parse the per-shape vertex syntax and validate against the quiver.

    Tube vertices are ``J<i>``; dihedral vertices are ``<i>,<j>`` with an
    optional ``:odd``/``:even`` suffix that is cross-checked against the
    coordinate parity; ZA-infinity vertices are ``<level>,<pos>``.
    """
    text = text.strip()
    if isinstance(q, Tube):
        if not text.startswith("J"):
            raise InvalidVertexError(f"tube vertices look like J<i>, got {text!r}")
        try:
            i = int(text[1:])
        except ValueError:
            raise InvalidVertexError(f"bad tube vertex {text!r}") from None
        return q.vertex(i)
    if isinstance(q, DihedralFamily):
        head, sep, suffix = text.partition(":")
        coords = head.split(",")
        if len(coords) != 2:
            raise InvalidVertexError(f"dihedral vertices look like <i>,<j>, got {text!r}")
        try:
            i, j = (int(c) for c in coords)
        except ValueError:
            raise InvalidVertexError(f"bad dihedral vertex {text!r}") from None
        v = q.vertex(i, j)
        if sep:
            if suffix not in ("odd", "even"):
                raise InvalidVertexError(f"unknown parity tag {suffix!r}")
            is_odd = v.component == DIHEDRAL_ODD
            if (suffix == "odd") != is_odd:
                raise InvalidVertexError(
                    f"parity tag {suffix!r} contradicts coordinates {head}"
                )
        return v
    if isinstance(q, ZAInf):
        coords = text.split(",")
        if len(coords) != 2:
            raise InvalidVertexError(
                f"ZA-infinity vertices look like <level>,<pos>, got {text!r}"
            )
        try:
            level, pos = (int(c) for c in coords)
        except ValueError:
            raise InvalidVertexError(f"bad ZA-infinity vertex {text!r}") from None
        return q.vertex(level, pos)
    raise InvalidVertexError(f"no vertex syntax for quiver kind {q.kind}")


def canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def _config_items(config: dict) -> list[tuple[str, object]]:
    return sorted(config.items())


def config_line(config: dict) -> str:
    return " ".join(f"{k}={v}" for k, v in _config_items(config))


def layer_table_payload(table: LayerTable, config: dict) -> dict:
    layers = []
    for k in range(table.valid_through + 1):
        row = table.row(k)
        layers.append(
            {
                "k": k,
                "row": {vertex_str(v): row[v] for v in sorted(row)},
            }
        )
    return {
        "schema": SCHEMA_VERSION,
        "kind": "layer-table",
        "config": dict(_config_items(config)),
        "target": vertex_str(table.target),
        "k_max": table.k_max,
        "valid_through": table.valid_through,
        "truncated": table.truncated,
        "layers": layers,
    }


def layer_table_tsv(table: LayerTable, config: dict) -> str:
    lines = [
        f"# schema: {SCHEMA_VERSION}",
        f"# config: {config_line(config)}",
        f"# target: {vertex_str(table.target)}",
        f"# k_max: {table.k_max}",
        f"# valid_through: {table.valid_through}",
    ]
    if table.truncated:
        lines.append("# truncated: true")
    columns = list(range(table.valid_through + 1))
    lines.append("\t".join(["vertex"] + [str(k) for k in columns]))
    for v in table.vertices():
        entries = [str(table.entry(k, v)) for k in columns]
        lines.append("\t".join([vertex_str(v)] + entries))
    return "\n".join(lines) + "\n"


def sign_report_payload(report: PathSignReport, config: dict) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "kind": "sign-report",
        "config": dict(_config_items(config)),
        "source": vertex_str(report.source),
        "target": vertex_str(report.target),
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
    payload = {
        "schema": SCHEMA_VERSION,
        "kind": support.element_kind,
        "config": dict(_config_items(config)),
        "degree": support.degree,
        "window": support.window,
        "support": [vertex_str(v) for v in sorted(support.element_support)],
        "per_vertex": {
            vertex_str(v): [vertex_str(w) for w in ws]
            for v, ws in sorted(support.per_vertex_hom_support.items())
        },
        "finite_flags": {
            vertex_str(v): flag for v, flag in sorted(support.finite_flags.items())
        },
    }
    if propagation is not None:
        payload["hypotheses"] = dict(sorted(propagation.hypotheses.items()))
        payload["support_min_two"] = propagation.support_min_two
        payload["applicable"] = propagation.applicable
        payload["conclusion"] = propagation.conclusion
        payload["notes"] = list(propagation.notes)
    return payload


def oracle_payload(results: dict, config: dict) -> dict:
    checks = {}
    for name, rep in sorted(results.items()):
        checks[name] = {
            "ok": bool(rep.ok),
            "failures": list(rep.failures),
            "stats": dict(sorted(rep.stats.items())),
        }
    return {
        "schema": SCHEMA_VERSION,
        "kind": "oracle-report",
        "config": dict(_config_items(config)),
        "checks": checks,
        "all_ok": all(c["ok"] for c in checks.values()),
    }
