"""Canonical serialization of tables and reports: versioned JSON and TSV.

Both formats are deterministic byte for byte: JSON is emitted with
sorted keys and fixed indentation, TSV rows are sorted by vertex, and
every artifact embeds the run configuration together with the schema
tag ``meshknit/1``.
"""

from __future__ import annotations

import json

from .mesh import LayerTable, PathSignReport
from .quiver import Vertex

SCHEMA_VERSION = "meshknit/1"


def vertex_str(v: Vertex) -> str:
    return str(v)


def canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def _config_items(config: dict) -> list[tuple[str, object]]:
    return sorted(config.items())


def config_line(config: dict) -> str:
    return " ".join(f"{k}={v}" for k, v in _config_items(config))


def layer_table_payload(table: LayerTable, config: dict) -> dict:
    layers = []
    for k in range(table.valid_through + 1):
        row = table.layers.get(k, {})
        # canonical_json sorts the vertex keys
        layers.append({"k": k, "row": {vertex_str(v): mult for v, mult in row.items()}})
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
    columns = table.valid_through + 1
    lines.append("\t".join(["vertex"] + [str(k) for k in range(columns)]))
    # per vertex line: its text so far and the number of layers written; zeros go in as runs
    cells = {v: [vertex_str(v), 0] for v in table.vertices()}
    for k in range(columns):
        for v, mult in table.layers.get(k, {}).items():
            cell = cells[v]
            cell[0] += "\t0" * (k - cell[1]) + f"\t{mult}"
            cell[1] = k + 1
    lines += [text + "\t0" * (columns - filled) for text, filled in cells.values()]
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
