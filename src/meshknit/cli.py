"""Command line front end: knit, diamond, center, oracle, signcheck.

Every command emits a deterministic artifact (TSV or JSON) embedding the
run configuration.  Exit codes: 0 success, 1 verification counterexample
(the artifact contains the witness), 2 window error, 3 validity-range
truncation, 4 bad arguments, 5 the artifact could not be written.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from dataclasses import dataclass, field as dataclass_field

from . import center as center_mod
from . import jordan
from .errors import (
    DegreeError,
    InvalidVertexError,
    MixedPathLengthError,
    PreconditionError,
    QuiverKindError,
    UnsupportedParameterError,
    WindowError,
)
from .linalg import GF, QQ, Field
from .mesh import diamond_cokernel, knit_layers, path_sign_check
from .quiver import build_dihedral_family, build_tube, build_za_inf
from .serialize import (
    canonical_json,
    layer_table_payload,
    layer_table_tsv,
    oracle_payload,
    parse_vertex,
    sign_report_payload,
    support_payload,
)

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_WINDOW = 2
EXIT_TRUNCATED = 3
EXIT_USAGE = 4
EXIT_IO = 5

DEFAULT_WINDOW = 4


class _UsageError(Exception):
    pass


class _WriteError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad arguments through exit code 4."""

    def error(self, message):
        raise _UsageError(message)


@dataclass
class RunConfig:
    """Everything a run depends on; embedded in every artifact."""

    command: str
    window: int
    output_format: str
    k_max: int = 0
    field: str | None = None
    seed: int = 0
    params: dict = dataclass_field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "command": self.command,
            "window": self.window,
            "format": self.output_format,
            "k_max": self.k_max,
            "seed": self.seed,
        }
        if self.field is not None:
            out["field"] = self.field
        out.update(self.params)
        return out


def _parse_field(text: str) -> Field:
    if text in ("q", "Q"):
        return QQ
    if text.startswith("p:"):
        try:
            return GF(int(text[2:]))
        except ValueError as exc:
            raise _UsageError(f"bad field spec {text!r}: {exc}") from None
    raise _UsageError(f"field spec must be 'q' or 'p:<prime>', got {text!r}")


def _build_quiver(spec: str, window: int):
    if spec == "dihedral":
        return build_dihedral_family(window)
    if spec == "za-inf":
        return build_za_inf(window)
    if spec.startswith("tube:"):
        try:
            n = int(spec.split(":", 1)[1])
        except ValueError:
            raise _UsageError(f"bad tube spec {spec!r}") from None
        return build_tube(n)
    raise _UsageError(
        f"quiver spec must be 'tube:<n>', 'dihedral' or 'za-inf', got {spec!r}"
    )


def _resolve_window(args) -> int:
    if args.window is not None:
        return args.window
    env = os.environ.get("MESHKNIT_WINDOW")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise _UsageError(f"MESHKNIT_WINDOW must be an integer, got {env!r}") from None
    return DEFAULT_WINDOW


def _emit(text: str, out_path: str | None) -> None:
    """Write the artifact to stdout, or atomically to out_path.

    The text goes to a temporary file in the target directory first and
    is renamed over out_path, so a failure never leaves a partial file.
    """
    if out_path is None:
        sys.stdout.write(text)
        return
    head, tail = os.path.split(out_path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise _WriteError(f"cannot write {out_path}: {exc.strerror or exc}") from None


def _add_common(parser: argparse.ArgumentParser, formats=("tsv", "json")) -> None:
    parser.add_argument("--window", type=int, default=None, help="window radius")
    parser.add_argument("--format", choices=formats, default=formats[0])
    parser.add_argument("--out", default=None, help="write the artifact to this path")


def build_parser() -> _Parser:
    parser = _Parser(prog="meshknit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    knit = sub.add_parser("knit", help="radical layers by the knitting recurrence")
    knit.add_argument("--quiver", required=True)
    knit.add_argument("--vertex", required=True)
    knit.add_argument("--kmax", type=int, required=True)
    _add_common(knit)

    diamond = sub.add_parser("diamond", help="diamond cokernel table (dihedral)")
    diamond.add_argument("--n", type=int, required=True)
    diamond.add_argument("--vertex", required=True)
    diamond.add_argument("--field", default="q")
    _add_common(diamond)

    center = sub.add_parser("center", help="graded-center element support report")
    center.add_argument("--mu", type=int, required=True, help="diamond parameter n")
    center.add_argument(
        "--report", action="store_true", help="include propagation hypotheses"
    )
    _add_common(center, formats=("json",))

    oracle = sub.add_parser("oracle", help="matrix-model verification suite")
    oracle.add_argument("--n", type=int, required=True)
    oracle.add_argument(
        "--check",
        default="all",
        choices=[
            "all",
            "serre",
            "socle",
            "simple-fp",
            "mono-split",
            "comp-factors",
            "almost-vanishing",
        ],
    )
    oracle.add_argument("--field", default="p:5")
    _add_common(oracle, formats=("json",))

    signcheck = sub.add_parser("signcheck", help="parallel-path sign verification")
    signcheck.add_argument("--quiver", required=True)
    signcheck.add_argument("--source", required=True)
    signcheck.add_argument("--target", required=True)
    signcheck.add_argument("--grade", type=int, default=None)
    signcheck.add_argument("--field", default="q")
    _add_common(signcheck, formats=("json",))

    return parser


def _cmd_knit(args) -> int:
    window = _resolve_window(args)
    q = _build_quiver(args.quiver, window)
    vertex = parse_vertex(q, args.vertex)
    config = RunConfig(
        command="knit",
        window=window,
        output_format=args.format,
        k_max=args.kmax,
        params={"quiver": args.quiver, "vertex": str(vertex)},
    )
    table = knit_layers(q, vertex, args.kmax, window)
    if args.format == "json":
        text = canonical_json(layer_table_payload(table, config.to_dict()))
    else:
        text = layer_table_tsv(table, config.to_dict())
    _emit(text, args.out)
    return EXIT_TRUNCATED if table.truncated else EXIT_OK


def _cmd_diamond(args) -> int:
    window = _resolve_window(args)
    q = build_dihedral_family(window)
    vertex = parse_vertex(q, args.vertex)
    fld = _parse_field(args.field)
    config = RunConfig(
        command="diamond",
        window=window,
        output_format=args.format,
        field=str(fld),
        params={"n": args.n, "vertex": str(vertex)},
    )
    table = diamond_cokernel(q, vertex, args.n, window, field=fld)
    if args.format == "json":
        text = canonical_json(layer_table_payload(table, config.to_dict()))
    else:
        text = layer_table_tsv(table, config.to_dict())
    _emit(text, args.out)
    return EXIT_OK


def _cmd_center(args) -> int:
    window = _resolve_window(args)
    q = build_dihedral_family(window)
    element = center_mod.mu_element(q, args.mu)
    config = RunConfig(
        command="center",
        window=window,
        output_format=args.format,
        params={"mu": args.mu, "report": args.report},
    )
    support = center_mod.support_report(element, window)
    propagation = (
        center_mod.check_propagation(q, element, window) if args.report else None
    )
    text = canonical_json(support_payload(support, propagation, config.to_dict()))
    _emit(text, args.out)
    return EXIT_OK


_ORACLE_CHECKS = {
    "serre": lambda n, fld: jordan.serre_duality_check(n, fld),
    "socle": lambda n, fld: jordan.socle_suite(n, fld),
    "simple-fp": lambda n, fld: jordan.simple_fp_suite(n, fld),
    "mono-split": lambda n, fld: jordan.mono_representable_split_check(n, fld),
    "comp-factors": lambda n, fld: jordan.composition_factors_equivalence_check(n, fld),
    "almost-vanishing": lambda n, fld: jordan.almost_vanishing_agreement_suite(
        n, fld, up_to_scalar=n >= 5
    ),
}


def _cmd_oracle(args) -> int:
    window = _resolve_window(args)
    fld = _parse_field(args.field)
    names = list(_ORACLE_CHECKS) if args.check == "all" else [args.check]
    results = {}
    for name in names:
        results[name] = _ORACLE_CHECKS[name](args.n, fld)
    config = RunConfig(
        command="oracle",
        window=window,
        output_format=args.format,
        field=str(fld),
        params={"n": args.n, "check": args.check},
    )
    payload = oracle_payload(results, config.to_dict())
    _emit(canonical_json(payload), args.out)
    return EXIT_OK if payload["all_ok"] else EXIT_COUNTEREXAMPLE


def _cmd_signcheck(args) -> int:
    window = _resolve_window(args)
    q = _build_quiver(args.quiver, window)
    source = parse_vertex(q, args.source)
    target = parse_vertex(q, args.target)
    fld = _parse_field(args.field)
    config = RunConfig(
        command="signcheck",
        window=window,
        output_format=args.format,
        field=str(fld),
        params={
            "quiver": args.quiver,
            "source": str(source),
            "target": str(target),
            "grade": args.grade,
        },
    )
    report = path_sign_check(q, source, target, window, grade=args.grade, field=fld)
    _emit(canonical_json(sign_report_payload(report, config.to_dict())), args.out)
    return EXIT_OK if report.all_ok else EXIT_COUNTEREXAMPLE


_COMMANDS = {
    "knit": _cmd_knit,
    "diamond": _cmd_diamond,
    "center": _cmd_center,
    "oracle": _cmd_oracle,
    "signcheck": _cmd_signcheck,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"meshknit: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _WriteError as exc:
        print(f"meshknit: error: {exc}", file=sys.stderr)
        return EXIT_IO
    except WindowError as exc:
        print(f"meshknit: window error: {exc}", file=sys.stderr)
        return EXIT_WINDOW
    except (
        DegreeError,
        InvalidVertexError,
        MixedPathLengthError,
        PreconditionError,
        QuiverKindError,
        UnsupportedParameterError,
    ) as exc:
        print(f"meshknit: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
