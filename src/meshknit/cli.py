"""Command line front end: knit, diamond, center, oracle, signcheck.

Every command emits a deterministic artifact (TSV or JSON) embedding the
run configuration.  Exit codes: 0 success, 1 verification counterexample
(the artifact contains the witness), 2 window error, 3 validity-range
truncation, 4 bad arguments, 5 the artifact could not be written,
6 an internal consistency check failed, 7 the input exhausted the
recursion or memory limit, or the sizes Python can index.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys

from . import center as center_mod
from . import jordan
from .errors import (
    DegreeError,
    InvalidVertexError,
    MeshknitError,
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
    layer_table_json,
    layer_table_tsv,
    oracle_payload,
    sign_report_payload,
    support_payload,
)

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_WINDOW = 2
EXIT_TRUNCATED = 3
EXIT_USAGE = 4
EXIT_IO = 5
EXIT_INTERNAL = 6
EXIT_LIMIT = 7

DEFAULT_WINDOW = 4
_VERTEX_FLAGS = ("--vertex", "--source", "--target")


class _UsageError(Exception):
    pass


class _WriteError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad arguments through exit code 4."""

    def error(self, message):
        raise _UsageError(message)


def _config(args, window: int, fld: Field | None = None, k_max: int = 0, **params) -> dict:
    """Everything a run depends on; embedded in every artifact."""
    config = {"command": args.command, "window": window, "format": args.format, "k_max": k_max}
    if fld is not None:
        config["field"] = str(fld)
    return {**config, "seed": 0, **params}


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

    The bytes go through one descriptor to a temporary file in the target directory
    and are renamed over out_path, so a failure never leaves a partial file.
    """
    if out_path is None:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            # Whatever is still buffered would fail again when the interpreter
            # flushes stdout at exit: send it to the null device instead.
            with contextlib.suppress(OSError, ValueError):
                fd = sys.stdout.fileno()
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, fd)
                os.close(devnull)
            raise _WriteError(f"cannot write to stdout: {exc.strerror or exc}") from None
        return
    head, tail = os.path.split(out_path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    data = memoryview(text.encode())
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)  # less the umask, as open()
        try:
            while data:  # os.write may write fewer bytes than it is given
                data = data[os.write(fd, data) :]
        finally:
            os.close(fd)
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
    parser.commands = sub.choices  # subcommand name -> its parser

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


def _glue_vertex_values(argv: list[str]) -> list[str]:
    """'--vertex -2,0' or '--vert -2,0' as '--vertex=-2,0' or '--vert=-2,0' for argparse.

    argparse takes a separate '-2,0' for an option, not for the flag's value.
    """
    out: list[str] = []
    for arg in argv:
        if arg[:1] == "-" and arg[1:2].isdigit() and out:
            prev = out[-1]
            if len(prev) > 2 and any(flag.startswith(prev) for flag in _VERTEX_FLAGS):
                out[-1] += "=" + arg
                continue
        out.append(arg)
    return out


@functools.cache
def _parser() -> _Parser:
    # Building the parser costs about as much as a small request; argparse
    # keeps no state between parse_args calls, so one per process serves all.
    return build_parser()


def _read_plain(command: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace | None:
    """argv read off the subcommand's option table, or None where argparse must decide:
    read when each option is spelled in full, given once, and valued inline (--x=v) or by
    the next argument, which must not start with '-'."""
    namespace, tokens = argparse.Namespace(command=argv[0]), iter(argv[1:])
    for token in tokens:
        flag, inline, value = token.partition("=")
        action = command._option_string_actions.get(flag)
        if action is None or action.dest in namespace or action.default is argparse.SUPPRESS:
            return None  # not an option, abbreviated, repeated, or help
        if action.nargs == 0 and not inline:  # --report
            value = action.const
        else:
            value = value if inline else next(tokens, "-")
            if action.nargs == 0 or not inline and value[:1] == "-" or value == "--":
                return None  # --report=v; a missing or dash-led value; "--", which argparse drops
            try:
                value = (action.type or str)(value)
            except ValueError:
                return None
            if action.choices is not None and value not in action.choices:
                return None
        setattr(namespace, action.dest, value)
    for action in command._actions:
        if action.dest not in namespace and action.default is not argparse.SUPPRESS:
            if action.required:
                return None
            setattr(namespace, action.dest, action.default)
    return namespace


def _parse(argv: list[str]) -> argparse.Namespace:
    """What the full parser returns, from the subcommand's parser alone: read directly
    (_read_plain) if plain, else by its parse_args, which alone gives help and usage errors.
    An option whose value argparse dropped is a usage error."""
    argv = _glue_vertex_values(argv)
    command = _parser().commands.get(argv[0]) if argv else None
    if command is None:  # no arguments, -h or an unknown command: help or a usage error
        return _parser().parse_args(argv)
    args = _read_plain(command, argv) or command.parse_args(
        argv[1:], argparse.Namespace(command=argv[0])
    )
    # argparse removes "--" from an option's values, so --out=-- stores [] as the value
    for action in command._actions:
        if action.nargs is None and getattr(args, action.dest) == []:
            raise _UsageError(f"argument {'/'.join(action.option_strings)}: expected one argument")
    return args


def _emit_table(table, args, config: dict) -> None:
    if args.format == "json":
        _emit(layer_table_json(table, config), args.out)
    else:
        _emit(layer_table_tsv(table, config), args.out)


def _cmd_knit(args) -> int:
    window = _resolve_window(args)
    q = _build_quiver(args.quiver, window)
    vertex = q.parse(args.vertex)
    config = _config(args, window, k_max=args.kmax, quiver=args.quiver, vertex=str(vertex))
    table = knit_layers(q, vertex, args.kmax, window)
    _emit_table(table, args, config)
    return EXIT_TRUNCATED if table.truncated else EXIT_OK


def _cmd_diamond(args) -> int:
    window = _resolve_window(args)
    q = build_dihedral_family(window)
    vertex = q.parse(args.vertex)
    # The table does not depend on the field; the artifact's config records it.
    config = _config(args, window, _parse_field(args.field), n=args.n, vertex=str(vertex))
    _emit_table(diamond_cokernel(q, vertex, args.n, window), args, config)
    return EXIT_OK


def _cmd_center(args) -> int:
    window = _resolve_window(args)
    q = build_dihedral_family(window)
    element = center_mod.mu_element(q, args.mu)
    config = _config(args, window, mu=args.mu, report=args.report)
    propagation = center_mod.check_propagation(q, element, window) if args.report else None
    support = propagation.support if args.report else center_mod.support_report(element, window)
    _emit(canonical_json(support_payload(support, propagation, config)), args.out)
    return EXIT_OK


# The checks that can refuse their parameters come first, so that `--check all`
# refuses before it computes; the artifact's JSON sorts its keys either way.
_ORACLE_CHECKS = {
    "mono-split": lambda n, fld: jordan.mono_representable_split_check(n, fld),
    "comp-factors": lambda n, fld: jordan.composition_factors_equivalence_check(n, fld),
    # Only the report differs (checks run once per line either way): the recorded
    # artifacts pin the per-class ``classes`` counts below n = 5 and this stat.
    "almost-vanishing": lambda n, fld: jordan.almost_vanishing_agreement_suite(
        n, fld, up_to_scalar=n >= 5
    ),
    "serre": lambda n, fld: jordan.serre_duality_check(n, fld),
    "socle": lambda n, fld: jordan.socle_suite(n, fld),
    "simple-fp": lambda n, fld: jordan.simple_fp_suite(n, fld),
}


def _cmd_oracle(args) -> int:
    window = _resolve_window(args)
    fld = _parse_field(args.field)
    names = list(_ORACLE_CHECKS) if args.check == "all" else [args.check]
    results = {name: _ORACLE_CHECKS[name](args.n, fld) for name in names}
    payload = oracle_payload(results, _config(args, window, fld, n=args.n, check=args.check))
    _emit(canonical_json(payload), args.out)
    return EXIT_OK if payload["all_ok"] else EXIT_COUNTEREXAMPLE


def _cmd_signcheck(args) -> int:
    window = _resolve_window(args)
    q = _build_quiver(args.quiver, window)
    source = q.parse(args.source)
    target = q.parse(args.target)
    fld = _parse_field(args.field)
    config = _config(
        args, window, fld, quiver=args.quiver, source=str(source), target=str(target), grade=args.grade
    )
    report = path_sign_check(q, source, target, window, grade=args.grade, field=fld)
    _emit(canonical_json(sign_report_payload(report, config)), args.out)
    return EXIT_OK if report.all_ok else EXIT_COUNTEREXAMPLE


_COMMANDS = {
    "knit": _cmd_knit,
    "diamond": _cmd_diamond,
    "center": _cmd_center,
    "oracle": _cmd_oracle,
    "signcheck": _cmd_signcheck,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        return _COMMANDS[args.command](args)
    except _WriteError as exc:
        print(f"meshknit: error: {exc}", file=sys.stderr)
        return EXIT_IO
    except WindowError as exc:
        print(f"meshknit: window error: {exc}", file=sys.stderr)
        return EXIT_WINDOW
    except (
        _UsageError,
        DegreeError,
        InvalidVertexError,
        MixedPathLengthError,
        PreconditionError,
        QuiverKindError,
        UnsupportedParameterError,
    ) as exc:
        print(f"meshknit: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MeshknitError as exc:
        # InternalCheckError and the like: a bug, not a counterexample
        print(f"meshknit: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (RecursionError, MemoryError, OverflowError) as exc:
        reason = str(exc) or type(exc).__name__
        print(f"meshknit: error: input too large: {reason}", file=sys.stderr)
        return EXIT_LIMIT


if __name__ == "__main__":
    sys.exit(main())
