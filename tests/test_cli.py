"""Command-line surface: formats, exit codes, determinism."""

import contextlib
import errno
import io
import json
import os
import subprocess
import sys
import time
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from meshknit import center, cli, quiver
from meshknit.errors import FieldMismatchError, InternalCheckError
from meshknit.jordan import CheckReport


@pytest.fixture()
def run(capsys, monkeypatch):
    monkeypatch.delenv("MESHKNIT_WINDOW", raising=False)

    def invoke(argv, env_window=None):
        if env_window is not None:
            monkeypatch.setenv("MESHKNIT_WINDOW", env_window)
        code = cli.main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


# -- knit ---------------------------------------------------------------------


def test_knit_tsv_table(run):
    code, out, _ = run(["knit", "--quiver", "tube:4", "--vertex", "J2", "--kmax", "3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# schema: meshknit/1"
    assert any(line.startswith("# config:") for line in lines)
    assert "vertex\t0\t1\t2\t3" in lines
    assert "J2\t1\t0\t1\t0" in lines
    assert "J1\t0\t1\t0\t0" in lines


def test_knit_truncation_exit_code(run):
    code, out, _ = run(["knit", "--quiver", "tube:4", "--vertex", "J2", "--kmax", "6"])
    assert code == 3
    assert "# truncated: true" in out.splitlines()
    assert "# valid_through: 3" in out.splitlines()


def test_knit_json_layers_are_ordered(run):
    code, out, _ = run(
        ["knit", "--quiver", "dihedral", "--vertex", "0,0", "--kmax", "2",
         "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "meshknit/1"
    assert payload["config"]["command"] == "knit"
    assert [layer["k"] for layer in payload["layers"]] == [0, 1, 2]
    assert payload["layers"][2]["row"] == {"0,4": 1, "2,2": 1, "4,0": 1}
    assert not payload["truncated"]


def test_knit_writes_artifact_file(run, tmp_path):
    target = tmp_path / "table.tsv"
    code, out, _ = run(
        ["knit", "--quiver", "tube:4", "--vertex", "J1", "--kmax", "3",
         "--out", str(target)]
    )
    assert code == 0
    assert out == ""
    assert "J3\t0\t0\t1\t0" in target.read_text().splitlines()


def test_knit_cost_does_not_grow_with_the_tube_rank():
    # A tube row holds only the levels the knit reaches, so a rank of 10^9
    # costs what a rank of 20 does; a row over J_1..J_{n-1} would not finish.
    argv = ["knit", "--quiver", "tube:1000000000", "--vertex", "J2", "--kmax", "12"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.pop("MESHKNIT_WINDOW", None)
    proc = subprocess.run(
        [sys.executable, "-m", "meshknit.cli", *argv],
        capture_output=True, text=True, env=env, timeout=20,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "J14\t" + "\t".join(["0"] * 12 + ["1"])


# -- diamond ------------------------------------------------------------------


def test_diamond_grid(run):
    code, out, _ = run(
        ["diamond", "--n", "2", "--vertex", "0,0", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    rows = {layer["k"]: layer["row"] for layer in payload["layers"]}
    assert rows[0] == {"0,0": 1}
    assert rows[1] == {"0,2": 1, "2,0": 1}
    assert rows[2] == {"2,2": 1}


def test_diamond_field_choice_matches(run):
    _, over_q, _ = run(["diamond", "--n", "1", "--vertex", "1,1"])
    _, over_p, _ = run(["diamond", "--n", "1", "--vertex", "1,1", "--field", "p:7"])
    # Same table; only the config line differs.
    table_q = [l for l in over_q.splitlines() if not l.startswith("#")]
    table_p = [l for l in over_p.splitlines() if not l.startswith("#")]
    assert table_q == table_p


# -- center -------------------------------------------------------------------


def test_center_report(run):
    code, out, _ = run(["center", "--mu", "1", "--report", "--window", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "meshknit/1"
    assert payload["degree"] == 1
    assert payload["hypotheses"]["calabi_yau"] is True
    assert payload["conclusion"] is True
    assert payload["applicable"] is False
    # The element is supported on the whole window, one factor per vertex.
    assert len(payload["support"]) == len(payload["per_vertex"])
    assert all(len(v) == 1 for v in payload["per_vertex"].values())


def test_center_without_report_has_no_hypotheses(run):
    code, out, _ = run(["center", "--mu", "1", "--window", "2"])
    assert code == 0
    payload = json.loads(out)
    assert "hypotheses" not in payload
    assert "support" in payload


def test_center_report_reads_the_support_once(run, monkeypatch):
    # one support report and one window per request, with or without --report
    calls, windows = [], []
    support_report = center.support_report
    window = quiver.DihedralFamily.window

    def counted(*args):
        calls.append(args)
        return support_report(*args)

    def counted_window(q, radius):
        windows.append(radius)
        return window(q, radius)

    monkeypatch.setattr(center, "support_report", counted)
    monkeypatch.setattr(quiver.DihedralFamily, "window", counted_window)
    for argv, want in (([], 1), (["--report"], 2)):
        code, out, _ = run(["center", "--mu", "1", "--window", "2", *argv])
        assert code == 0
        assert len(calls) == want
        assert windows == [2] * want
        assert ("hypotheses" in json.loads(out)) == bool(argv)


def test_center_rejects_tsv(run):
    code, _, err = run(["center", "--mu", "1", "--format", "tsv"])
    assert code == 4


# -- oracle -------------------------------------------------------------------


def test_oracle_all_checks_pass(run):
    code, out, _ = run(["oracle", "--n", "4", "--check", "all"])
    assert code == 0
    payload = json.loads(out)
    assert payload["all_ok"] is True
    assert set(payload["checks"]) == {
        "serre", "socle", "simple-fp", "mono-split", "comp-factors",
        "almost-vanishing",
    }
    for result in payload["checks"].values():
        assert result["ok"] is True


def test_oracle_single_check(run):
    code, out, _ = run(["oracle", "--n", "5", "--check", "serre"])
    assert code == 0
    payload = json.loads(out)
    assert list(payload["checks"]) == ["serre"]
    assert payload["config"]["field"] == "GF(5)"


def test_oracle_counterexample_exit_code(run, monkeypatch):
    def failing(n, field):
        return CheckReport(
            name="serre",
            ok=False,
            failures=[{"module": "J1", "detail": "forced failure"}],
            stats={},
        )

    monkeypatch.setitem(cli._ORACLE_CHECKS, "serre", failing)
    code, out, _ = run(["oracle", "--n", "4", "--check", "serre"])
    assert code == 1
    payload = json.loads(out)
    assert payload["all_ok"] is False
    # The witness travels with the artifact.
    assert payload["checks"]["serre"]["failures"]


@pytest.mark.parametrize(
    "argv, refusal",
    [
        (["--n", "7"], "split-mono sweep enumerates all classes; n=7 exceeds the n <= 6 budget"),
        (["--n", "6", "--field", "q"], "full class enumeration needs a finite coefficient field"),
    ],
)
def test_oracle_refuses_before_it_computes(run, monkeypatch, argv, refusal):
    ran = []
    for name, check in list(cli._ORACLE_CHECKS.items()):

        def recording(n, field, _name=name, _check=check):
            ran.append(_name)
            return _check(n, field)

        monkeypatch.setitem(cli._ORACLE_CHECKS, name, recording)
    code, out, err = run(["oracle", *argv])
    assert (code, out, err) == (cli.EXIT_USAGE, "", f"meshknit: error: {refusal}\n")
    # The first check refuses, so none of the others computed anything.
    assert ran == ["mono-split"]


# -- signcheck ------------------------------------------------------------------


def test_signcheck_reports_signs(run):
    code, out, _ = run(
        ["signcheck", "--quiver", "dihedral", "--source", "4,4",
         "--target", "0,0"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["all_ok"] is True
    assert payload["method"] == "dense"
    assert payload["num_paths"] == 6
    assert set(payload["signs"]) <= {-1, 1}


def test_signcheck_on_tube_needs_grade(run):
    code, _, err = run(
        ["signcheck", "--quiver", "tube:4", "--source", "J2", "--target", "J2"]
    )
    assert code == 4
    code, out, _ = run(
        ["signcheck", "--quiver", "tube:4", "--source", "J2", "--target", "J2",
         "--grade", "2"]
    )
    assert code == 0
    assert json.loads(out)["all_ok"] is True


# -- vertex syntax ----------------------------------------------------------------


def test_dihedral_parity_suffix(run):
    code, out, _ = run(
        ["knit", "--quiver", "dihedral", "--vertex", "1,1:odd", "--kmax", "1",
         "--format", "json"]
    )
    assert code == 0
    assert json.loads(out)["target"] == "1,1"
    code, _, err = run(
        ["knit", "--quiver", "dihedral", "--vertex", "1,1:even", "--kmax", "1"]
    )
    assert code == 4
    assert "parity" in err


def test_bad_vertex_syntax(run):
    code, _, err = run(["knit", "--quiver", "tube:4", "--vertex", "X9", "--kmax", "1"])
    assert code == 4
    code, _, err = run(["knit", "--quiver", "dihedral", "--vertex", "1,2", "--kmax", "1"])
    assert code == 4


def _spelled_apart(argv):
    """Each --flag=value of argv as the two arguments --flag value."""
    return [part for arg in argv for part in (arg.split("=", 1) if arg.startswith("--") else [arg])]


@pytest.mark.parametrize(
    "argv",
    [
        ["knit", "--quiver=dihedral", "--vertex=-2,0", "--kmax=4"],
        ["knit", "--quiver=dihedral", "--vertex=-3,-1:odd", "--kmax=3", "--format=json"],
        ["knit", "--quiver=za-inf", "--vertex=2,-3", "--kmax=5"],
        ["knit", "--quiver=dihedral", "--vertex=-9,-9", "--kmax=2", "--window=2"],
        ["diamond", "--n=2", "--vertex=-2,-2", "--field=p:3"],
        ["diamond", "--n=2", "--vertex=-1,0"],
        ["signcheck", "--quiver=dihedral", "--source=4,4", "--target=-4,-4", "--window=8"],
        ["signcheck", "--quiver=dihedral", "--source=-2,2", "--target=-4,-4", "--field=p:5"],
        ["signcheck", "--quiver=dihedral", "--sou=-2,2", "--targ=-4,-4", "--field=p:5"],
        ["signcheck", "--quiver=tube:4", "--source=J1", "--target=J3", "--grade=-3"],
    ],
)
def test_separate_and_joined_flag_values_agree(run, argv):
    apart = _spelled_apart(argv)
    assert apart != argv
    assert run(apart) == run(argv)


def test_bad_quiver_and_field_specs(run):
    code, _, _ = run(["knit", "--quiver", "cube:4", "--vertex", "J1", "--kmax", "1"])
    assert code == 4
    code, _, _ = run(["diamond", "--n", "1", "--vertex", "0,0", "--field", "p:4"])
    assert code == 4
    # p:0 is not the rationals (that is q)
    code, out, err = run(["diamond", "--n", "1", "--vertex", "0,0", "--field", "p:0"])
    assert (code, out) == (4, "") and "bad field spec 'p:0'" in err
    code, _, _ = run(["oracle", "--n", "3", "--check", "serre", "--field", "p:0"])
    assert code == 4
    code, _, _ = run(["oracle", "--n", "4", "--check", "everything"])
    assert code == 4


def test_unknown_subcommand_and_missing_flags(run):
    assert run(["frobnicate"])[0] == 4
    assert run(["knit", "--quiver", "tube:4"])[0] == 4
    assert run([])[0] == 4


# -- window handling ---------------------------------------------------------------


def test_window_error_exit_code(run):
    code, _, err = run(
        ["knit", "--quiver", "dihedral", "--vertex", "8,8", "--kmax", "2",
         "--window", "2"]
    )
    assert code == 2
    assert "window" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["knit", "--quiver", "dihedral", "--vertex", "0,0", "--kmax", "1"],
        ["knit", "--quiver", "za-inf", "--vertex", "1,0", "--kmax", "1"],
        ["knit", "--quiver", "tube:4", "--vertex", "J1", "--kmax", "1"],
        ["diamond", "--n", "1", "--vertex", "0,0"],
        ["center", "--mu", "1"],
        ["signcheck", "--quiver", "dihedral", "--source", "2,2", "--target", "0,0"],
    ],
)
@pytest.mark.parametrize("by_env", [False, True])
def test_window_below_one_is_refused_in_one_line(run, argv, by_env):
    code, out, err = run(argv, env_window="0") if by_env else run(argv + ["--window", "0"])
    assert (code, out, err) == (4, "", "meshknit: error: window must be >= 1, got 0\n")


def test_window_env_variable(run):
    code, _, _ = run(
        ["knit", "--quiver", "dihedral", "--vertex", "8,8", "--kmax", "2"],
        env_window="2",
    )
    assert code == 2
    # An explicit flag beats the environment.
    code, _, _ = run(
        ["knit", "--quiver", "dihedral", "--vertex", "8,8", "--kmax", "2",
         "--window", "10"],
        env_window="2",
    )
    assert code == 0


def test_window_is_recorded_in_config(run):
    code, out, _ = run(
        ["knit", "--quiver", "tube:4", "--vertex", "J1", "--kmax", "1",
         "--format", "json", "--window", "7"]
    )
    assert code == 0
    assert json.loads(out)["config"]["window"] == 7


# -- unwritable artifacts ----------------------------------------------------------


def test_out_into_missing_directory_exits_5(tmp_path):
    target = tmp_path / "missing" / "table.tsv"
    argv = ["knit", "--quiver", "tube:4", "--vertex", "J2", "--kmax", "3", "--out", str(target)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.pop("MESHKNIT_WINDOW", None)
    proc = subprocess.run(
        [sys.executable, "-m", "meshknit.cli", *argv], capture_output=True, text=True, env=env
    )
    assert proc.returncode == cli.EXIT_IO == 5
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"meshknit: error: cannot write {target}: ")
    assert list(tmp_path.iterdir()) == []


def test_failed_rename_leaves_no_temporary_file(run, tmp_path):
    # The target is an existing directory: the temporary file is written
    # next to it, the rename fails, and the temporary file is removed.
    code, out, err = run(
        ["knit", "--quiver", "tube:4", "--vertex", "J2", "--kmax", "3", "--out", str(tmp_path)]
    )
    assert code == 5
    assert out == ""
    assert err.startswith(f"meshknit: error: cannot write {tmp_path}: ")
    assert list(tmp_path.iterdir()) == []
    assert list(tmp_path.parent.glob(f".{tmp_path.name}.*")) == []


def test_a_full_disk_exits_5_and_leaves_no_temporary_file(run, tmp_path, monkeypatch):
    def full(fd, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    target = tmp_path / "table.json"
    monkeypatch.setattr(os, "write", full)
    code, out, err = run(
        ["knit", "--quiver", "tube:4", "--vertex", "J2", "--kmax", "3", "--format", "json", "--out", str(target)]
    )
    monkeypatch.undo()
    assert code == cli.EXIT_IO == 5
    assert out == ""
    assert err.splitlines() == [f"meshknit: error: cannot write {target}: {os.strerror(errno.ENOSPC)}"]
    assert list(tmp_path.iterdir()) == []  # neither the artifact nor .table.json.<pid>.tmp


def test_short_writes_still_write_the_whole_artifact(run, tmp_path, monkeypatch):
    argv = ["knit", "--quiver", "dihedral", "--vertex", "1,1", "--kmax", "6", "--format", "json"]
    code, want, _ = run(argv)
    assert code == 0
    real, calls = os.write, []

    def one_byte(fd, data):
        calls.append(fd)
        return real(fd, bytes(data[:1]))

    target = tmp_path / "table.json"
    monkeypatch.setattr(os, "write", one_byte)
    code, out, err = run([*argv, "--out", str(target)])
    monkeypatch.undo()
    assert (code, out, err) == (0, "", "")
    assert target.read_text() == want
    assert len(calls) == len(want.encode())
    assert [p.name for p in tmp_path.iterdir()] == ["table.json"]


def test_the_artifact_mode_is_0o666_less_the_umask(run, tmp_path):
    target = tmp_path / "table.tsv"
    old = os.umask(0o027)
    try:
        code, _, _ = run(["knit", "--quiver", "tube:4", "--vertex", "J2", "--kmax", "3", "--out", str(target)])
    finally:
        os.umask(old)
    assert code == 0
    assert target.stat().st_mode & 0o777 == 0o640


@pytest.mark.parametrize(
    "argv",
    [
        # fails while writing, with megabytes to go
        ["knit", "--quiver", "dihedral", "--vertex", "0,0", "--kmax", "150", "--window", "80"],
        # fits in the buffer and fails on the flush
        ["knit", "--quiver", "tube:4", "--vertex", "J1", "--kmax", "1"],
    ],
)
def test_closed_stdout_pipe_exits_5(argv):
    # The reader is gone before the artifact is written: one error line, no
    # traceback, and nothing left for the interpreter to fail on at exit.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.pop("MESHKNIT_WINDOW", None)
    # stdout buffered as usual, so bytes are still pending when the process exits
    env.pop("PYTHONUNBUFFERED", None)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "meshknit.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == cli.EXIT_IO == 5
    assert proc.stderr.splitlines() == ["meshknit: error: cannot write to stdout: Broken pipe"]


class _BrokenStream(io.StringIO):
    """A stdout with no file descriptor whose reader has gone."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_broken_stdout_without_a_descriptor_exits_5(capsys):
    with contextlib.redirect_stdout(_BrokenStream()):
        code = cli.main(["knit", "--quiver", "tube:4", "--vertex", "J2", "--kmax", "3"])
    assert code == cli.EXIT_IO
    assert capsys.readouterr().err == "meshknit: error: cannot write to stdout: Broken pipe\n"
    # the process's stdout is untouched and still works
    assert cli.main(["knit", "--quiver", "tube:4", "--vertex", "J2", "--kmax", "1"]) == cli.EXIT_OK
    assert capsys.readouterr().out.startswith("# schema: meshknit/1\n")


# -- argument parsing ----------------------------------------------------------------


def _full_parse(argv):
    """The namespace from the full parser, or its usage error, or its exit and output; a
    value argparse dropped (it stores [] for --out=--) is a usage error."""

    def parse():
        args = cli._parser().parse_args(cli._glue_vertex_values(argv))
        dropped = [name for name, value in vars(args).items() if value == []]
        if dropped:
            raise cli._UsageError(f"argument --{dropped[0]}: expected one argument")
        return args

    return _outcome(parse)


def _outcome(parse):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return ("namespace", vars(parse()))
        except cli._UsageError as exc:
            return ("usage", str(exc))
        except SystemExit as exc:
            return ("exit", exc.code, out.getvalue(), err.getvalue())


def _reference_argvs():
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "data",
                           "cli_reference.json"), encoding="utf-8") as fh:
        return [key.split(" ") for key in sorted(json.load(fh)["requests"])]


# malformed or unusual: help, missing and bad values, unknown options and commands,
# negative vertex values, abbreviated flags, a "--" separator
UNUSUAL_ARGVS = [
    [],
    ["nope"],
    ["-h"],
    ["--help"],
    ["knit", "-h"],
    ["knit", "--quiver", "dihedral", "--vertex", "0,0"],
    ["knit", "--quiver", "dihedral", "--vertex", "0,0", "--kmax", "x"],
    ["knit", "--quiver", "dihedral", "--vertex", "0,0", "--kmax", "3", "--bogus", "1"],
    ["knit", "--quiver", "dihedral", "--vert", "-2,0", "--kmax", "3"],
    ["signcheck", "--quiver", "dihedral", "--source", "-2,0", "--target", "0,0"],
    ["signcheck", "--quiver", "dihedral", "--so", "-2,0", "--target", "0,0"],
    ["--window", "4", "knit"],
    ["knit", "--quiver", "tube:4", "--vertex", "J1", "--kmax", "1", "extra"],
    ["knit", "--", "--quiver"],
    ["kni", "--quiver", "tube:4"],
    ["oracle", "--n", "3", "--check", "nope"],
    ["center", "--mu", "1", "--format", "tsv"],
    # each one step off a plain request
    ["center", "--mu", "1", "--report=1"],
    ["center", "--mu", "1", "--report", "--help"],
    ["knit", "--quiver", "tube:4", "--vertex", "J1", "--kmax", "1", "--out=--"],
    ["knit", "--quiver", "tube:4", "--vertex", "J1", "--kmax", "1", "--out=a=b"],
    ["knit", "--quiver", "tube:4", "--vertex", "J1", "--kmax", "1", "--out", "-h"],
    ["knit", "--quiver", "tube:4", "--vertex", "J1", "--kmax", "1", "--out"],
    ["knit", "--quiver", "tube:4", "--vertex", "J1", "--kmax", "-3"],
    ["knit", "--quiver", "tube:4", "--vertex", "J1", "--kmax="],
    ["knit", "--quiver", "tube:4", "--vertex", "J1", "--kmax", "1", "--kmax", "2"],
    ["oracle", "--n", "3", "--check=Serre"],
]


def test_the_subcommand_parser_agrees_with_the_full_parser():
    argvs = _reference_argvs()
    assert len(argvs) == 1446
    for argv in argvs + UNUSUAL_ARGVS:
        want = _full_parse(argv)
        assert _outcome(lambda: cli._parse(argv)) == want, argv
    assert _full_parse(["knit", "--quiver", "d"])[0] == "usage"
    assert _full_parse(["knit", "-h"])[:2] == ("exit", 0)


_PLAIN_REQUESTS = {
    "knit": ["--quiver", "tube:4", "--vertex", "J1", "--kmax", "1"],
    "diamond": ["--n", "1", "--vertex", "0,0"],
    "center": ["--mu", "1"],
    "oracle": ["--n", "3", "--check", "serre"],
    "signcheck": ["--quiver", "tube:4", "--source", "J1", "--target", "J1"],
}
_VALUED_OPTIONS = [
    (name, action.option_strings[0])
    for name, command in cli.build_parser().commands.items()
    for action in command._actions
    if action.option_strings and action.nargs is None
]


@pytest.mark.parametrize("name, flag", _VALUED_OPTIONS, ids=[" ".join(c) for c in _VALUED_OPTIONS])
@pytest.mark.parametrize("spelling", ["inline", "separate"])
def test_a_dashdash_value_is_a_usage_error(run, name, flag, spelling):
    # argparse drops an inline "--" value and stores [] in its place
    request = _PLAIN_REQUESTS[name]
    kept = [t for pair in zip(request[::2], request[1::2]) if pair[0] != flag for t in pair]
    dashdash = [f"{flag}=--"] if spelling == "inline" else [flag, "--"]
    code, out, err = run([name, *kept, *dashdash])
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err.splitlines() == [f"meshknit: error: argument {flag}: expected one argument"]


def test_the_benchmark_requests_are_read_without_argparse(tmp_path):
    # cli-knit sends each reference request with --out appended; none may need parse_args.
    commands = cli._parser().commands.values()
    with contextlib.ExitStack() as stack:
        for command in commands:
            stack.enter_context(mock.patch.object(command, "parse_args", side_effect=AssertionError))
        for argv in _reference_argvs():
            args = cli._parse(argv + ["--out", str(tmp_path / "artifact")])
            assert (args.command, args.out) == (argv[0], str(tmp_path / "artifact"))


_INT_VALUES = (["0", "3", "12"], ["-3", "x", "", "1.5"])
_VERTEX_VALUES = (["0,0", "J1", "2,2:even"], ["-2,0", "", "-", "-x"])
# flag -> (values argparse takes however they are spelled, values at its corners)
_FLAG_VALUES = {
    "--quiver": (["dihedral", "tube:4"], ["-", "--", ""]),
    "--vertex": _VERTEX_VALUES,
    "--source": _VERTEX_VALUES,
    "--target": _VERTEX_VALUES,
    "--kmax": _INT_VALUES,
    "--n": _INT_VALUES,
    "--mu": _INT_VALUES,
    "--grade": _INT_VALUES,
    "--window": _INT_VALUES,
    "--field": (["q", "p:5"], ["-", "--"]),
    "--check": (["all", "serre"], ["nope", "Serre"]),
    "--format": (["tsv", "json"], ["xml", ""]),
    "--out": (["artifact", "a=b"], ["", "--", "-", "-h", "--format"]),
}
_COMMAND_FLAGS = {
    "knit": ["--quiver", "--vertex", "--kmax"],
    "diamond": ["--n", "--vertex", "--field"],
    "center": ["--mu", "--report"],
    "oracle": ["--n", "--check", "--field"],
    "signcheck": ["--quiver", "--source", "--target", "--grade", "--field"],
}
_ODD_TOKENS = [
    "-2,0", "-3", "-", "--", "-h", "--help", "--out=a=b", "--kmax=", "--report=1",
    "--bogus=1", "extra", "", "--=x", "--window 3",
]


@st.composite
def _option(draw, flag, bent):
    """flag with one of its values, separate or inline; --report alone unless bent."""
    if flag == "--report":
        return draw(st.sampled_from([["--report=1"], ["--report="]])) if bent else [flag]
    value = draw(st.sampled_from(_FLAG_VALUES[flag][bent]))
    return draw(st.sampled_from([[flag, value], [f"{flag}={value}"]]))


@st.composite
def _request_tokens(draw):
    """A subcommand's options in any order, one of them (mostly) bent: given an odd
    value, left out, or preceded by a stray token (odd, abbreviated or repeated)."""
    name = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    flags = draw(st.permutations(_COMMAND_FLAGS[name] + ["--window", "--format", "--out"]))
    bent = draw(st.integers(0, len(flags)))  # len(flags): none is
    how = draw(st.sampled_from(["value", "left out", "stray"]))
    abbreviated = [flag[:k] for flag in flags for k in range(3, len(flag))]
    stray = st.one_of(
        st.sampled_from(_ODD_TOKENS).map(lambda token: [token]),
        st.sampled_from(abbreviated + flags).map(lambda token: [token]),
        st.sampled_from(flags).flatmap(lambda flag: _option(flag, False)),
    )
    argv = [name]
    for i, flag in enumerate(flags):
        if (i, how) == (bent, "stray"):
            argv += draw(stray)
        if (i, how) != (bent, "left out"):
            argv += draw(_option(flag, (i, how) == (bent, "value")))
    return argv


@given(_request_tokens())
@settings(max_examples=600, deadline=None)
def test_the_direct_read_agrees_with_the_full_parser(argv):
    assert _outcome(lambda: cli._parse(argv)) == _full_parse(argv)


def _old_glue(argv):
    out = []
    for arg in argv:
        prev = out[-1] if out else ""
        is_flag = len(prev) > 2 and any(flag.startswith(prev) for flag in cli._VERTEX_FLAGS)
        if is_flag and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


@given(st.lists(st.sampled_from(
    ["--vertex", "--vert", "--v", "--", "-", "--s", "--sou", "--source", "--target", "--targetx",
     "--kmax", "-2,0", "-1", "-x", "2,0", "", "-2,0:odd", "--vertex=-2,0", "knit"]
), max_size=8))
def test_glued_vertex_values_are_unchanged(argv):
    assert cli._glue_vertex_values(argv) == _old_glue(argv)


# -- internal errors ---------------------------------------------------------------


@pytest.mark.parametrize("error", [InternalCheckError, FieldMismatchError])
def test_internal_errors_exit_6_with_one_line(run, monkeypatch, error):
    def broken(*args, **kwargs):
        raise error("forced failure")

    monkeypatch.setattr(cli, "knit_layers", broken)
    code, out, err = run(["knit", "--quiver", "tube:4", "--vertex", "J2", "--kmax", "3"])
    assert code == cli.EXIT_INTERNAL == 6
    assert out == ""
    assert err.splitlines() == ["meshknit: internal error: forced failure"]


# -- resource limits and grades ---------------------------------------------------


def test_grade_past_the_recursion_limit_has_one_path(run):
    # Path enumeration keeps an explicit stack, so a grade far past the
    # interpreter's recursion limit is an ordinary request: tube:3 has a
    # single path J1 -> J2 -> J1 -> ... of every even length.
    assert 2000 > sys.getrecursionlimit()
    code, out, err = run(
        ["signcheck", "--quiver", "tube:3", "--source", "J1", "--target", "J1", "--grade", "2000"]
    )
    assert code == cli.EXIT_OK
    assert err == ""
    report = json.loads(out)
    assert report["num_paths"] == 1


def test_impossible_path_count_fails_fast(run):
    # C(40, 20), about 1.4e11 paths: the classes are cheap, but the report
    # holds one sign per path, and that list is allocated before any is
    # filled, so the request fails at once instead of growing toward the limit.
    t0 = time.perf_counter()
    code, out, err = run(
        ["signcheck", "--quiver", "dihedral", "--source=40,40", "--target=0,0", "--window", "30"]
    )
    assert code == 7
    assert out == ""
    assert err.splitlines() == ["meshknit: error: input too large: MemoryError"]
    assert time.perf_counter() - t0 < 5


def test_path_count_past_the_index_size_exits_7(run):
    # tube:4 J1 -> J1 has 2^99 paths of length 200: more signs than a list can
    # index, which Python reports as OverflowError, not MemoryError.
    argv = ["signcheck", "--quiver", "tube:4", "--source", "J1", "--target", "J1", "--grade"]
    assert run([*argv, "40"])[0] == cli.EXIT_OK
    code, out, err = run([*argv, "200"])
    assert code == 7
    assert out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith("meshknit: error: input too large: ")


def test_out_of_memory_exits_7(run, monkeypatch):
    def broken(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "knit_layers", broken)
    code, out, err = run(["knit", "--quiver", "tube:4", "--vertex", "J2", "--kmax", "3"])
    assert code == 7
    assert out == ""
    assert err.splitlines() == ["meshknit: error: input too large: MemoryError"]


def test_negative_grade_is_a_usage_error(run):
    code, out, err = run(
        ["signcheck", "--quiver", "tube:3", "--source", "J1", "--target", "J1", "--grade", "-3"]
    )
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err.splitlines() == ["meshknit: error: grade must be >= 0, got -3"]


# -- determinism --------------------------------------------------------------------


def test_repeated_runs_are_byte_identical(run):
    argv = ["center", "--mu", "2", "--report", "--window", "4"]
    outputs = {run(argv)[1] for _ in range(3)}
    assert len(outputs) == 1
    argv = ["diamond", "--n", "2", "--vertex", "1,1", "--format", "json"]
    outputs = {run(argv)[1] for _ in range(3)}
    assert len(outputs) == 1


def test_artifact_ends_with_single_newline(run):
    _, out, _ = run(["oracle", "--n", "3", "--check", "socle"])
    assert out.endswith("\n")
    assert not out.endswith("\n\n")


# -- fuzzed argument vectors ----------------------------------------------------------
#
# Every argument vector ends in an exit code of the contract, never in a
# traceback.  Each value is valid seven times in eight and malformed
# otherwise; the valid numbers are bounded so that each request stays
# small (center --mu and knit --kmax cost grows with the square of the
# value).  Values are passed as --flag=value or as --flag value.


def _mostly(valid, malformed):
    # Hypothesis favours the ends of a range, so the rare branch sits inside it.
    return st.integers(0, 7).flatmap(lambda k: malformed if k == 3 else valid)


def _int_text(lo, hi, *out_of_range):
    """An integer in [lo, hi], or text argparse or the command rejects."""
    bad = ["", "x", "1.5", "0x10", "3e1", *map(str, out_of_range)]
    return _mostly(st.integers(lo, hi).map(str), st.sampled_from(bad))


def _spelling(flag, k, value):
    if k == 3:
        return []
    if k >= 18:  # "--", which argparse drops from an option's values
        value = "--"
    return [flag, value] if k % 2 else [f"{flag}={value}"]


def _opt(flag, values):
    """--flag=value or --flag value, or (one time in twenty) nothing at all, or (one time in
    ten) "--" for the value."""
    return st.tuples(st.integers(0, 19), values).map(lambda t: _spelling(flag, *t))


_BAD_VERTICES = st.sampled_from(
    ["", "J", "Jx", "J0", "J9", "0,0,0", "a,b", "1,", "1,0", "0,0:blue", "1,1:even", "0,3", "-1,0"]
)


def _dihedral_text(i, k, tagged):
    """The vertex (i, i + 2k), with its parity tag when tagged."""
    tag = (":odd" if i % 2 else ":even") if tagged else ""
    return f"{i},{i + 2 * k}{tag}"


def _vertex(quiver_spec):
    """A vertex in the quiver's own syntax, mostly; any syntax otherwise."""
    if quiver_spec.startswith("tube:") and quiver_spec[5:].isdigit():
        valid = st.integers(1, max(1, int(quiver_spec[5:]) - 1)).map("J{}".format)
    elif quiver_spec == "za-inf":
        valid = st.builds("{},{}".format, st.integers(1, 4), st.integers(-4, 4))
    else:
        valid = st.builds(_dihedral_text, st.integers(-4, 4), st.integers(-2, 2), st.booleans())
    return _mostly(valid, _BAD_VERTICES)


_QUIVERS = _mostly(
    st.sampled_from(["tube:3", "tube:4", "tube:5", "tube:6", "dihedral", "za-inf"]),
    st.sampled_from(["tube:2", "tube:x", "torus", ""]),
)
_FIELDS = _mostly(
    st.sampled_from(["q", "Q", "p:2", "p:3", "p:5", "p:7", "p:11", "p:13", "p:17", "p:19"]),
    st.sampled_from(["p:4", "p:1", "p:0", "p:-5", "p:", "p:x", "r"]),
)


@st.composite
def _argv(draw, name, *options):
    """The subcommand, its options in order, then --window and --format."""
    argv = [name]
    for option in options:
        argv += draw(option)
    argv += draw(_opt("--window", _int_text(1, 8, 0, -1)))
    formats = ["tsv", "json"] if name in ("knit", "diamond") else ["json"]
    argv += draw(_opt("--format", _mostly(st.sampled_from(formats), st.just("xml"))))
    return argv


@st.composite
def _on_a_quiver(draw, name, vertex_flags, *options):
    """--quiver, then each vertex flag in that quiver's syntax, then the options."""
    spec = draw(_QUIVERS)
    vertices = [_opt(flag, _vertex(spec)) for flag in vertex_flags]
    return draw(_argv(name, _opt("--quiver", st.just(spec)), *vertices, *options))


CLI_ARGVS = st.one_of(
    _on_a_quiver("knit", ["--vertex"], _opt("--kmax", _int_text(0, 60, -2))),
    _argv(
        "diamond",
        _opt("--n", _int_text(1, 6, 0, -1)),
        _opt("--vertex", _vertex("dihedral")),
        _opt("--field", _FIELDS),
    ),
    _argv("center", _opt("--mu", _int_text(1, 4, 0, -1)), st.sampled_from([[], ["--report"]])),
    _argv(
        "oracle",
        _opt("--n", _int_text(3, 4, 2, 0, -1)),
        _opt("--check", _mostly(
            st.sampled_from(["all", "serre", "socle", "simple-fp", "mono-split",
                             "comp-factors", "almost-vanishing"]),
            st.just("nope"),
        )),
        _opt("--field", _FIELDS),
    ),
    _on_a_quiver(
        "signcheck",
        ["--source", "--target"],
        _opt("--grade", _int_text(0, 12, -3)),
        _opt("--field", _FIELDS),
    ),
    st.lists(st.sampled_from(["bogus", "--window", "4", "knit", ""]), max_size=3),
)


@given(CLI_ARGVS)
@settings(max_examples=150, deadline=None)
def test_fuzzed_argument_vectors_exit_by_the_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        os.environ.pop("MESHKNIT_WINDOW", None)
        code = cli.main(argv)
    assert code in range(8), (argv, code)
    assert "Traceback" not in err.getvalue()
    # A failure is one line on stderr and no artifact.
    if code not in (cli.EXIT_OK, cli.EXIT_COUNTEREXAMPLE, cli.EXIT_TRUNCATED):
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1
