"""Command-line surface: formats, exit codes, determinism."""

import json
import os
import subprocess
import sys

import pytest

from meshknit import cli
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


def test_bad_quiver_and_field_specs(run):
    code, _, _ = run(["knit", "--quiver", "cube:4", "--vertex", "J1", "--kmax", "1"])
    assert code == 4
    code, _, _ = run(["diamond", "--n", "1", "--vertex", "0,0", "--field", "p:4"])
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
