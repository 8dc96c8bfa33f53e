"""Replay a slice of the recorded CLI artifacts: exit codes and digests.

``perfbench/data/cli_reference.json`` holds the exit code and the
sha256 prefix of the artifact of every request the cli-knit benchmark
can draw.  This replays, through ``cli.main`` with ``--out``, every
request at the vertex or target ``0,0``, every dihedral knit and diamond
at ``1,-1`` (on the odd parity component), every ``tube:5`` knit, both
``center`` requests, every ``oracle`` request at n = 3 and 4 (all forty
primes) and the three at n = 5 over ``p:7``, ``p:13`` and ``p:191`` (the
last with 192 lines per two-dimensional stable Hom space), so that byte drift
in any command fails the test suite and not only the benchmark.  The
reference file is only read.
"""

import hashlib
import json
import os

import pytest

from meshknit import cli

REFERENCE = os.path.join(
    os.path.dirname(__file__), os.pardir, "perfbench", "data", "cli_reference.json"
)


def _replayed(argv):
    return (
        "--vertex=0,0" in argv
        or "--vertex=1,-1" in argv
        or "--target=0,0" in argv
        or (argv[0] == "knit" and "tube:5" in argv)
        or argv[0] == "center"
        or (argv[0] == "oracle" and (argv[2] in ("3", "4") or argv[-1] in ("p:7", "p:13", "p:191")))
    )


def _requests():
    with open(REFERENCE, encoding="utf-8") as fh:
        recorded = json.load(fh)["requests"]
    return [(key, want) for key, want in sorted(recorded.items()) if _replayed(key.split(" "))]


REQUESTS = _requests()


def test_the_replayed_slice_covers_every_command():
    commands = {key.split(" ")[0] for key, _ in REQUESTS}
    assert commands == {"knit", "diamond", "center", "oracle", "signcheck"}
    assert len(REQUESTS) == 249


@pytest.mark.parametrize("key,want", REQUESTS, ids=[key for key, _ in REQUESTS])
def test_artifact_matches_the_reference(key, want, tmp_path, monkeypatch):
    monkeypatch.delenv("MESHKNIT_WINDOW", raising=False)
    out = tmp_path / "artifact"
    code = cli.main(key.split(" ") + ["--out", str(out)])
    digest = hashlib.sha256(out.read_bytes()).hexdigest()[:16]
    assert (code, digest) == (want["exit"], want["digest"])
