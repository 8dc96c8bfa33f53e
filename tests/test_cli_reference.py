"""Replay every recorded CLI artifact: exit codes and digests.

``perfbench/data/cli_reference.json`` holds the exit code and the
sha256 prefix of the artifact of every request the cli-knit benchmark
can draw: knits on the tube and the dihedral family, diamonds, sign
checks, both ``center`` requests and the ``oracle`` requests at n = 3, 4
and 5 over forty primes.  This replays all of them through ``cli.main``
with ``--out``, so that byte drift in any command fails the test suite
and not only the benchmark.  The reference file is only read.
"""

import hashlib
import json
import os

import pytest

from meshknit import cli

REFERENCE = os.path.join(
    os.path.dirname(__file__), os.pardir, "perfbench", "data", "cli_reference.json"
)


def _requests():
    with open(REFERENCE, encoding="utf-8") as fh:
        recorded = json.load(fh)["requests"]
    return sorted(recorded.items())


REQUESTS = _requests()


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("artifacts")


def test_the_replayed_slice_covers_every_command():
    commands = {key.split(" ")[0] for key, _ in REQUESTS}
    assert commands == {"knit", "diamond", "center", "oracle", "signcheck"}
    assert len(REQUESTS) == 1446


@pytest.mark.parametrize("key,want", REQUESTS, ids=[key for key, _ in REQUESTS])
def test_artifact_matches_the_reference(key, want, out_dir, monkeypatch):
    monkeypatch.delenv("MESHKNIT_WINDOW", raising=False)
    out = out_dir / "artifact"
    code = cli.main(key.split(" ") + ["--out", str(out)])
    digest = hashlib.sha256(out.read_bytes()).hexdigest()[:16]
    assert (code, digest) == (want["exit"], want["digest"])
