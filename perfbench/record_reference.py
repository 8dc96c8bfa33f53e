"""Record exit codes and artifact digests for every cli-knit request.

The cli-knit workload checks each request against this file.  It was
recorded from meshknit 0.1.0; re-record it only when an artifact format
change is intended, and say so in the change.  Run from the repository
root:

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    os.environ.pop("MESHKNIT_WINDOW", None)
    from meshknit import __version__, cli

    out_dir = tempfile.mkdtemp(prefix="record-", dir=".")
    out = os.path.join(out_dir, "artifact")
    requests = {}
    try:
        for argv in workloads.cli_request_pool():
            code = cli.main(argv + ["--out", out])
            with open(out, "rb") as fh:
                digest = workloads.artifact_digest(fh.read())
            os.remove(out)
            requests[workloads.request_key(argv)] = {"exit": code, "digest": digest}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    payload = {"meshknit_version": __version__, "digest": "sha256, first 16 hex digits", "requests": requests}
    os.makedirs(workloads.DATA_DIR, exist_ok=True)
    with open(workloads.CLI_REFERENCE, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(requests)} requests -> {workloads.CLI_REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
