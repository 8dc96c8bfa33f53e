"""Self-test of the benchmark: wrong answers must show up as failed jobs.

Each case runs a short pass with a deliberately broken answer injected
between the benchmark and the package, and checks that the broken jobs
are counted as failed while the run carries on.  A clean pass and a traced
pass are checked too: the traced pass's span tree must pass
``layertrace.check_spans``, and each of a few corrupted copies of it must
fail.  Run
from the repository root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layertrace  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402


def _light_pass(workload: str, kinds: set[str], limit: int) -> list[dict]:
    """A few cheap jobs of one pass: the self-test checks the gate, not speed."""
    jobs = workloads.generate(workload, seed=3, passes=1)[0]
    picked = [j for j in jobs if workloads.job_class(j) in kinds]
    return picked[:limit]


def _session(src: str, workload: str, out_dir: str):
    session, _ = bench.setup(src, workload, 3, out_dir)
    return session


def case_clean(src, out_dir):
    s = _session(src, "diamond-center", out_dir)
    jobs = _light_pass("diamond-center", {"diamond-n1", "factor-n1", "propagation-n1"}, 8)
    stats = bench.summarize(bench.run_passes(s, [jobs], 0, 1))
    return stats["failed"] == 0, stats


def case_wrong_sign(src, out_dir):
    s = _session(src, "sign-sweep", out_dir)
    real = s.mk.mesh.path_sign_check
    calls = [0]

    def flipped(*args, **kwargs):
        report = real(*args, **kwargs)
        calls[0] += 1
        if calls[0] % 2 and report.num_paths > 1:
            report.signs[-1] = -report.signs[-1]
        return report

    s.mk.mesh.path_sign_check = flipped
    jobs = _light_pass("sign-sweep", {"sign-1x1", "sign-1x2", "sign-2x1", "sign-2x2", "sign-1x3"}, 5)
    stats = bench.summarize(bench.run_passes(s, [jobs], 0, 1))
    return stats["failed"] == 3 and stats["attempted"] == 5, stats


def case_wrong_artifact(src, out_dir):
    s = _session(src, "cli-knit", out_dir)
    real = s.mk.cli.layer_table_tsv
    s.mk.cli.layer_table_tsv = lambda table, config: real(table, config).replace("\t1", "\t2", 1)
    jobs = _light_pass("cli-knit", {"cli-knit-tube", "cli-signcheck"}, 20)
    stats = bench.summarize(bench.run_passes(s, [jobs], 0, 1))
    tsv_knits = sum(
        1 for j in jobs if j["argv"][0] == "knit" and j["argv"][-1] == "tsv"
    )
    return 0 < tsv_knits == stats["failed"] < stats["attempted"], stats


def case_raises(src, out_dir):
    s = _session(src, "diamond-center", out_dir)

    def broken(*_args, **_kwargs):
        raise RuntimeError("injected")

    s.mk.center.factor_distance_ok = broken
    jobs = _light_pass("diamond-center", {"diamond-n1", "factor-n1", "factor-n2"}, 10)
    factors = sum(1 for j in jobs if j["kind"] == "factor")
    stats = bench.summarize(bench.run_passes(s, [jobs], 0, 1))
    return 0 < factors == stats["failed"] < stats["attempted"], stats


def _corruptions(tracer):
    """Copies of the span arrays, each broken in one way check_spans must see."""
    start, end, parent, job_of = tracer.start, tracer.end, tracer.parent, tracer.job_of
    child = next(i for i in range(len(start)) if parent[i] >= 0)
    other_job = next(i for i in range(len(start)) if job_of[i] != job_of[child])
    yield "child outlives parent", "end", child, end[parent[child]] + 1e-3
    yield "parent in another job", "parent", child, other_job
    yield "parent after child", "parent", child, len(start) - 1
    yield "orphan layer span", "parent", child, -1
    yield "job span shorter than its timer", "end", 0, start[0]


def case_trace_spans(src, out_dir):
    s = _session(src, "cli-knit", out_dir)
    tracer = layertrace.Tracer()
    layertrace.install(tracer)
    jobs = _light_pass("cli-knit", {"cli-knit-tube", "cli-diamond-1", "cli-center"}, 12)
    run = bench.run_passes(s, [jobs], 0, 1, tracer)
    stats = bench.summarize(run)
    job_latency = sum(run["latencies"])
    m = layertrace.layer_metrics(tracer, 1.0, 1.0)
    clean = layertrace.check_spans(tracer, job_latency)
    missed = []
    for label, field, index, value in _corruptions(tracer):
        arr = getattr(tracer, field)
        saved, arr[index] = arr[index], value
        if not layertrace.check_spans(tracer, job_latency):
            missed.append(label)
        arr[index] = saved
    for label in missed:
        print(f"     check_spans missed: {label}")
    ok = (
        stats["failed"] == 0
        and not clean
        and not missed
        and m["cli.requests"][0] == len(jobs)
        and m["serialize.bytes_out"][0] > 0
    )
    return ok, stats


CASES = (case_clean, case_wrong_sign, case_wrong_artifact, case_raises, case_trace_spans)


def main() -> int:
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "meshknit", "__init__.py")):
        print("selftest: run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    os.environ.pop("MESHKNIT_WINDOW", None)
    os.makedirs(bench.OUT_DIR, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="selftest-", dir=bench.OUT_DIR)
    failed = 0
    try:
        for case in CASES:
            ok, detail = case(src, out_dir)
            failed += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {case.__name__}: "
                  f"attempted={detail['attempted']} failed={detail['failed']}")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
