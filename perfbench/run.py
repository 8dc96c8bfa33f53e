"""meshknit benchmark: one seeded workload, closed loop, every answer checked.

Run from the repository root:

    python3 perfbench/run.py --workload sign-sweep --seed 1 --seconds 55 --trace 0

One client in one process sends the next job only after the previous one
finished (a closed loop).  The package is pure Python, single threaded
and CPU bound, so jobs never queue or wait on anything; there is no
arrival rate to sweep, and the loop measures work completed per second at
the workload's stated input sizes instead.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` makes only
the workload's fixed passes untraced, then imports the package afresh,
wraps every layer (see layertrace.py) and replays the same passes; it
prints the per-layer metrics and writes the span dump.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layertrace  # noqa: E402
import workloads  # noqa: E402

# Timed set-ups per probe.  A run probes set-up before its first pass and
# after every pass, so the median set-up time spans the whole run, as the
# job figures do, and not only its first seconds.
SETUPS_PER_PROBE = 2
OUT_DIR = ".perfbench-out"
# Tail latency is read at the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10


class Package:
    """The freshly imported meshknit modules, by layer name."""

    def __init__(self, src: str):
        package = layertrace.PACKAGE
        for name in [m for m in sys.modules if m == package or m.startswith(package + ".")]:
            del sys.modules[name]
        root = importlib.import_module(package)
        if not os.path.abspath(root.__file__).startswith(src + os.sep):
            raise SystemExit(f"perfbench: imported {package} from {root.__file__}, not {src}")
        for layer in layertrace.LAYERS:
            setattr(self, layer, importlib.import_module(f"{package}.{layer}"))


def setup(src: str, workload: str, seed: int, out_dir: str):
    """Import the package, build the quivers, generate inputs, load reference data."""
    mk = Package(src)
    manifest = workloads.generate(workload, seed)
    reference = workloads.load_reference() if workload == "cli-knit" else None
    session = workloads.Session(mk, workload, out_dir, reference)
    return session, manifest


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_passes(session, manifest, seconds: float, fixed: int, tracer=None, after_pass=None) -> dict:
    """Run whole passes: ``fixed`` of them, then more while they end within ``seconds``.

    The first ``fixed`` passes are the same work on every commit.  Peak
    memory grows with the work a run holds, so it is read when they end;
    the tail is read per block of ``fixed`` passes (see summarize).  A
    faster program that gets through more passes changes neither.
    ``after_pass`` runs after every pass but the last; its time is left
    out of the run's wall time.
    """
    latencies: list[float] = []
    classes: list[str] = []
    failures: list[str] = []
    # The benchmark's own objects (manifest, reference data, package
    # import) never become garbage; keep them out of the collector's scans.
    # Collections of what the jobs leave behind happen inside the jobs and
    # are timed with them.
    gc.collect()
    gc.freeze()
    t0 = perf_counter()
    paused = 0.0
    done = 0
    job_id = 0
    pass_ends: list[int] = []
    fixed_rss_mb = 0.0
    for jobs in manifest:
        for job in jobs:
            if tracer is not None:
                tracer.begin_job(job_id)
            start = perf_counter()
            try:
                result = workloads.execute(session, job)
                error = None
            except Exception as exc:  # a job that raises counts as failed; the run goes on
                result, error = None, f"raised {type(exc).__name__}: {exc}"
            latency = perf_counter() - start
            if tracer is not None:
                tracer.end_job()
            if error is None:
                try:
                    error = workloads.check(session, job, result)
                except Exception as exc:  # a malformed answer the checks cannot read
                    error = f"check raised {type(exc).__name__}: {exc}"
            if error is not None:
                failures.append(f"{workloads.job_class(job)} {json.dumps(job)}: {error}")
            latencies.append(latency)
            classes.append(workloads.job_class(job))
            job_id += 1
        done += 1
        pass_ends.append(len(latencies))
        if done == fixed:
            fixed_rss_mb = peak_rss_mb()
        # Start another pass only if, at the mean pass time so far, it
        # ends within ``seconds``.
        elapsed = perf_counter() - t0 - paused
        if done >= fixed and elapsed * (done + 1) / done > seconds:
            break
        if after_pass is not None:
            t = perf_counter()
            after_pass()
            paused += perf_counter() - t
    wall_s = perf_counter() - t0 - paused
    gc.unfreeze()
    if done < fixed:
        raise SystemExit(f"perfbench: the manifest holds {done} passes, fewer than {fixed}")
    return {
        "latencies": latencies,
        "classes": classes,
        "failures": failures,
        "passes": done,
        "wall_s": wall_s,
        "fixed_passes": fixed,
        "pass_ends": pass_ends,
        "fixed_rss_mb": fixed_rss_mb,
    }


def class_latencies(run: dict) -> dict:
    """Median latency (ms) and job count of each job class."""
    by_class: dict[str, list[float]] = {}
    for cls, latency in zip(run["classes"], run["latencies"]):
        by_class.setdefault(cls, []).append(latency)
    return {
        cls: {"jobs": len(lat), "p50_ms": round(1000 * statistics.median(lat), 3)}
        for cls, lat in sorted(by_class.items())
    }


def summarize(run: dict) -> dict:
    """Throughput over the whole run; the median per pass, the tail per block.

    Every pass holds the same job mix, so every pass's median latency
    reads the same job class.  The run reports the mean of these medians.
    On a shared host the CPU speed can drift in spells of seconds (see
    README.md); the mean follows its average over the run, where the
    median of all the run's jobs jumps between its fast and slow speeds.

    For the tail, the run's passes are cut into blocks of the fixed pass
    count, the same work each.  A block's tail is its latency at the
    highest percentile with TAIL_BEYOND samples beyond it; the run reports
    the mean over its whole blocks, so the tail spans the run but its rank
    does not depend on how many passes the run got through.
    """
    lat = run["latencies"]
    attempted = len(lat)
    failed = len(run["failures"])
    size = run["fixed_passes"]
    ends = [0] + run["pass_ends"]
    pass_p50 = [statistics.median(lat[a:b]) for a, b in zip(ends, ends[1:])]
    blocks = [sorted(lat[ends[b] : ends[b + size]]) for b in range(0, len(ends) - size, size)]
    tail_index = max(len(blocks[0]) - TAIL_BEYOND - 1, 0)
    return {
        "attempted": attempted,
        "failed": failed,
        "jobs_per_s": (attempted - failed) / run["wall_s"],
        "job_p50_ms": 1000 * statistics.fmean(pass_p50),
        "job_tail_ms": 1000 * statistics.fmean(block[tail_index] for block in blocks),
        "tail_percentile": 100 * (tail_index + 1) / len(blocks[0]),
        "tail_block_jobs": len(blocks[0]),
        "tail_blocks": len(blocks),
    }


def loadavg() -> list[float] | None:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except OSError:
        return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setups", type=int, default=0,
                        help="only time this many set-ups, after an untimed one, and print "
                             "their times as a JSON list (the run's set-up probe)")
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "meshknit", "__init__.py")):
        print(f"perfbench: no meshknit sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    # The window default must not come from the caller's environment.
    os.environ.pop("MESHKNIT_WINDOW", None)
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        if args.setups:
            print(json.dumps(_timed_setups(args, src, scratch, args.setups)))
            return 0
        return _run(args, src, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _timed_setups(args, src: str, scratch: str, count: int) -> list[float]:
    """Set up once untimed (the interpreter's own imports), then ``count`` times timed."""
    setup(src, args.workload, args.seed, scratch)
    times = []
    for _ in range(count):
        # The previous set-up's package and manifest are garbage now;
        # they are not part of this set-up's cost.
        gc.collect()
        t = perf_counter()
        setup(src, args.workload, args.seed, scratch)
        times.append(perf_counter() - t)
    return times


def setup_probe(args) -> list[float]:
    """Set-up times measured in a child process, so that the running
    benchmark keeps its own heap, caches and garbage as they are."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setups", str(SETUPS_PER_PROBE)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def _run(args, src: str, scratch: str) -> int:
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg_start": loadavg(),
    }
    session, manifest = setup(src, args.workload, args.seed, scratch)
    digest = workloads.manifest_hash(manifest)
    fixed = workloads.FIXED_PASSES[args.workload]
    setup_times: list[float] = []
    if args.trace:
        # A traced run compares like with like: the fixed passes untraced,
        # then the same passes traced.  It reports no set-up time.
        run = run_passes(session, manifest, 0, fixed)
    else:
        setup_times += setup_probe(args)
        run = run_passes(session, manifest, args.seconds, fixed,
                         after_pass=lambda: setup_times.extend(setup_probe(args)))
        setup_times += setup_probe(args)
    stats = summarize(run)
    failures = list(run["failures"])
    attempted, failed = stats["attempted"], stats["failed"]

    if args.trace:
        session, manifest = setup(src, args.workload, args.seed, scratch)
        tracer = layertrace.Tracer()
        wrapped = layertrace.install(tracer)
        traced = run_passes(session, manifest, 0, run["passes"], tracer)
        traced_stats = summarize(traced)
        failures += traced["failures"]
        attempted += traced_stats["attempted"]
        failed += traced_stats["failed"]
        metrics = layertrace.layer_metrics(tracer, stats["jobs_per_s"], traced_stats["jobs_per_s"])
        problems = layertrace.check_spans(tracer, sum(traced["latencies"]))
        failures += [f"trace: {p}" for p in problems]
        failed += len(problems)
        dump = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.tsv.gz")
        tracer.dump(dump)
        print(f"traced {traced['passes']} passes, {wrapped} wrapped callables, "
              f"{len(tracer.start)} spans -> {dump}")
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "jobs_per_s": (stats["jobs_per_s"], "1/s"),
            "job_p50_ms": (stats["job_p50_ms"], "ms"),
            "job_tail_ms": (stats["job_tail_ms"], "ms"),
            "peak_rss_mb": (run["fixed_rss_mb"], "MB"),
            "correct_ratio": ((attempted - failed) / attempted, "ratio"),
        }

    env["loadavg_end"] = loadavg()
    loads = [avg[0] for avg in (env["loadavg_start"], env["loadavg_end"]) if avg]
    env["busy"] = any(load > env["nproc"] for load in loads)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "manifest_sha256": digest,
        "passes": run["passes"],
        "fixed_passes": run["fixed_passes"],
        "jobs": stats["attempted"],
        "run_wall_s": run["wall_s"],
        "tail_percentile": round(stats["tail_percentile"], 3),
        "tail_block_jobs": stats["tail_block_jobs"],
        "tail_blocks": stats["tail_blocks"],
        "failed_ratio": failed / attempted,
        "setup_runs_s": setup_times,
        "class_latency": class_latencies(run),
        "inputs": workloads.input_properties(args.workload, manifest[: run["passes"]]),
        "environment": env,
    }
    for line in failures[:20]:
        print(f"FAILED {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    if not args.trace:
        print(f"job_p50_ms is the mean over {info['passes']} passes of the pass's median; "
              f"job_tail_ms is the mean over {info['tail_blocks']} blocks of "
              f"{info['fixed_passes']} passes of p{info['tail_percentile']} of the block's "
              f"{info['tail_block_jobs']} jobs")
    print("info " + json.dumps(info, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
