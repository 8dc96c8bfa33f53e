"""Span tracing of the meshknit layers, installed from outside the package.

``install`` wraps the public functions and methods of each package module
(its layer): methods are patched on the class that defines them, module
functions in every ``meshknit`` namespace that holds them by name (for
example ``kernel_basis`` inside ``jordan``).  Each call made inside a job
records a span: name, start, end, parent span and job id, kept in flat
arrays and written out once the run ends.  A few very hot calls are only
counted, not spanned, to keep the overhead down; their time lands in the
self time of the span that called them.

A layer's self time is the summed duration of its spans minus the part
covered by their child spans.  The job span itself is the ``other``
bucket: job time no layer span covers.  Layer self times plus ``other``
therefore add up to the traced job time, provided the spans nest:
``check_spans`` tests that they do.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from array import array
from time import perf_counter

PACKAGE = "meshknit"
LAYERS = ("quiver", "mesh", "linalg", "jordan", "center", "serialize", "cli")

# Methods of private classes that are still a layer boundary.
EXTRA_CLASSES = {"jordan": ("_Context",)}
# Pure field arithmetic, called millions of times per job.
SKIP_CLASSES = {"linalg": ("Field",)}
# Called per vertex or per path in the inner loops: counted, not spanned.
COUNT_ONLY = {
    "quiver": ("validate", "in_window", "vertex"),
    "mesh": ("path_vertices", "path_word", "entry"),
    "linalg": ("entry", "row", "transpose"),
    "jordan": ("indec", "check_module"),
    "serialize": ("vertex_str",),
}


class Tracer:
    """Spans and counters of one traced run, kept in memory until the end."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job_of = array("i")
        self.stack = [-1]
        self.job = -1
        self.counts: dict[str, float] = {}
        self.job_span = self._intern("job", "other")

    def _intern(self, name: str, layer: str) -> int:
        got = self._name_ids.get(name)
        if got is None:
            got = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return got

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def parent_name(self) -> str | None:
        idx = self.stack[-1]
        return self.names[self.name_id[idx]] if idx >= 0 else None

    # -- jobs ------------------------------------------------------------
    def begin_job(self, job: int) -> None:
        self.job = job
        idx = len(self.start)
        self.name_id.append(self.job_span)
        self.parent.append(-1)
        self.job_of.append(job)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())

    def end_job(self) -> None:
        self.end[self.stack.pop()] = perf_counter()
        self.job = -1

    # -- wrappers ----------------------------------------------------------
    def span_wrapper(self, fn, name: str, layer: str, after=None):
        nid = self._intern(name, layer)
        calls_key = f"calls.{name}"
        stack, name_id, start, end, parent, job_of = (
            self.stack, self.name_id, self.start, self.end, self.parent, self.job_of
        )
        counts = self.counts
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.job < 0:
                return fn(*args, **kwargs)
            counts[calls_key] = counts.get(calls_key, 0) + 1
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            job_of.append(tracer.job)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(tracer, result)
            return result

        return wrapper

    def count_wrapper(self, fn, name: str, after=None):
        calls_key = f"calls.{name}"
        counts = self.counts
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.job < 0:
                return fn(*args, **kwargs)
            counts[calls_key] = counts.get(calls_key, 0) + 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(tracer, result)
            return result

        return wrapper

    # -- results -----------------------------------------------------------
    def self_times(self) -> tuple[dict[str, float], float]:
        """Self time per layer (``other`` included) and total job time."""
        n = len(self.start)
        start, end, parent = self.start, self.end, self.parent
        covered = array("d", bytes(8 * n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        layers = {layer: 0.0 for layer in LAYERS + ("other",)}
        job_time = 0.0
        layer_of, name_id = self.layer_of, self.name_id
        for i in range(n):
            dur = end[i] - start[i]
            layers[layer_of[name_id[i]]] += dur - covered[i]
            if parent[i] < 0:
                job_time += dur
        return layers, job_time

    def dump(self, path: str) -> None:
        """Write every span as one TSV line (gzip): id, name, start, end, parent, job."""
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as fh:
            fh.write("span\tname\tstart\tend\tparent\tjob\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{names[self.name_id[i]]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.job_of[i]}\n"
                )


# -- counters measured at the layer boundaries ------------------------------

def _after_insert(tracer: Tracer, grew) -> None:
    if grew:
        tracer.count("linalg.insert_useful")


def _after_kernel_basis(tracer: Tracer, _result) -> None:
    if tracer.parent_name() == "jordan._Context.hom_basis":
        tracer.count("jordan.hom_basis_kernel")


def _after_enumerate(tracer: Tracer, paths) -> None:
    tracer.count("mesh.paths", len(paths))


def _after_sign_check(tracer: Tracer, report) -> None:
    if report.method != "vacuous":
        tracer.count("mesh.sign_checks")
        if report.method == "dense":
            tracer.count("mesh.dense_checks")
    tracer.count("mesh.verified_pairs", report.verified_pairs)


def _after_cokernel(tracer: Tracer, _table) -> None:
    parent = tracer.parent_name()
    if parent is not None and parent.startswith("center.") and parent.endswith(".image_table"):
        tracer.count("center.image_table_cokernels")


def _after_text(tracer: Tracer, text) -> None:
    tracer.count("serialize.bytes_out", len(text))


def _after_main(tracer: Tracer, code) -> None:
    if code != 0:
        tracer.count("cli.nonzero_exits")


AFTER = {
    "linalg.Subspace.insert": _after_insert,
    "linalg.kernel_basis": _after_kernel_basis,
    "mesh._enumerate_paths": _after_enumerate,
    "mesh.path_sign_check": _after_sign_check,
    "mesh.diamond_cokernel": _after_cokernel,
    "serialize.canonical_json": _after_text,
    "serialize.layer_table_tsv": _after_text,
    "cli.main": _after_main,
}
# Private helpers wrapped only to count what passes through them.
PRIVATE_COUNTERS = {"mesh": ("_enumerate_paths",)}


def install(tracer: Tracer) -> int:
    """Wrap every layer of the imported package; returns the number of wrappers."""
    replaced: dict[int, tuple[object, object]] = {}
    for layer in LAYERS:
        mod = sys.modules[f"{PACKAGE}.{layer}"]
        hot = COUNT_ONLY.get(layer, ())
        for attr, obj in list(vars(mod).items()):
            if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            if attr in PRIVATE_COUNTERS.get(layer, ()) or attr in hot:
                wrapper = tracer.count_wrapper(obj, name, AFTER.get(name))
            elif attr.startswith("_"):
                continue
            else:
                wrapper = tracer.span_wrapper(obj, name, layer, AFTER.get(name))
            replaced[id(obj)] = (obj, wrapper)
        for attr, cls in list(vars(mod).items()):
            if not inspect.isclass(cls) or cls.__module__ != mod.__name__:
                continue
            if attr in SKIP_CLASSES.get(layer, ()) or issubclass(cls, BaseException):
                continue
            if attr.startswith("_") and attr not in EXTRA_CLASSES.get(layer, ()):
                continue
            for meth, fn in list(vars(cls).items()):
                if meth.startswith("_") or not inspect.isfunction(fn):
                    continue
                name = f"{layer}.{attr}.{meth}"
                if meth in hot:
                    wrapper = tracer.count_wrapper(fn, name, AFTER.get(name))
                else:
                    wrapper = tracer.span_wrapper(fn, name, layer, AFTER.get(name))
                setattr(cls, meth, wrapper)
                replaced[id(fn)] = (fn, wrapper)
    for modname, mod in list(sys.modules.items()):
        if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    return len(replaced)


# Time a job span may hold beyond the job's own timer: two perf_counter
# calls and the tracer's bookkeeping around them.
JOB_SPAN_SLACK_S = 5e-4


def check_spans(tracer: Tracer, job_latency_s: float) -> list[str]:
    """What is wrong with the span tree, as a list of problems (empty if none).

    Every span must be closed, lie within its parent's [start, end], carry
    its parent's job id and come after its parent; only job spans may be
    roots.  The job spans must cover the jobs' own timed latency, plus at
    most a little bookkeeping per job.
    """
    problems: list[str] = []
    start, end, parent, job_of, name_id = (
        tracer.start, tracer.end, tracer.parent, tracer.job_of, tracer.name_id
    )
    job_span, names = tracer.job_span, tracer.names
    jobs = 0
    job_s = 0.0
    for i in range(len(start)):
        p = parent[i]
        if end[i] < start[i]:
            problems.append(f"span {i} ({names[name_id[i]]}) ends before it starts")
        elif p < 0:
            if name_id[i] != job_span:
                problems.append(f"span {i} ({names[name_id[i]]}) has no parent")
            jobs += 1
            job_s += end[i] - start[i]
        elif p >= i:
            problems.append(f"span {i} comes before its parent {p}")
        elif job_of[p] != job_of[i]:
            problems.append(f"span {i} is in job {job_of[i]}, its parent {p} in job {job_of[p]}")
        elif not start[p] <= start[i] <= end[i] <= end[p]:
            problems.append(f"span {i} ({names[name_id[i]]}) leaves its parent {p}")
        if len(problems) >= 20:
            break
    else:
        extra = job_s - job_latency_s
        if not -1e-9 <= extra <= JOB_SPAN_SLACK_S * jobs:
            problems.append(
                f"job spans last {job_s:.6f} s, the jobs' own timers {job_latency_s:.6f} s"
            )
    return problems


def layer_metrics(tracer: Tracer, untraced_jobs_per_s: float, traced_jobs_per_s: float) -> dict:
    """Every per-layer metric, by name, as (value, unit)."""
    layers, job_time = tracer.self_times()
    c = tracer.counts

    def calls(prefix: str) -> float:
        return sum(v for k, v in c.items() if k.startswith(f"calls.{prefix}."))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    inserts = c.get("calls.linalg.Subspace.insert", 0)
    hom_basis = c.get("calls.jordan._Context.hom_basis", 0)
    image_tables = sum(
        v for k, v in c.items() if k.startswith("calls.center.") and k.endswith(".image_table")
    )
    m = {f"{layer}.self_s": (layers[layer], "s") for layer in LAYERS}
    m.update(
        {
            "linalg.insert_calls": (inserts, "count"),
            "linalg.insert_useful_ratio": (ratio(c.get("linalg.insert_useful", 0), inserts), "ratio"),
            "linalg.residue_calls": (c.get("calls.linalg.Subspace.residue", 0), "count"),
            "linalg.matmul_calls": (c.get("calls.linalg.Matrix.mul", 0), "count"),
            "linalg.solve_calls": (
                c.get("calls.linalg.kernel_basis", 0) + c.get("calls.linalg.solve", 0),
                "count",
            ),
            "mesh.calls": (calls("mesh"), "count"),
            "mesh.paths": (c.get("mesh.paths", 0), "count"),
            "mesh.dense_share": (
                ratio(c.get("mesh.dense_checks", 0), c.get("mesh.sign_checks", 0)),
                "ratio",
            ),
            "mesh.verified_pairs": (c.get("mesh.verified_pairs", 0), "count"),
            "quiver.calls": (calls("quiver"), "count"),
            "jordan.calls": (calls("jordan"), "count"),
            "jordan.hom_basis_calls": (hom_basis, "count"),
            "jordan.hom_basis_miss_ratio": (
                ratio(c.get("jordan.hom_basis_kernel", 0), hom_basis),
                "ratio",
            ),
            "center.image_table_calls": (image_tables, "count"),
            "center.cokernels_per_image_table": (
                ratio(c.get("center.image_table_cokernels", 0), image_tables),
                "ratio",
            ),
            "serialize.bytes_out": (c.get("serialize.bytes_out", 0), "bytes"),
            "cli.requests": (c.get("calls.cli.main", 0), "count"),
            "cli.nonzero_exits": (c.get("cli.nonzero_exits", 0), "count"),
            "other.self_s": (layers["other"], "s"),
            "trace.job_s": (job_time, "s"),
            "trace.spans": (len(tracer.start), "count"),
            "trace.overhead_ratio": (ratio(untraced_jobs_per_s, traced_jobs_per_s), "ratio"),
        }
    )
    return m
