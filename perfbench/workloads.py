"""The four benchmark workloads: seeded inputs, job execution and answer checks.

A workload is a list of passes.  Every pass holds the same job classes in
the same multiplicities; the seed picks only what does not change a job's
cost (translated bases, anchors, primes, request vertices) and the order
inside a pass.  A run executes whole passes, so every run sees
the same mix of job sizes whatever its seed, and the median and tail
latencies each fall inside one job class instead of on the edge between
two.  The multiplicities are chosen for that, against the costs measured
on meshknit 0.1.0.

Each job is a small JSON-able dict.  ``execute`` runs it against the
package and returns the raw outputs; ``check`` compares them with
closed-form expectations from the paper (or, for ``cli-knit``, with exit
codes and artifact digests recorded from meshknit 0.1.0) and returns an
error string, or None when the answer is right.  Checking happens outside
the timed part of a job.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from math import comb

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
CLI_REFERENCE = os.path.join(DATA_DIR, "cli_reference.json")

# More passes than any run at today's speed gets through; a run that
# exhausts them stops early rather than repeat an input.
MAX_PASSES = 40
# Passes every run makes, whatever its length: 15 to 20 s of work on
# meshknit 0.1.0.  Tail latency and peak memory are read over these passes
# only, so they measure the same work on every commit.  Keep these fixed.
FIXED_PASSES = {"sign-sweep": 3, "diamond-center": 3, "oracle-crosscheck": 2, "cli-knit": 3}

# Inputs live in a small box around the origin so the windows below hold
# every vertex a computation touches.
BOX = 8

SIGN_WINDOW = 18
DIAMOND_WINDOW = 10
# Dense path-sign checks handle at most this many parallel paths; larger
# path spaces go through the flip-graph certificate.
DENSE_LIMIT = 120
# Primes below 2**15 keep products of residues in one machine digit.
PRIME_RANGE = (101, 32768)

WORKLOADS = ("sign-sweep", "diamond-center", "oracle-crosscheck", "cli-knit")


def _vertex_pair(rng: random.Random, box: int = BOX) -> tuple[int, int]:
    """A random dihedral vertex (i, j) with i = j (mod 2) and |i|, |j| <= box."""
    i = rng.randint(-box, box)
    j = rng.randrange(-box + ((i + box) % 2), box + 1, 2)
    return i, j


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------

# sign-sweep: (a, b) is the difference class (2a, 2b); it has C(a+b, a)
# parallel paths.  Per pass: two heavy checks sit above the tail, a
# 120-path dense check (the two orientations take turns; they cost alike)
# and the 12 870-path certificate (8, 8); five 70-path dense checks form
# the tail class; twenty 20-path dense checks (3, 3) hold the median; the
# rest of the acceptance sweep's classes with 2 to 45 paths and the
# 3432-path certificate (7, 7) fill the pass.  Every pass costs the same.
_SIGN_DENSE_HEAVY = ((3, 7), (7, 3))
_SIGN_FIXED = [(8, 8), (7, 7)] + [(4, 4)] * 5 + [(3, 3)] * 20
_SIGN_LIGHT = [
    (a, b)
    for a in range(1, 9)
    for b in range(1, 9)
    if 2 <= comb(a + b, a) <= 45 and (a, b) != (3, 3)
]


def _sign_sweep(rng: random.Random, index: int) -> list[dict]:
    classes = [_SIGN_DENSE_HEAVY[index % 2]] + _SIGN_FIXED + _SIGN_LIGHT
    jobs = []
    for a, b in classes:
        i, j = _vertex_pair(rng)
        jobs.append({"kind": "sign", "a": a, "b": b, "base": [i, j]})
    return jobs


# diamond-center: per pass one n=3 cokernel sits above the tail, eight n=2
# cokernels form the tail class and eight n=1 cokernels hold the median;
# the center jobs on the shared mu elements fill the pass.
def _diamond_center(rng: random.Random, index: int) -> list[dict]:
    jobs = []
    # The n=3 anchor alternates parity by pass so both components cost alike.
    i, j = _vertex_pair(rng, BOX - 1)
    if i % 2 != index % 2:
        i, j = i + 1, j + 1
    jobs.append({"kind": "diamond", "n": 3, "anchor": [i, j]})
    for n, count in ((2, 8), (1, 8)):
        for _ in range(count):
            jobs.append({"kind": "diamond", "n": n, "anchor": list(_vertex_pair(rng))})
    for n in (1, 2):
        jobs.append({"kind": "support", "n": n, "window": 2 * n + 2})
        jobs.append({"kind": "propagation", "n": n, "window": 2 * n + 2})
        for _ in range(2):
            jobs.append({"kind": "factor", "n": n, "vertex": list(_vertex_pair(rng))})
    return jobs


def _primes(lo: int, hi: int) -> list[int]:
    sieve = bytearray([1]) * hi
    sieve[0:2] = b"\x00\x00"
    for p in range(2, int(hi ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, hi, p)))
    return [p for p in range(lo, hi) if sieve[p]]


# oracle-crosscheck: (n, jobs per pass).  n=9 and n=8 sit above the tail;
# n=7 is the tail class, and over the two fixed passes the tail falls in
# its middle.  The eleven n=4 jobs put the median in the middle of the
# n=5 class.  A pass takes about 7 s on meshknit 0.1.0.  The matrix-model
# contexts a run keeps, and with them its peak memory, grow with the
# number of passes.
_ORACLE_MIX = ((9, 1), (8, 1), (7, 6), (6, 3), (5, 8), (4, 11))


def _oracle_passes(rng: random.Random, passes: int) -> list[list[dict]]:
    pool = _primes(*PRIME_RANGE)
    # Distinct primes per n across the whole manifest: no (n, field) pair
    # repeats, so every job builds its matrix-model context cold.
    picks = {n: iter(rng.sample(pool, count * passes)) for n, count in _ORACLE_MIX}
    sizes = [n for n, count in _ORACLE_MIX for _ in range(count)]
    return [
        [{"kind": "oracle", "n": n, "p": next(picks[n])} for n in sizes]
        for _ in range(passes)
    ]


# cli-knit request classes.  Every request this can draw is in the
# reference file, with the exit code and artifact digest of meshknit 0.1.0.
CLI_BOX = 2
CLI_TUBES = range(3, 10)
CLI_TUBE_KMAX = range(4, 41, 4)
CLI_SMALL_KMAX = tuple(range(2, 13))
CLI_MEDIUM_KMAX = (16, 19, 21, 24)
CLI_LARGE_KMAX = (40,)
CLI_SIGN_STEPS = [(a, b) for a in range(0, 4) for b in range(0, 4) if 1 <= a + b <= 4]
# (request class, the cost-setting parameter of each request in a pass).
# Every pass draws the same parameters; the seed assigns them to vertices
# and formats and orders the pass.  Large dihedral knits are the tail class.
# Besides these, every pass sends one `oracle` request per n in
# CLI_ORACLE_N, all over the pass's own prime field, so no (n, field) pair
# repeats within a run and every oracle request builds a cold
# matrix-model context, as a fresh `meshknit oracle` process does.
CLI_ORACLE_N = (3, 4, 5)
CLI_ORACLE_PRIMES = tuple(_primes(7, 1000)[:MAX_PASSES])
_CLI_MIX = (
    ("knit-large", CLI_LARGE_KMAX * 3),
    ("diamond", (2, 2, 1, 1, 1, 1)),
    ("knit-medium", CLI_MEDIUM_KMAX),
    ("center", ((), ("--report",))),
    ("knit-small", CLI_SMALL_KMAX + CLI_SMALL_KMAX[:9]),
    ("knit-tube", tuple(CLI_TUBES) * 6),
    ("signcheck", tuple(CLI_SIGN_STEPS)),
)


def _dihedral_vertex_text(rng: random.Random) -> str:
    i, j = _vertex_pair(rng, CLI_BOX)
    return f"{i},{j}"


def cli_request_pool() -> list[list[str]]:
    """Every argv a cli-knit pass can draw, in a fixed order."""
    pool = []
    box = [
        f"{i},{j}"
        for i in range(-CLI_BOX, CLI_BOX + 1)
        for j in range(-CLI_BOX, CLI_BOX + 1)
        if (i - j) % 2 == 0
    ]
    for fmt in ("tsv", "json"):
        for n in CLI_TUBES:
            for i in range(1, n):
                for k in CLI_TUBE_KMAX:
                    pool.append(_knit_argv(f"tube:{n}", f"J{i}", k, fmt))
        for v in box:
            for k in CLI_SMALL_KMAX + CLI_MEDIUM_KMAX + CLI_LARGE_KMAX:
                pool.append(_knit_argv("dihedral", v, k, fmt))
            for n in (1, 2):
                pool.append(_diamond_argv(n, v, fmt))
    for v in box:
        i, j = (int(c) for c in v.split(","))
        for a, b in CLI_SIGN_STEPS:
            pool.append(_sign_argv(f"{i + 2 * a},{j + 2 * b}", v))
    pool.append(["center", "--mu", "1"])
    pool.append(["center", "--mu", "1", "--report"])
    for p in CLI_ORACLE_PRIMES:
        for n in CLI_ORACLE_N:
            pool.append(_oracle_argv(n, p))
    return pool


def _knit_argv(quiver: str, vertex: str, k: int, fmt: str) -> list[str]:
    return ["knit", "--quiver", quiver, f"--vertex={vertex}", "--kmax", str(k), "--format", fmt]


def _diamond_argv(n: int, vertex: str, fmt: str) -> list[str]:
    return ["diamond", "--n", str(n), f"--vertex={vertex}", "--format", fmt]


def _oracle_argv(n: int, p: int) -> list[str]:
    return ["oracle", "--n", str(n), "--field", f"p:{p}"]


def _sign_argv(source: str, target: str) -> list[str]:
    return ["signcheck", "--quiver", "dihedral", f"--source={source}", f"--target={target}"]


def _cli_request(rng: random.Random, cls: str, param, fmt: str) -> list[str]:
    if cls == "knit-tube":
        return _knit_argv(f"tube:{param}", f"J{rng.randint(1, param - 1)}", rng.choice(CLI_TUBE_KMAX), fmt)
    if cls.startswith("knit-"):
        return _knit_argv("dihedral", _dihedral_vertex_text(rng), param, fmt)
    if cls == "diamond":
        return _diamond_argv(param, _dihedral_vertex_text(rng), fmt)
    if cls == "center":
        return ["center", "--mu", "1", *param]
    i, j = _vertex_pair(rng, CLI_BOX)
    a, b = param
    return _sign_argv(f"{i + 2 * a},{j + 2 * b}", f"{i},{j}")


def _cli_knit(rng: random.Random, index: int) -> list[dict]:
    jobs = []
    for cls, params in _CLI_MIX:
        # Each parameter once per format, so every pass writes the same
        # TSV/JSON mix.
        for slot, param in enumerate(params * 2):
            fmt = ("tsv", "json")[slot % 2]
            label = f"diamond-{param}" if cls == "diamond" else cls
            jobs.append({"kind": "cli", "class": label, "argv": _cli_request(rng, cls, param, fmt)})
    p = CLI_ORACLE_PRIMES[index]
    for n in CLI_ORACLE_N:
        jobs.append({"kind": "cli", "class": f"oracle-{n}", "n": n, "p": p, "argv": _oracle_argv(n, p)})
    return jobs


_PASS_BUILDERS = {
    "sign-sweep": _sign_sweep,
    "diamond-center": _diamond_center,
    "cli-knit": _cli_knit,
}


def generate(workload: str, seed: int, passes: int = MAX_PASSES) -> list[list[dict]]:
    """The seeded manifest: ``passes`` passes of jobs, each pass shuffled."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "oracle-crosscheck":
        manifest = _oracle_passes(rng, passes)
    else:
        build = _PASS_BUILDERS[workload]
        manifest = [build(rng, index) for index in range(passes)]
    for jobs in manifest:
        rng.shuffle(jobs)
    return manifest


def manifest_hash(manifest: list[list[dict]]) -> str:
    text = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def job_class(job: dict) -> str:
    """The cost class a job belongs to (what the pass mix is made of)."""
    kind = job["kind"]
    if kind == "sign":
        return f"sign-{job['a']}x{job['b']}"
    if kind == "cli":
        return f"cli-{job['class']}"
    return f"{kind}-n{job['n']}"


def input_properties(workload: str, passes: list[list[dict]]) -> dict:
    """Input properties the layers' behaviour depends on, over the given passes."""
    jobs = [job for p in passes for job in p]
    sizes: dict[str, int] = {}
    for job in jobs:
        key = job_class(job)
        sizes[key] = sizes.get(key, 0) + 1
    props = {
        "jobs": len(jobs),
        "size_distribution": dict(sorted(sizes.items())),
        "fresh_quiver_share": 1.0 if workload in ("oracle-crosscheck", "cli-knit") else 0.0,
        "cold_contexts": 0,
        "dense_share": 0.0,
    }
    if workload == "sign-sweep":
        dense = sum(1 for job in jobs if comb(job["a"] + job["b"], job["a"]) <= DENSE_LIMIT)
        props["dense_share"] = dense / len(jobs)
    # Oracle jobs and cli oracle requests carry their (n, prime) pair.
    props["cold_contexts"] = len({(job["n"], job["p"]) for job in jobs if "p" in job})
    return props


# ---------------------------------------------------------------------------
# per-run state
# ---------------------------------------------------------------------------


class Session:
    """What the jobs of one run share: the imported package and its objects.

    sign-sweep and diamond-center jobs share one dihedral quiver, as a
    script or notebook would; diamond-center also shares one mu element
    per n, so its anchor tables warm up over the run.  oracle-crosscheck
    and cli-knit jobs build their own quivers.
    """

    def __init__(self, mk, workload: str, out_dir: str, reference: dict | None):
        self.mk = mk
        self.out_dir = out_dir
        self.reference = reference
        self.dihedral = (
            mk.quiver.build_dihedral_family(20)
            if workload in ("sign-sweep", "diamond-center")
            else None
        )
        self.elements: dict[int, object] = {}
        self._signs: dict[tuple[int, int], list[int]] = {}

    def element(self, n: int):
        e = self.elements.get(n)
        if e is None:
            e = self.elements[n] = self.mk.center.mu_element(self.dihedral, n)
        return e

    def expected_signs(self, a: int, b: int) -> list[int]:
        """Signs of the C(a+b, a) paths in enumeration order, in closed form.

        Paths are words in b gamma and a gamma_prime arrows, enumerated in
        lexicographic order (gamma first).  A mesh flip swaps one adjacent
        gamma/gamma_prime pair, so a path's sign relative to the first
        word gamma^b gamma_prime^a is (-1)^(inversions).
        """
        got = self._signs.get((a, b))
        if got is None:
            got = []

            def walk(rem_a: int, rem_b: int, primes_seen: int, inversions: int):
                if rem_a == rem_b == 0:
                    got.append(-1 if inversions % 2 else 1)
                    return
                if rem_b:
                    walk(rem_a, rem_b - 1, primes_seen, inversions + primes_seen)
                if rem_a:
                    walk(rem_a - 1, rem_b, primes_seen + 1, inversions)

            walk(a, b, 0, 0)
            self._signs[(a, b)] = got
        return got


def load_reference() -> dict:
    with open(CLI_REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["requests"]


def request_key(argv: list[str]) -> str:
    return " ".join(argv)


def artifact_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def execute(s: Session, job: dict):
    """Run one job against the package; returns the raw outputs."""
    mk = s.mk
    kind = job["kind"]
    if kind == "sign":
        q = s.dihedral
        i, j = job["base"]
        return mk.mesh.path_sign_check(
            q, q.vertex(i + 2 * job["a"], j + 2 * job["b"]), q.vertex(i, j), window=SIGN_WINDOW
        )
    if kind == "diamond":
        q = s.dihedral
        return mk.mesh.diamond_cokernel(q, q.vertex(*job["anchor"]), job["n"], window=DIAMOND_WINDOW)
    if kind == "support":
        return mk.center.support_report(s.element(job["n"]), job["window"])
    if kind == "propagation":
        return mk.center.check_propagation(s.dihedral, s.element(job["n"]), job["window"])
    if kind == "factor":
        return mk.center.factor_distance_ok(s.element(job["n"]), s.dihedral.vertex(*job["vertex"]))
    if kind == "oracle":
        return _oracle(mk, job["n"], mk.linalg.GF(job["p"]))
    if kind == "cli":
        out = os.path.join(s.out_dir, "artifact")
        return mk.cli.main(job["argv"] + ["--out", out])
    raise ValueError(f"unknown job kind {kind!r}")


def _oracle(mk, n: int, field) -> dict:
    jordan = mk.jordan
    tube = mk.quiver.build_tube(n)
    pairs = []
    for i in range(1, n):
        brute = jordan.radical_layers_bruteforce(jordan.indec(n, i), 2 * n, field)
        knit = mk.mesh.knit_layers(tube, tube.vertex(i), 2 * n, window=4)
        pairs.append((brute, knit))
    suites = {
        "serre": jordan.serre_duality_check(n, field),
        "socle": jordan.socle_suite(n, field),
        "simple-fp": jordan.simple_fp_suite(n, field),
    }
    ar = [jordan.ar_sequence(jordan.indec(n, i), field) for i in range(1, n)]
    solver = [
        jordan.single_object_support_solver(jordan.indec(n, i), r, field)
        for i in range(1, n)
        for r in range(4)
    ]
    return {"layers": pairs, "suites": suites, "ar": ar, "solver": solver}


# ---------------------------------------------------------------------------
# answer checks
# ---------------------------------------------------------------------------


def _grid(q, i: int, j: int, n: int) -> dict:
    return {q.vertex(i + 2 * a, j + 2 * b): 1 for a in range(n) for b in range(n)}


def check(s: Session, job: dict, result) -> str | None:
    """None when the job's output is right, else what is wrong with it."""
    kind = job["kind"]
    if kind == "sign":
        return _check_sign(s, job, result)
    if kind == "diamond":
        got = result.multiplicities()
        if got != _grid(s.dihedral, *job["anchor"], job["n"]):
            return f"diamond factors {len(got)} != n^2 grid"
        return None
    if kind == "support":
        q, n = s.dihedral, job["n"]
        window = q.window(job["window"])
        if result.element_support != window:
            return "support does not cover the window"
        for v, factors in result.per_vertex_hom_support.items():
            if factors != sorted(_grid(q, *v.coords, n)):
                return f"image factors at {v} are not the n^2 grid"
        return None
    if kind == "propagation":
        n = job["n"]
        if not (result.hypotheses_hold and result.conclusion):
            return "propagation hypotheses or conclusion fail"
        if set(result.hom_support_sizes.values()) != {n * n}:
            return "hom support sizes are not n^2"
        if result.applicable != (n >= 2):
            return "applicability disagrees with the min-two rule"
        return None
    if kind == "factor":
        return None if result is True else "factor distance bound fails"
    if kind == "oracle":
        return _check_oracle(result)
    if kind == "cli":
        return _check_cli(s, job, result)
    return f"unknown job kind {kind!r}"


def _check_sign(s: Session, job: dict, report) -> str | None:
    a, b = job["a"], job["b"]
    n = comb(a + b, a)
    if report.num_paths != n:
        return f"{report.num_paths} paths, expected C({a + b},{a}) = {n}"
    if report.method != ("dense" if n <= DENSE_LIMIT else "certificate"):
        return f"unexpected method {report.method}"
    if report.counterexamples or report.zero_paths:
        return "sign counterexamples or zero paths reported"
    if n > 1 and not report.connected:
        return "flip graph disconnected"
    if report.verified_pairs != n * (n - 1) // 2:
        return f"verified_pairs {report.verified_pairs} != n(n-1)/2"
    if report.method == "dense" and report.hom_dim != 1:
        return f"hom dim {report.hom_dim} != 1"
    if report.signs != s.expected_signs(a, b):
        return "signs differ from (-1)^inversions"
    return None


def _check_oracle(result: dict) -> str | None:
    for brute, knit in result["layers"]:
        for k in range(knit.valid_through + 1):
            if knit.row(k) != brute.row(k):
                return f"knit row {k} differs from brute force at {knit.target}"
        for k in range(knit.valid_through + 1, brute.k_max + 1):
            if brute.row(k):
                return f"brute-force layer {k} survives past valid_through at {knit.target}"
    for name, report in result["suites"].items():
        if not report.ok:
            return f"oracle suite {name} fails"
    if not all(seq.verified for seq in result["ar"]):
        return "almost split sequence fails a check"
    if not all(rep.matches_rule for rep in result["solver"]):
        return "single-object solver breaks the syzygy rule"
    return None


def _check_cli(s: Session, job: dict, code) -> str | None:
    key = request_key(job["argv"])
    expected = s.reference.get(key)
    if expected is None:
        return f"no reference for {key!r}"
    if code != expected["exit"]:
        return f"exit code {code}, expected {expected['exit']}"
    path = os.path.join(s.out_dir, "artifact")
    try:
        with open(path, "rb") as fh:
            digest = artifact_digest(fh.read())
    except FileNotFoundError:
        return "no artifact written"
    os.remove(path)
    if digest != expected["digest"]:
        return "artifact digest differs from the reference"
    return None
