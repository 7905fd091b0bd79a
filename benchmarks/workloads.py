"""The four benchmark workloads: seeded inputs, one pass, reference checks.

Each workload builds its inputs from the seed in ``__init__`` (that is
part of set-up time), runs one pass in :meth:`run_pass` and checks the
pass's outputs in :meth:`check`, outside the timed region.  ``hcm`` only
ever sees the generated inputs.  Why each workload exists is recorded
in README.md next to this file.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.join(ROOT, "benchmarks")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SIZES = ("full", "tiny")


@dataclass
class PassOutput:
    """What one pass produced: item latencies plus outputs to check."""

    items_ms: list[float] = field(default_factory=list)
    outputs: list = field(default_factory=list)  # outputs[i] belongs to item i
    errors: dict[int, str] = field(default_factory=dict)  # item -> exception it raised
    layers: Optional[dict] = None  # per-layer summary gathered from traced children


def _timed(out: PassOutput, fn, *args, **kwargs):
    """Run one item, recording its latency; an exception counts as a failure."""
    t0 = time.perf_counter()
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # a failing operation is data, not a benchmark crash
        out.errors[len(out.items_ms)] = f"{type(exc).__name__}: {exc}"
        result = None
    out.items_ms.append((time.perf_counter() - t0) * 1e3)
    return result


def _checkable(out: PassOutput):
    """(item, output) pairs for items that did not raise."""
    return ((i, result) for i, result in enumerate(out.outputs) if i not in out.errors)


def dims_digest(chart) -> str:
    blob = json.dumps(sorted([s, t, d] for (s, t), d in chart.dims.items() if d))
    return hashlib.sha256(blob.encode()).hexdigest()


# -- resolve-sphere -------------------------------------------------------------


class ResolveSphere:
    """``minimal_resolution(sphere_module(50), 25, 50)`` then ``ext_chart``.

    The input does not depend on the seed: the sphere is one fixed
    problem, and the seed only stamps the result.
    """

    name = "resolve-sphere"
    spawns_cli = False
    # Pinned from the parent commit of the benchmark; the spot values are
    # the classical Ext_A(F_2, F_2) classes h0, h1, h0^2, h2 and criterion 8's.
    REFERENCE = {
        "full": {"range": (50, 25, 50), "generators": 241,
                 "digest": "71a54413203052051128fdfe568189f6f67ffa373c9c4adf40e53da2ed8fa47a",
                 "spots": {(4, 18): 1, (3, 20): 1, (1, 1): 1, (1, 2): 1, (2, 2): 1, (1, 4): 1}},
        "tiny": {"range": (12, 6, 12), "generators": 20,
                 "digest": "20d78b601e0e8dbb06815608263c104cff7d2fcd0d920185636ff0e538328007",
                 "spots": {(1, 1): 1, (1, 2): 1, (2, 2): 1, (1, 4): 1}},
    }

    def __init__(self, seed: int, size: str = "full"):
        from hcm import stmodule

        self.reference = self.REFERENCE[size]
        top, self.max_s, self.max_t = self.reference["range"]
        self.module = stmodule.sphere_module(top)

    def run_pass(self, traced: bool = False) -> PassOutput:
        from hcm import resolution

        out = PassOutput()

        def solve():
            res = resolution.minimal_resolution(self.module, self.max_s, self.max_t)
            return res.total_generators, resolution.ext_chart(res)

        out.outputs.append(_timed(out, solve))
        return out

    def check(self, out: PassOutput) -> list[tuple[int, str]]:
        bad = []
        for i, result in _checkable(out):
            generators, chart = result
            if generators != self.reference["generators"]:
                bad.append((i, f"total_generators {generators} != {self.reference['generators']}"))
            if dims_digest(chart) != self.reference["digest"]:
                bad.append((i, "chart dims digest differs from the pinned one"))
            for (s, t), want in self.reference["spots"].items():
                if chart.dim(s, t) != want:
                    bad.append((i, f"dim({s},{t}) = {chart.dim(s, t)} != {want}"))
        return bad


# -- bar-sweep --------------------------------------------------------------------


class BarSweep:
    """About 100 ``e1_page(n)`` queries per pass, n ≡ 0, 1, 4 mod 8 in [16, 4096].

    Three quarters of the queries ask a new n, drawn one per stratum of
    the range so that every seed gets the same mix of small and large n
    (page time grows with n).  The other quarter repeats an n asked
    earlier in the same pass and so hits the in-process chart cache.
    The cache is emptied before each pass, so every pass does the same
    work.
    """

    name = "bar-sweep"
    spawns_cli = False
    LIMITS = {"full": (16, 4096, 75, 25), "tiny": (16, 64, 6, 2)}

    # Groups at (s=1, 2n), (s=1, 2n+1), (s=2, 2n+1) by n mod 8, as
    # (free rank, torsion orders).  Extends criterion 5's rows for n = 16, 17, 20.
    TABLE = {
        0: ((1, ()), (0, (2, 2)), (0, (2,))),
        1: ((0, (2, 2)), (0, (2,)), (0, (4,))),
        4: ((1, ()), (0, (2, 2, 2)), (0, ())),
    }

    def __init__(self, seed: int, size: str = "full"):
        lo, hi, fresh, repeats = self.LIMITS[size]
        admissible = [n for n in range(lo, hi + 1) if n % 8 in (0, 1, 4)]
        rng = random.Random(seed)
        width = len(admissible) / fresh
        distinct = [admissible[int(k * width) + rng.randrange(max(1, int(width)))]
                    for k in range(fresh)]
        rng.shuffle(distinct)
        queries = list(distinct)
        for _ in range(repeats):
            # A repeat goes after its first asking, so it is a cache hit.
            pos = rng.randrange(1, len(queries) + 1)
            queries.insert(pos, rng.choice(queries[:pos]))
        self.queries = queries
        self.table = self.TABLE

    def run_pass(self, traced: bool = False) -> PassOutput:
        from hcm import barpage

        # Every pass starts with an empty chart cache; the Steenrod tables
        # stay warm, which is what separates a warm pass from the cold one.
        barpage._cache.clear()
        out = PassOutput()
        for n in self.queries:
            out.outputs.append(_timed(out, barpage.e1_page, n))
        return out

    def check(self, out: PassOutput) -> list[tuple[int, str]]:
        from hcm.groups import AbelianGroup

        bad = []
        for i, page in _checkable(out):
            n = self.queries[i]
            want = [AbelianGroup(free, torsion) for free, torsion in self.table[n % 8]]
            got = [page.group(1, 2 * n), page.group(1, 2 * n + 1), page.group(2, 2 * n + 1)]
            if page.n != n or got != want:
                bad.append((i, f"n={n}: page groups {[str(g) for g in got]} != "
                               f"{[str(g) for g in want]}"))
            top = page.entry(0, 2 * n)
            if len(top) != 1 or top[0].group is not None:
                bad.append((i, f"n={n}: filtration-0 entry is not the symbolic pi_2n(S)"))
        return bad


# -- linalg-dense -------------------------------------------------------------------


def _parity_product(rows, x: int) -> int:
    """m·x over GF(2), computed here rather than by the library."""
    out = 0
    for i, r in enumerate(rows):
        if (r & x).bit_count() & 1:
            out |= 1 << i
    return out


def _rank(rows) -> int:
    """Rank by high-bit elimination, independent of the library's low-bit rref."""
    piv: dict[int, int] = {}
    for r in rows:
        while r:
            top = r.bit_length() - 1
            if top not in piv:
                piv[top] = r
                break
            r ^= piv[top]
    return len(piv)


class LinalgDense:
    """Seeded dense ``rref``, ``kernel`` and ``solve`` over GF(2).

    ``solve`` runs twice per pass on one square matrix whose last row is
    the sum of its first two: once with a right-hand side in the column
    space (it must return a solution) and once with that relation broken
    (it must return None).
    """

    name = "linalg-dense"
    spawns_cli = False
    SHAPES = {"full": (2000, 1000), "tiny": (200, 100)}
    ROW_SAMPLE = 32

    def __init__(self, seed: int, size: str = "full"):
        from hcm import f2linalg

        n, k = self.SHAPES[size]
        rng = random.Random(seed)
        self.a = f2linalg.F2Matrix(n, n, tuple(rng.getrandbits(n) for _ in range(n)))
        self.k = f2linalg.F2Matrix(k, n, tuple(rng.getrandbits(n) for _ in range(k)))
        rows = [rng.getrandbits(n) for _ in range(n - 1)]
        rows.append(rows[0] ^ rows[1])
        self.s = f2linalg.F2Matrix(n, n, tuple(rows))
        self.b_in = _parity_product(rows, rng.getrandbits(n))
        self.b_out = self.b_in ^ (1 << (n - 1))
        self.sample = rng.sample(range(n), min(self.ROW_SAMPLE, n))
        self._ranks: Optional[tuple[int, int]] = None

    def run_pass(self, traced: bool = False) -> PassOutput:
        from hcm import f2linalg

        out = PassOutput()
        out.outputs.append(_timed(out, f2linalg.rref, self.a))
        out.outputs.append(_timed(out, f2linalg.kernel, self.k))
        out.outputs.append(_timed(out, f2linalg.solve, self.s, self.b_in))
        out.outputs.append(_timed(out, f2linalg.solve, self.s, self.b_out))
        return out

    def _reference_ranks(self) -> tuple[int, int]:
        if self._ranks is None:
            self._ranks = (_rank(self.a.data), _rank(self.k.data))
        return self._ranks

    def check(self, out: PassOutput) -> list[tuple[int, str]]:
        bad = []
        rank_a, rank_k = self._reference_ranks()
        for i, result in _checkable(out):
            if i == 0:
                problem = self._check_rref(result, rank_a)
            elif i == 1:
                vecs = result.basis
                problem = None
                if any(_parity_product(self.k.data, v) for v in vecs):
                    problem = "kernel vector with m·x != 0"
                elif 0 in vecs or len({v & -v for v in vecs}) != len(vecs):
                    problem = "kernel basis is not independent"
                elif rank_k + len(vecs) != self.k.cols:
                    problem = f"rank {rank_k} + nullity {len(vecs)} != {self.k.cols}"
            elif i == 2:
                problem = (None if result is not None
                           and _parity_product(self.s.data, result) == self.b_in
                           else "solve missed a solution of a consistent system")
            else:
                problem = None if result is None else "solve answered an inconsistent system"
            if problem:
                bad.append((i, problem))
        return bad

    def _check_rref(self, result, rank_a: int) -> Optional[str]:
        r, pivots = result
        rows = r.data
        if len(pivots) != rank_a:
            return f"rref rank {len(pivots)} != reference rank {rank_a}"
        mask = 0
        for p in pivots:
            mask |= 1 << p
        if list(pivots) != sorted(set(pivots)) or any(rows[len(pivots):]):
            return "rref rows are not in echelon order"
        if any(rows[i] & mask != 1 << p for i, p in enumerate(pivots)):
            return "rref pivot columns are not unit columns"
        lead = dict(zip(pivots, rows))
        for i in self.sample:
            v = self.a.data[i]
            for p in pivots:
                if (v >> p) & 1:
                    v ^= lead[p]
            if v:
                return f"row {i} of the input is outside the rref row space"
        return None


# -- cli-cache -------------------------------------------------------------------------


def cli_env(cache_dir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["HCM_CACHE_DIR"] = cache_dir
    return env


class CliCache:
    """Sequential ``hcm`` subprocesses with a fresh ``HCM_CACHE_DIR`` per pass.

    Each ``ext`` call runs twice: the first misses and writes the disk
    cache, the second hits and reads it.  A traced pass runs each
    command in a fresh worker that installs the tracer first.
    """

    name = "cli-cache"
    spawns_cli = True  # its work, CPU time and memory are in child processes
    SPHERE = {"full": ("15", "36"), "tiny": ("4", "10")}
    BAR_RANGE = (16, 512)

    def __init__(self, seed: int, size: str = "full"):
        import hcm.cli  # noqa: F401  (set-up pays the same import the CLI pays)

        rng = random.Random(seed)
        bar_n = rng.choice([n for n in range(*self.BAR_RANGE) if n % 8 in (0, 1, 4)])
        max_s, max_t = self.SPHERE[size]
        sphere = ["ext", "--module", "builtin:sphere", "--max-s", max_s, "--max-t", max_t]
        tensor = ["ext", "--module", "builtin:tensor-o", "--n", "17"]
        self.commands = [
            sphere, sphere, tensor, tensor,
            ["bar-e1", "--n", str(bar_n)],
            ["bounds", "scan", "--case", "d1"],
            ["classify", "--n", "9", "--normal-h", "1"],
            ["stems", "query", "--stem", "7"],
        ]
        # (miss, hit) command positions whose stdout must match byte for byte
        self.pairs = ((0, 1), (2, 3))
        self.cache_dir = os.path.join(OUT_DIR, "cli-cache", f"cache-{os.getpid()}")
        self.trace_dir = os.path.join(OUT_DIR, "trace", "cli-cache")

    def run_pass(self, traced: bool = False) -> PassOutput:
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        os.makedirs(self.cache_dir)
        env = cli_env(self.cache_dir)
        out = PassOutput()
        summaries = []
        for i, argv in enumerate(self.commands):
            if traced:
                os.makedirs(self.trace_dir, exist_ok=True)
                summary = os.path.join(self.trace_dir, f"cmd{i}.json")
                cmd = [sys.executable, os.path.join(BENCH_DIR, "cli_traced.py"), summary, *argv]
            else:
                cmd = [sys.executable, "-m", "hcm.cli", *argv]
            proc = _timed(out, subprocess.run, cmd, env=env, capture_output=True, timeout=120)
            out.outputs.append(proc)
            if traced and proc is not None and proc.returncode == 0:
                with open(summary, encoding="utf-8") as fh:
                    summaries.append(json.load(fh))
        files = [os.path.join(self.cache_dir, f) for f in os.listdir(self.cache_dir)]
        out.layers = {"cache_files": len(files),
                      "cache_bytes": sum(os.path.getsize(f) for f in files),
                      "children": summaries}
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        return out

    def check(self, out: PassOutput) -> list[tuple[int, str]]:
        bad = []
        procs = out.outputs
        for i, proc in _checkable(out):
            if proc.returncode != 0:
                err = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
                bad.append((i, f"hcm {' '.join(self.commands[i])} exited {proc.returncode}: {err}"))
        for miss, hit in self.pairs:
            if procs[miss] is None or procs[hit] is None:
                continue
            if not procs[miss].stdout:
                bad.append((miss, f"hcm {' '.join(self.commands[miss])} printed nothing"))
            elif procs[miss].stdout != procs[hit].stdout:
                bad.append((hit, f"cache hit output differs from the miss for "
                                 f"hcm {' '.join(self.commands[hit])}"))
        return bad


WORKLOADS = {w.name: w for w in (ResolveSphere, BarSweep, LinalgDense, CliCache)}
