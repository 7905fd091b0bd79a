"""The hcm benchmark: seeded workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 benchmarks/run.py --workload resolve-sphere --seed 1 --seconds 45 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones from a separate traced run.  ``--workload all`` runs every
workload in turn.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 1 when any output failed its reference check.  README.md next
to this file says why each workload and metric was chosen.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

from metrics import END_TO_END, PER_LAYER, percentile
from workloads import OUT_DIR, ROOT, SIZES, SRC, WORKLOADS

WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")

# Two measuring workers split the warm-pass time.  Cold-only and
# set-up-only workers go before, between and after them, so that cold,
# warm and set-up samples are spread over the run: a shared host's speed
# can change for seconds at a time.  Every worker is a set-up sample and
# every cold pass a cold sample.
SEQUENCE = ("cold", "setup", "setup", "full") + ("setup",) * 4 + ("full", "setup", "setup", "cold")
RUN_BUDGET_S = 170.0  # every worker is killed once the run has taken this long


class BenchError(Exception):
    """The benchmark itself could not produce a result."""


# -- stamp --------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _src_digest() -> str:
    """Hash of every file under src/hcm, for checkouts that are not git repositories."""
    h = hashlib.sha256()
    base = os.path.join(SRC, "hcm")
    for name in sorted(os.listdir(base)):
        path = os.path.join(base, name)
        if name.endswith(".py") and os.path.isfile(path):
            h.update(name.encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def stamp(args) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_start": list(os.getloadavg()),
        "git_commit": _git_commit(),
        "src_digest": _src_digest(),
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
    }


# -- workers --------------------------------------------------------------------------


class Worker:
    """One worker process: its set-up time and the events it printed."""

    def __init__(self, workload: str, seed: int, size: str, mode: str, seconds: float,
                 deadline: float):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        argv = [sys.executable, WORKER, workload, str(seed), size, mode, str(seconds)]
        self.events: list[dict] = []
        self.setup_s = None
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
        watchdog = threading.Timer(max(1.0, deadline - t0), proc.kill)
        watchdog.start()
        try:
            for line in proc.stdout:
                if not line.startswith("{"):
                    continue
                event = json.loads(line)
                if event["event"] == "ready":
                    self.setup_s = time.perf_counter() - t0
                self.events.append(event)
            code = proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if code != 0 or not self.events or self.events[-1]["event"] != "done":
            raise BenchError(f"worker {workload}/{mode} failed (exit code {code})")

    def passes(self, kind: str = None) -> list[dict]:
        return [e for e in self.events if e["event"] == "pass" and kind in (None, e["kind"])]

    def event(self, name: str) -> dict:
        return next(e for e in self.events if e["event"] == name)


def _tally(workers: list[Worker]) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    problems: list[str] = []
    for w in workers:
        for p in w.passes():
            attempted += p["attempted"]
            failed += p["failed"]
            problems += p["problems"]
    return attempted, failed, problems


def run_end_to_end(name: str, args, deadline: float) -> dict:
    seconds = args.seconds / SEQUENCE.count("full")
    workers = [Worker(name, args.seed, args.size, mode, seconds, deadline) for mode in SEQUENCE]
    cold = [p for w in workers for p in w.passes("cold")]
    measuring = [w for w in workers if w.passes("warm")]
    warm = [p for w in measuring for p in w.passes("warm")]
    items = [ms for p in warm for ms in p["items_ms"]]
    attempted, failed, problems = _tally(workers)
    values = {
        "setup_s": statistics.median(w.setup_s for w in workers),
        "cold_s": statistics.median(p["wall_s"] for p in cold),
        # Means, so that wall_s is the inverse of warm-pass throughput; the
        # item percentiles give the median view.
        "wall_s": statistics.fmean(p["wall_s"] for p in warm),
        "cpu_s": statistics.fmean(p["cpu_s"] for p in warm),
        "item_p50_ms": statistics.median(items),
        "item_p90_ms": percentile(items, 90),
        "peak_rss_mb": statistics.median(w.event("done")["peak_rss_mb"] for w in measuring),
    }
    notes = [f"warm passes: {len(warm)}, items: {len(items)}, "
             f"set-up samples: {len(workers)}, cold samples: {len(cold)}",
             f"fail_frac: {failed / attempted if attempted else 0.0} ({failed}/{attempted})"]
    units = {n: u for n, u, _ in END_TO_END}
    return {"attempted": attempted, "failed": failed, "problems": problems, "notes": notes,
            "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()}}


def run_traced(name: str, args, deadline: float) -> dict:
    worker = Worker(name, args.seed, args.size, "trace", args.seconds, deadline)
    layers = worker.event("layers")
    attempted, failed, problems = _tally([worker])
    if layers["self_exceeds_wall"]:
        raise BenchError(f"{layers['self_exceeds_wall']} traced passes have self times "
                         "adding up to more than their wall time")
    notes = [f"self times cover {layers['self_share']:.3f} of the traced pass wall time",
             "not exercised on this workload (reported as 0): " + (", ".join(layers["unused"]) or "-")]
    if layers["spans"]:
        notes.append(f"spans: {os.path.relpath(layers['spans'], ROOT)}")
    units = {n: u for n, u, _ in PER_LAYER}
    return {"attempted": attempted, "failed": failed, "problems": problems, "notes": notes,
            "metrics": {n: {"value": v, "unit": units[n]} for n, v in layers["values"].items()}}


# -- main ---------------------------------------------------------------------------------


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="hcm benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="warm-pass time, split between the measuring workers")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=SIZES, default="full",
                   help="'tiny' shrinks every input, for the benchmark's self-tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hcm", "__init__.py")):
        print(f"error: no hcm package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    info = stamp(args)
    print("stamp: " + json.dumps(info, sort_keys=True))
    deadline = time.perf_counter() + RUN_BUDGET_S * len(names)
    results = {}
    try:
        for name in names:
            run = run_traced if args.trace else run_end_to_end
            results[name] = run(name, args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    for name, res in results.items():
        print(f"== {name} (seed {args.seed}, trace {args.trace})")
        for metric, m in res["metrics"].items():
            print(f"  {metric:<44} {m['value']:>16.6f} {m['unit']}")
        for note in res["notes"]:
            print(f"  {note}")
        for problem in res["problems"][:10]:
            print(f"  FAILED {problem}", file=sys.stderr)

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{metric}": m for name, r in results.items()
                   for metric, m in r["metrics"].items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{args.workload}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"stamp": info, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
