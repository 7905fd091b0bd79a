"""One benchmark worker process; ``run.py`` starts it and reads its events.

Usage: python worker.py WORKLOAD SEED SIZE MODE SECONDS

MODE is ``setup`` (set up, then exit), ``cold`` (set up, run the cold
pass, then exit), ``full`` (the cold pass in this fresh process, then
warm passes for SECONDS) or ``trace`` (like
``full``, with warm passes alternating between traced and untraced so
the tracer's overhead is measured in the same process).

Events are JSON lines on stdout: ``ready`` once set-up is done, one
``pass`` per pass, and a final ``done``.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

from workloads import OUT_DIR, SRC, WORKLOADS, cli_env

MIN_WARM_PASSES = 2
PROBLEMS_PER_PASS = 3


def emit(event: dict) -> None:
    sys.stdout.write(json.dumps(event) + "\n")
    sys.stdout.flush()


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def measure_pass(workload, kind: str, traced: bool = False, around=None):
    """Run and time one pass inside ``around``, then check it outside."""
    with around or contextlib.nullcontext():
        cpu0, child0 = time.process_time(), _children_cpu()
        t0 = time.perf_counter()
        out = workload.run_pass(traced)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0 + _children_cpu() - child0
    bad = workload.check(out)
    failed = set(out.errors) | {i for i, _ in bad}
    problems = [f"item {i}: {msg}" for i, msg in sorted(out.errors.items())]
    problems += [f"item {i}: {msg}" for i, msg in bad]
    event = {"event": "pass", "kind": kind, "traced": traced, "wall_s": wall, "cpu_s": cpu,
             "items_ms": out.items_ms, "attempted": len(out.items_ms), "failed": len(failed),
             "problems": problems[:PROBLEMS_PER_PASS]}
    return event, out


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _more_passes(done: int, last_s: float, deadline: float) -> bool:
    """Another pass, unless the minimum is met and the pass would end more
    than half its length past the deadline (so runs average SECONDS)."""
    return done < MIN_WARM_PASSES or time.perf_counter() + last_s / 2 <= deadline


def run_untraced(workload, seconds: float) -> None:
    event = measure_pass(workload, "cold")[0]
    emit(event)
    deadline = time.perf_counter() + seconds
    warm = 0
    while _more_passes(warm, event["wall_s"], deadline):
        event = measure_pass(workload, "warm")[0]
        emit(event)
        warm += 1


# -- traced runs -------------------------------------------------------------------


def _in_process_traced_pass(workload, tracer, kind: str):
    from tracer import steenrod_cache_info

    before = steenrod_cache_info()
    lo = tracer.mark()
    event, _ = measure_pass(workload, kind, traced=True, around=tracer)
    hi = tracer.mark()
    after = steenrod_cache_info()
    hits, requests = tracer.chart_requests(lo, hi)
    counters = dict(tracer.counters)
    tracer.counters.clear()
    summary = {
        "layers": tracer.summary(lo, hi),
        "counters": counters,
        "steenrod": {t: {k: after[t][k] - before[t][k] for k in after[t]} for t in after},
        "chart_hits": hits,
        "chart_requests": requests,
    }
    return event, summary


def _cli_traced_pass(workload, kind: str):
    from metrics import merge_summaries

    event, out = measure_pass(workload, kind, traced=True)
    return event, merge_summaries(out.layers["children"])


def _median_spawn_ms(argv: list[str], env: dict, repeats: int = 5, reported: bool = False) -> float:
    """Median wall time of a fresh interpreter, or of the time it reports itself."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60, check=True)
        wall = time.perf_counter() - t0
        samples.append(float(proc.stdout) if reported else wall)
    return statistics.median(samples) * 1e3


def _cli_startup(workload) -> dict:
    env = cli_env(workload.cache_dir)
    importer = ("import time; t0 = time.perf_counter(); import hcm.cli; "
                "print(time.perf_counter() - t0)")
    return {
        "cli.python_start_ms": _median_spawn_ms([sys.executable, "-c", "pass"], env),
        "cli.import_ms": _median_spawn_ms([sys.executable, "-c", importer], env, reported=True),
    }


def _cli_metrics(workload, untraced: list) -> dict:
    """CLI start-up, plus the sphere ``ext`` pair and disk cache of untraced passes."""
    miss, hit = workload.pairs[0]
    out = _cli_startup(workload)
    out["cli.ext_miss_ms"] = statistics.median(e["items_ms"][miss] for e, _ in untraced)
    out["cli.ext_hit_ms"] = statistics.median(e["items_ms"][hit] for e, _ in untraced)
    out["cli.cache.files_written"] = statistics.median(o.layers["cache_files"] for _, o in untraced)
    out["cli.cache.bytes_written"] = statistics.median(o.layers["cache_bytes"] for _, o in untraced)
    return out


def run_traced(workload, seconds: float) -> None:
    from metrics import layer_metrics
    from tracer import Tracer, hcm_probes

    in_process = not workload.spawns_cli
    tracer = Tracer(hcm_probes()) if in_process else None

    def traced_pass(kind):
        if in_process:
            return _in_process_traced_pass(workload, tracer, kind)
        return _cli_traced_pass(workload, kind)

    event, cold = traced_pass("cold")
    emit(event)
    warm, untraced = [], []
    deadline = time.perf_counter() + seconds
    pair_s = 2 * event["wall_s"]
    while _more_passes(len(warm), pair_s, deadline):
        untraced.append(measure_pass(workload, "warm"))
        emit(untraced[-1][0])
        event, summary = traced_pass("warm")
        emit(event)
        summary["wall_s"] = event["wall_s"]
        warm.append(summary)
        pair_s = untraced[-1][0]["wall_s"] + event["wall_s"]

    cli = {} if in_process else _cli_metrics(workload, untraced)
    values, unused = layer_metrics(cold, warm, [e["wall_s"] for e, _ in untraced],
                                   [s["wall_s"] for s in warm], cli)
    # Self times of nested spans add up to at most the time they cover.
    shares = [sum(r["self_s"] for r in s["layers"].values()) / s["wall_s"] for s in warm]
    spans = None
    if in_process:
        trace_dir = os.path.join(OUT_DIR, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        spans = os.path.join(trace_dir, f"{workload.name}.spans.tsv")
        tracer.write_spans(spans)
    emit({"event": "layers", "values": values, "unused": unused, "spans": spans,
          "self_exceeds_wall": sum(share > 1 for share in shares),
          "self_share": statistics.median(shares)})


def main() -> int:
    name, seed, size, mode, seconds = sys.argv[1:6]
    sys.path.insert(0, SRC)
    workload = WORKLOADS[name](int(seed), size)
    emit({"event": "ready"})
    if mode == "trace":
        run_traced(workload, float(seconds))
    elif mode == "full":
        run_untraced(workload, float(seconds))
    elif mode == "cold":
        emit(measure_pass(workload, "cold")[0])
    emit({"event": "done", "peak_rss_mb": _peak_rss_mb(children=workload.spawns_cli)})
    return 0


if __name__ == "__main__":
    sys.exit(main())
