"""Self-tests of the benchmark.  Run: python3 -m pytest -q benchmarks/tests"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import metrics  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer, _raw_attr, hcm_probes  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("benchmarks", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_smoke_run(name, trace):
    proc = _run("--workload", name, "--seed", "3", "--seconds", "0.2", "--size", "tiny",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = metrics.PER_LAYER if trace == "1" else metrics.END_TO_END
    assert list(result["metrics"]) == [n for n, _, _ in declared]
    for name_, unit, _ in declared:
        assert result["metrics"][name_]["unit"] == unit
        assert isinstance(result["metrics"][name_]["value"], (int, float))


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == metrics.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


def test_tracer_restores_every_original():
    probes = hcm_probes()
    before = [_raw_attr(p.owner, p.attr) for p in probes]
    tracer = Tracer(probes)
    with pytest.raises(ZeroDivisionError):
        with tracer:
            assert all(_raw_attr(p.owner, p.attr) is not b for p, b in zip(probes, before))
            WORKLOADS["resolve-sphere"](0, "tiny").run_pass()
            1 / 0
    assert all(_raw_attr(p.owner, p.attr) is b for p, b in zip(probes, before))
    assert tracer.mark() > 0


@pytest.mark.parametrize("name", ["resolve-sphere", "bar-sweep", "linalg-dense"])
def test_self_times_never_exceed_span_durations(name):
    workload = WORKLOADS[name](5, "tiny")
    tracer = Tracer(hcm_probes())
    event, _ = worker.measure_pass(workload, "warm", traced=True, around=tracer)
    hi = tracer.mark()
    self_s = tracer.self_times(0, hi)
    assert hi > 0
    for k, s in enumerate(self_s):
        duration = tracer.end[k] - tracer.start[k]
        assert -1e-9 <= s <= duration + 1e-12
    assert sum(self_s) <= event["wall_s"]
    summary = tracer.summary(0, hi)
    assert sum(row["calls"] for row in summary.values()) == hi


def _break(name, workload):
    """Make one reference check of the workload deliberately wrong."""
    if name == "resolve-sphere":
        workload.reference = dict(workload.reference, digest="0" * 64)
    elif name == "bar-sweep":
        workload.table = {**workload.table, workload.queries[0] % 8: ((0, ()),) * 3}
    elif name == "linalg-dense":
        workload._ranks = (0, 0)
    else:
        workload.pairs = ((0, 2),)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_wrong_reference_is_reported_as_failure(name):
    workload = WORKLOADS[name](7, "tiny")
    good, _ = worker.measure_pass(workload, "warm")
    assert good["failed"] == 0, good["problems"]
    _break(name, workload)
    bad, _ = worker.measure_pass(workload, "warm")
    assert 1 <= bad["failed"] <= bad["attempted"]
    assert bad["problems"]


def test_layer_metrics_cover_every_declared_name():
    workload = WORKLOADS["bar-sweep"](2, "tiny")
    tracer = Tracer(hcm_probes())
    _, cold = worker._in_process_traced_pass(workload, tracer, "cold")
    _, warm = worker._in_process_traced_pass(workload, tracer, "warm")
    values, unused = metrics.layer_metrics(cold, [warm], [1.0], [1.25], {})
    assert list(values) == [n for n, _, _ in metrics.PER_LAYER]
    assert values["trace.overhead_frac"] == pytest.approx(0.25)
    assert 0 < values["barpage.cache.hit_ratio"] < 1
    assert "cli.import_ms" in unused and "barpage.e1_page.calls" not in unused


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = _run("--workload", "bar-sweep", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
