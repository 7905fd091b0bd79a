"""Metric names, units and how the per-layer ones are derived from spans.

The lists here must match ``BENCHMARK.json``; a self-test checks that.
"""

from __future__ import annotations

import statistics

# (name, unit, better)
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("cold_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("item_p50_ms", "ms", "lower"),
    ("item_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

PER_LAYER = [
    ("f2linalg.rref.calls", "count", "lower"),
    ("f2linalg.rref.self_s", "s", "lower"),
    ("f2linalg.kernel.calls", "count", "lower"),
    ("f2linalg.kernel.self_s", "s", "lower"),
    ("f2linalg.kernel.cells", "count", "lower"),
    ("f2linalg.span.calls", "count", "lower"),
    ("f2linalg.span.self_s", "s", "lower"),
    ("f2linalg.reduce.calls", "count", "lower"),
    ("f2linalg.reduce.self_s", "s", "lower"),
    ("f2linalg.transpose.self_s", "s", "lower"),
    ("f2linalg.solve.self_s", "s", "lower"),
    ("steenrod.basis.self_s", "s", "lower"),
    ("steenrod.product.calls", "count", "lower"),
    ("steenrod.product.self_s", "s", "lower"),
    ("steenrod.left_mul.hit_ratio", "ratio", "higher"),
    ("steenrod.left_mul.misses", "count", "lower"),
    ("steenrod.monomial_product.hit_ratio", "ratio", "higher"),
    ("stmodule.from_cells.calls", "count", "lower"),
    ("stmodule.from_cells.self_s", "s", "lower"),
    ("stmodule.tensor.calls", "count", "lower"),
    ("stmodule.tensor.self_s", "s", "lower"),
    ("stmodule.validate.self_s", "s", "lower"),
    ("stmodule.act.calls", "count", "lower"),
    ("extpower.d2_homology.calls", "count", "lower"),
    ("extpower.d2_homology.self_s", "s", "lower"),
    ("resolution.minimal_resolution.calls", "count", "lower"),
    ("resolution.minimal_resolution.self_s", "s", "lower"),
    ("resolution.verify.self_s", "s", "lower"),
    ("resolution.generators", "count", "higher"),
    ("resolution.new_gen_ratio", "ratio", "higher"),
    ("resolution.ext_chart.self_s", "s", "lower"),
    ("resolution.homotopy_from_chart.self_s", "s", "lower"),
    ("resolution.check_no_differentials.self_s", "s", "lower"),
    ("barpage.e1_page.calls", "count", "lower"),
    ("barpage.e1_page.self_s", "s", "lower"),
    ("barpage.cache.hit_ratio", "ratio", "higher"),
    ("cli.python_start_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.ext_miss_ms", "ms", "lower"),
    ("cli.ext_hit_ms", "ms", "lower"),
    ("cli.cache.files_written", "count", "lower"),
    ("cli.cache.bytes_written", "B", "lower"),
    ("bounds.threshold_scan.self_s", "s", "lower"),
    ("classify.classification_result.self_s", "s", "lower"),
    ("classify.load_stems.self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

# Read from the cold pass, where the Steenrod tables fill; a warm pass
# finds them full and would always read 1.0.
_STEENROD = {
    "steenrod.left_mul.hit_ratio": ("left_mul", "ratio"),
    "steenrod.left_mul.misses": ("left_mul", "misses"),
    "steenrod.monomial_product.hit_ratio": ("monomial_product", "ratio"),
}

CLI_ONLY = {"cli.python_start_ms", "cli.import_ms", "cli.ext_miss_ms", "cli.ext_hit_ms",
            "cli.cache.files_written", "cli.cache.bytes_written"}


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (q in 1..99) by linear interpolation between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def merge_summaries(parts: list[dict]) -> dict:
    """Sum per-layer summaries of several processes (one traced pass)."""
    out = {"layers": {}, "counters": {}, "steenrod": {}, "chart_hits": 0, "chart_requests": 0}
    for part in parts:
        for name, row in part["layers"].items():
            acc = out["layers"].setdefault(name, {"calls": 0, "self_s": 0.0})
            acc["calls"] += row["calls"]
            acc["self_s"] += row["self_s"]
        for name, value in part["counters"].items():
            out["counters"][name] = out["counters"].get(name, 0) + value
        for table, info in part["steenrod"].items():
            acc = out["steenrod"].setdefault(table, {"hits": 0, "misses": 0})
            acc["hits"] += info["hits"]
            acc["misses"] += info["misses"]
        out["chart_hits"] += part["chart_hits"]
        out["chart_requests"] += part["chart_requests"]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(cold: dict, warm: list[dict], untraced_walls: list[float],
                  traced_walls: list[float], cli: dict) -> tuple[dict, list[str]]:
    """Per-layer metric values, plus the names this workload never exercised.

    Call counts and self times are medians over the warm traced passes;
    the Steenrod cache figures come from the cold pass.
    """
    def med(fn):
        return statistics.median(fn(s) for s in warm)

    values: dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        if name in _STEENROD:
            table, kind = _STEENROD[name]
            info = cold["steenrod"].get(table, {"hits": 0, "misses": 0})
            values[name] = (info["misses"] if kind == "misses"
                            else _ratio(info["hits"], info["hits"] + info["misses"]))
        elif name in CLI_ONLY:
            values[name] = cli.get(name, 0.0)
        elif name == "resolution.new_gen_ratio":
            values[name] = med(lambda s: _ratio(s["counters"].get("resolution.generators_s1", 0),
                                                s["layers"]["f2linalg.reduce"]["calls"]))
        elif name == "barpage.cache.hit_ratio":
            values[name] = med(lambda s: _ratio(s["chart_hits"], s["chart_requests"]))
        elif name == "trace.overhead_frac":
            values[name] = statistics.median(traced_walls) / statistics.median(untraced_walls) - 1
        elif name.endswith((".calls", ".self_s")) and name.rsplit(".", 1)[0] in warm[0]["layers"]:
            layer, field = name.rsplit(".", 1)
            values[name] = med(lambda s: s["layers"][layer][field])
        else:
            values[name] = med(lambda s: s["counters"].get(name, 0))
    unused = sorted(name for name, value in values.items()
                    if value == 0 and name != "trace.overhead_frac")
    return values, unused
