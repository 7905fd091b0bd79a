"""Run one ``hcm`` command with the tracer installed.

Usage: python cli_traced.py SUMMARY_JSON ARGV...

Installs the wrappers, calls ``hcm.cli.main(ARGV)`` so the command's
stdout and exit code are unchanged, then writes the per-layer summary
to SUMMARY_JSON and the raw spans next to it (``.spans.tsv``).
"""

import json
import os
import sys
import time


def main() -> int:
    t0 = time.perf_counter()
    summary_path, argv = sys.argv[1], sys.argv[2:]
    from tracer import Tracer, hcm_probes, steenrod_cache_info

    tracer = Tracer(hcm_probes())
    from hcm import cli

    with tracer:
        code = cli.main(argv)
    sys.stdout.flush()
    hits, requests = tracer.chart_requests(0, tracer.mark())
    summary = {
        "wall_s": time.perf_counter() - t0,
        "layers": tracer.summary(0, tracer.mark()),
        "counters": tracer.counters,
        "steenrod": steenrod_cache_info(),
        "chart_hits": hits,
        "chart_requests": requests,
    }
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    tracer.write_spans(os.path.splitext(summary_path)[0] + ".spans.tsv")
    return code


if __name__ == "__main__":
    sys.exit(main())
