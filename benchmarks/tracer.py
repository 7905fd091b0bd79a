"""Outside-in tracer: wraps public functions of ``hcm`` and records spans.

The tracer replaces public module attributes and public class methods
with thin wrappers, records one span (name, start, end, parent) per call
in flat arrays, and puts every original back on :meth:`Tracer.restore`.
Nothing under ``src/`` is edited.  ``lru_cache`` statistics are read
from ``cache_info()``, never wrapped.

A layer's self time is its span duration minus the time covered by its
direct child spans.  Calls on one thread nest, so sibling spans never
overlap and the children's durations can simply be summed.
"""

from __future__ import annotations

import functools
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Probe:
    """One attribute to wrap.

    ``span`` False records a call count only (for functions called so
    often that a span would swamp the measurement).  ``on_call`` and
    ``on_return`` receive the tracer's counters dict plus the call's
    arguments or result.
    """

    name: str
    owner: object
    attr: str
    span: bool = True
    on_call: Optional[Callable] = None
    on_return: Optional[Callable] = None


def _add_kernel_cells(counters, args, kwargs):
    m = args[0] if args else kwargs["m"]
    counters["f2linalg.kernel.cells"] = counters.get("f2linalg.kernel.cells", 0) + m.rows * m.cols


def _add_generators(counters, result):
    counters["resolution.generators"] = counters.get("resolution.generators", 0) + result.total_generators
    counters["resolution.generators_s1"] = (
        counters.get("resolution.generators_s1", 0) + result.total_generators - len(result.stages[0]))


def hcm_probes() -> list[Probe]:
    """The public entry points of every ``hcm`` layer the benchmark names."""
    from hcm import (barpage, bounds, classify, cli, extpower, f2linalg, resolution,
                     steenrod, stmodule)

    return [
        Probe("f2linalg.rref", f2linalg, "rref"),
        Probe("f2linalg.kernel", f2linalg, "kernel", on_call=_add_kernel_cells),
        Probe("f2linalg.span", f2linalg, "span"),
        Probe("f2linalg.solve", f2linalg, "solve"),
        Probe("f2linalg.reduce", f2linalg.Subspace, "reduce"),
        Probe("f2linalg.transpose", f2linalg.F2Matrix, "transpose"),
        Probe("steenrod.basis", steenrod, "basis"),
        Probe("steenrod.product", steenrod, "product"),
        Probe("stmodule.from_cells", stmodule, "from_cells"),
        Probe("stmodule.tensor", stmodule, "tensor"),
        Probe("stmodule.validate", stmodule.GradedModule, "validate"),
        Probe("stmodule.act", stmodule.GradedModule, "act", span=False),
        Probe("extpower.d2_homology", extpower, "d2_homology"),
        Probe("resolution.minimal_resolution", resolution, "minimal_resolution",
              on_return=_add_generators),
        Probe("resolution.verify", resolution, "verify"),
        Probe("resolution.ext_chart", resolution, "ext_chart"),
        Probe("resolution.homotopy_from_chart", resolution, "homotopy_from_chart"),
        Probe("resolution.check_no_differentials", resolution, "check_no_differentials"),
        Probe("barpage.e1_page", barpage, "e1_page"),
        Probe("barpage.d2_chart", barpage, "d2_chart"),
        Probe("barpage.tensor_square_chart", barpage, "tensor_square_chart"),
        Probe("bounds.threshold_scan", bounds, "threshold_scan"),
        Probe("classify.classification_result", classify, "classification_result"),
        Probe("classify.load_stems", classify, "load_stems"),
        Probe("cli.main", cli, "main"),
    ]


def steenrod_cache_info() -> dict:
    """Hits and misses of the Steenrod tables, read without wrapping them."""
    from hcm import steenrod

    out = {}
    for key, fn in (("left_mul", steenrod._left_mul),
                    ("monomial_product", steenrod.monomial_product)):
        info = fn.cache_info()
        out[key] = {"hits": info.hits, "misses": info.misses}
    return out


class Tracer:
    """Installs probes, records spans in memory, restores the originals."""

    def __init__(self, probes: list[Probe]):
        self.probes = probes
        self.names: list[str] = [p.name for p in probes]
        self.name_id = array("i")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = {}
        self._stack: list[int] = [-1]
        self._saved: list[tuple[object, str, object]] = []

    # -- install / restore ------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for i, probe in enumerate(self.probes):
            original = _raw_attr(probe.owner, probe.attr)
            self._saved.append((probe.owner, probe.attr, original))
            setattr(probe.owner, probe.attr, self._wrap(i, probe, getattr(probe.owner, probe.attr)))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _wrap(self, i: int, probe: Probe, fn):
        counters = self.counters
        if not probe.span:
            key = probe.name + ".calls"

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counters[key] = counters.get(key, 0) + 1
                return fn(*args, **kwargs)

            return counted

        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter
        on_call, on_return = probe.on_call, probe.on_return

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            k = len(start)
            name_id.append(i)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(k)
            if on_call is not None:
                on_call(counters, args, kwargs)
            start[k] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[k] = clock()
                stack.pop()
            if on_return is not None:
                on_return(counters, result)
            return result

        return traced

    # -- reading spans ----------------------------------------------------

    def mark(self) -> int:
        """Index of the next span, for slicing spans by pass."""
        return len(self.start)

    def self_times(self, lo: int, hi: int) -> list[float]:
        """Duration minus direct children's durations, for spans lo..hi-1.

        The range must hold whole call trees (every span's children), as
        the spans recorded between two marks taken outside any probe do.
        """
        start, end, parent = self.start, self.end, self.parent
        covered = [0.0] * (hi - lo)
        for k in range(lo, hi):
            p = parent[k]
            if p >= 0:
                covered[p - lo] += end[k] - start[k]
        return [end[k] - start[k] - covered[k - lo] for k in range(lo, hi)]

    def summary(self, lo: int, hi: int) -> dict:
        """Calls and self seconds per span probe over spans lo..hi-1."""
        out = {p.name: {"calls": 0, "self_s": 0.0} for p in self.probes if p.span}
        for k, self_s in zip(range(lo, hi), self.self_times(lo, hi)):
            row = out[self.names[self.name_id[k]]]
            row["calls"] += 1
            row["self_s"] += self_s
        return out

    def chart_requests(self, lo: int, hi: int) -> tuple[int, int]:
        """(hits, requests): barpage chart calls with no nested resolution."""
        chart_ids = {self.names.index("barpage.d2_chart"),
                     self.names.index("barpage.tensor_square_chart")}
        res_id = self.names.index("resolution.minimal_resolution")
        requests = [k for k in range(lo, hi) if self.name_id[k] in chart_ids]
        resolved = {self.parent[k] for k in range(lo, hi) if self.name_id[k] == res_id}
        return sum(1 for k in requests if k not in resolved), len(requests)

    def write_spans(self, path: str) -> None:
        """Tab-separated spans; times in seconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\tname\tstart_s\tend_s\n")
            for k in range(len(self.start)):
                fh.write(f"{k}\t{self.parent[k]}\t{self.names[self.name_id[k]]}\t"
                         f"{self.start[k] - t0:.7f}\t{self.end[k] - t0:.7f}\n")


def _raw_attr(owner, attr):
    """The attribute as stored, so restoring puts back the same object."""
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if attr in vars(klass):
                if klass is not owner:
                    raise RuntimeError(f"{owner.__name__}.{attr} is inherited; wrap it where defined")
                return vars(klass)[attr]
    return getattr(owner, attr)
