"""The first page of the bar filtration for the Thom spectrum, near degree 2n.

Three columns matter for the kernel of the unit map in degree 2n: the
symbolic pi_2n(S) at filtration 0, the two stable homotopy groups of
the suspension spectrum of the connective cover at filtration 1, and
the tensor-square group at filtration 2.  Each summand that is not
Bott-periodic bookkeeping is recomputed from an Ext chart; the known
table row is asserted against the computed page, never substituted for
it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

from . import extpower, resolution
from .errors import ContractViolationError, InternalError, RangeError, UnsupportedError
from .groups import AbelianGroup

# 2-complete connective real K-theory homotopy, one period.
_BO_PATTERN = (
    AbelianGroup.Z, AbelianGroup.cyclic(2), AbelianGroup.cyclic(2), AbelianGroup.ZERO,
    AbelianGroup.Z, AbelianGroup.ZERO, AbelianGroup.ZERO, AbelianGroup.ZERO,
)


def pi_bo(k: int) -> AbelianGroup:
    """Bott-periodic 2-complete value, period 8 from degree 0."""
    if k < 0:
        raise ContractViolationError("negative degree")
    return _BO_PATTERN[k % 8]


@dataclass(frozen=True)
class Summand:
    """A named group summand with its provenance tag."""

    source: str  # "bo" | "D2" | "tensor" | "pi_2n(S)"
    group: Optional[AbelianGroup]  # None = symbolic, never expanded
    label: str = ""

    def __str__(self) -> str:
        if self.group is None:
            return self.label or self.source
        body = str(self.group)
        return f"({body})" if self.source == "bo" else body


@dataclass(frozen=True)
class E1Page:
    """Entries keyed by (bar filtration s, total degree t+s)."""

    n: int
    residue: int
    entries: dict

    def entry(self, s: int, total: int) -> tuple[Summand, ...]:
        return self.entries.get((s, total), ())

    def group(self, s: int, total: int) -> AbelianGroup:
        parts = [x.group for x in self.entry(s, total)]
        if any(p is None for p in parts):
            raise ContractViolationError("symbolic entry has no group value")
        return AbelianGroup.sum_of(parts)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "residue": self.residue,
            "entries": [
                {"s": s, "total": total,
                 "summands": [{"source": x.source,
                               "group": None if x.group is None else x.group.to_json(),
                               "label": x.label}
                              for x in parts]}
                for (s, total), parts in sorted(self.entries.items())
            ],
        }


# Known table row per residue: the groups the computation must reproduce.
# (pi_{2n-1} extra beyond bo, pi_2n extra beyond bo, tensor-square group)
_EXPECTED = {
    0: ((), (2,), (2,)),
    1: ((2,), (2,), (4,)),
    4: ((), (2, 2), ()),
}

_cache: dict = {}
_cache_lock = threading.Lock()


def _cached(key, make):
    with _cache_lock:
        if key in _cache:
            return _cache[key]
    value = make()
    with _cache_lock:
        _cache.setdefault(key, value)
        return _cache[key]


def d2_chart(n: int) -> resolution.ExtChart:
    """Adams chart of the quadratic summand, stems around 2n (cached)."""

    def make():
        _, d2 = extpower.d2_splitting_summands(n)
        res = resolution.minimal_resolution(d2, 6, 2 * n + 7)
        return resolution.ext_chart(res)

    return _cached(("d2", n), make)


def tensor_square_chart(n: int) -> resolution.ExtChart:
    """Adams chart of the tensor square of the connective cover (cached)."""

    def make():
        res = resolution.minimal_resolution(extpower.tensor_square(n), 6, 2 * n + 5)
        towers = (2 * n - 2,) if n % 8 in (0, 4) else ()
        return resolution.ext_chart(res, torsion_free_top_stems=towers)

    return _cached(("tensor", n), make)


def e1_page(n: int) -> E1Page:
    """Build the page for n >= 16, n = 0, 1 or 4 mod 8, from charts.

    Smaller n belong to the exceptional-case tables in the
    classification module, not to this uniform range.
    """
    r = n % 8
    if r not in (0, 1, 4):
        raise UnsupportedError(f"n mod 8 = {r}: page exists for residues 0, 1, 4")
    if n < 16:
        raise RangeError("uniform page starts at n = 16; smaller n are exceptional cases")

    # The quadratic summand joins pi_{2n-1} and pi_2n at bar filtration 1;
    # the tensor square contributes its pi_{2n-1}.
    d2 = d2_chart(n)
    d2_low = resolution.homotopy_from_chart(d2, 2 * n - 1)
    d2_high = resolution.homotopy_from_chart(d2, 2 * n)
    tensor = resolution.homotopy_from_chart(tensor_square_chart(n), 2 * n - 1)

    exp_low, exp_high, exp_tensor = _EXPECTED[r]
    checks = (
        (d2_low, AbelianGroup(0, exp_low)),
        (d2_high, AbelianGroup(0, exp_high)),
        (tensor, AbelianGroup(0, exp_tensor)),
    )
    for got, want in checks:
        if got != want:
            raise InternalError(
                f"computed summand {got} disagrees with the known row {want} (n={n})")

    def cyclics(g: AbelianGroup, source: str) -> list[Summand]:
        return [Summand(source, AbelianGroup.cyclic(t)) for t in g.torsion]

    entries = {
        (0, 2 * n): (Summand("pi_2n(S)", None, "pi_2n(S)"),),
        (1, 2 * n): tuple([Summand("bo", pi_bo(2 * n))] + cyclics(d2_low, "D2")),
        # The bo summand is listed even when zero, matching the table shape.
        (1, 2 * n + 1): tuple([Summand("bo", pi_bo(2 * n + 1))] + cyclics(d2_high, "D2")),
        (2, 2 * n + 1): (Summand("tensor", tensor),),
    }
    return E1Page(n=n, residue=r, entries=entries)
