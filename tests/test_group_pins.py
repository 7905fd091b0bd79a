"""Group assembly pinned end to end: every stem's group or refusal, and the bar pages.

Each outcome is the group's string or the refusal's full message.  The
read groups are listed; the full outcomes, refusals included, are
pinned by sha256.  A change to how group assembly decides what the
computed range certifies changes some outcome here.
"""

from __future__ import annotations

import hashlib
import json

from hcm import barpage, cli
from hcm import resolution as rs
from hcm import stmodule as sm
from hcm.errors import RefusalError

# The sphere at s <= 30, t <= 60, stem 0 flagged torsion-free: stems 0..39.
SPHERE_READ = {0: "Z", 1: "Z/2", 2: "Z/2", 3: "Z/8", 4: "0", 5: "0", 6: "Z/2",
               9: "Z/2 + Z/2 + Z/2", 10: "Z/2", 11: "Z/8", 12: "0", 13: "0"}
SPHERE_OUTCOMES = "2a88171d7b01241fa057b9c15afefe6bb07f457293f0449c8f6237080f1f3c0e"

# Every builtin at the CLI's range, s <= 6 and t <= hi + 6: stems lo - 1..hi + 6.
BUILTINS = ["sphere", "o --n 16", "o:0 --n 16", "o:1 --n 17", "o:4 --n 12", "Z --n 9",
            "d2-o --n 16", "d2-sphere --n 7", "d2-sphere --n 8", "d2-Z --n 9",
            "tensor-o --n 16"]
BUILTIN_READ = {
    "sphere": {-1: "0", 2: "Z/2", 3: "Z/8", 4: "0", 5: "0", 6: "Z/2", 9: "Z/2 + Z/2 + Z/2"},
    "o --n 16": {14: "0", 17: "Z/2"},
    "o:0 --n 16": {14: "0", 17: "Z/2"},
    "o:1 --n 17": {15: "0", 16: "Z/2", 17: "Z/2", 18: "0"},
    "o:4 --n 12": {10: "0", 12: "0"},
    "Z --n 9": {8: "0", 10: "0"},
    "d2-o --n 16": {29: "0", 30: "Z/2", 31: "0", 32: "Z/2"},
    "d2-sphere --n 7": {13: "0", 14: "Z/2", 15: "0", 16: "Z/2"},
    "d2-sphere --n 8": {15: "0"},
    "d2-Z --n 9": {17: "0", 18: "Z/2", 19: "0", 20: "Z/4"},
    "tensor-o --n 16": {29: "0", 32: "Z/2"},
}
BUILTIN_OUTCOMES = "d9202c07daa7c553d4098965d0e2716012359acefa913b38a9cff785d36d868c"

# e1_page(n).to_json() for every admissible n in 16..512.
PAGE_NS = [n for n in range(16, 513) if n % 8 in (0, 1, 4)]
PAGES = "7a781d785a2f68345f797385d7f68d1e10ecfedd7a4b3209fe96ea732f795744"


def _outcomes(chart: rs.ExtChart, stems) -> list[str]:
    out = []
    for k in stems:
        try:
            out.append(f"{k}: {rs.homotopy_from_chart(chart, k)}")
        except RefusalError as exc:
            out.append(f"{k}: refused: {exc}")
    return out


def _read(outcomes: list[str]) -> dict:
    pairs = (line.split(": ", 1) for line in outcomes)
    return {int(k): g for k, g in pairs if not g.startswith("refused: ")}


def _sha(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _sphere() -> rs.ExtChart:
    return rs.ext_chart(rs.minimal_resolution(sm.sphere_module(60), 30, 60),
                        torsion_free_top_stems=(0,))


def _builtin(spec: str) -> tuple[rs.ExtChart, range]:
    name, *rest = spec.split()
    m = cli._load_module(f"builtin:{name}", int(rest[1]) if rest else None)
    return rs.ext_chart(rs.minimal_resolution(m, 6, m.hi + 6)), range(m.lo - 1, m.hi + 7)


def _pages_digest() -> str:
    pages = [barpage.e1_page(n).to_json() for n in PAGE_NS]
    return hashlib.sha256(json.dumps(pages, sort_keys=True).encode()).hexdigest()


def test_sphere_groups_and_refusals_through_stem_39():
    out = _outcomes(_sphere(), range(40))
    assert _read(out) == SPHERE_READ
    assert sorted(SPHERE_READ) == [0, 1, 2, 3, 4, 5, 6, 9, 10, 11, 12, 13]
    assert _sha(out) == SPHERE_OUTCOMES


def test_builtin_groups_and_refusals_at_the_cli_range():
    out, read = [], {}
    for spec in BUILTINS:
        lines = _outcomes(*_builtin(spec))
        read[spec] = _read(lines)
        out += [f"{spec}: {line}" for line in lines]
    assert read == BUILTIN_READ
    assert _sha(out) == BUILTIN_OUTCOMES


def test_bar_pages_through_512():
    assert len(PAGE_NS) == 187
    assert _pages_digest() == PAGES
