"""Minimal resolutions: anchors, verification laws, brute-force comparison.

The brute-force oracle below shares no code with the package: it has
its own Adem rewriting on plain tuples, its own list-based elimination,
and stores vectors as frozensets of basis keys.
"""

from __future__ import annotations

import hashlib
import json
import re
import types
from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcm import classify, cli
from hcm import extpower as ep
from hcm import f2linalg
from hcm import resolution as rs
from hcm import stmodule as sm
from hcm import steenrod
from hcm.errors import ConstructionError, InternalError, RefusalError
from hcm.groups import AbelianGroup

# -- independent oracle -------------------------------------------------------

_bf_memo: dict = {}


def bf_adem(word):
    """Admissible expansion of a word of positive ints, as a frozenset."""
    word = tuple(word)
    if word in _bf_memo:
        return _bf_memo[word]
    spot = next((i for i in range(len(word) - 1) if word[i] < 2 * word[i + 1]), None)
    if spot is None:
        out = frozenset({word})
    else:
        a, b = word[spot], word[spot + 1]
        acc = set()
        for c in range(a // 2 + 1):
            coeff = comb(b - c - 1, a - 2 * c) % 2 if 0 <= a - 2 * c <= b - c - 1 else 0
            if coeff:
                mid = (a + b - c, c) if c else (a + b - c,)
                piece = word[:spot] + mid + word[spot + 2:]
                acc.symmetric_difference_update(bf_adem(piece))
        out = frozenset(acc)
    _bf_memo[word] = out
    return out


def bf_basis(deg):
    def gen(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(1, min(remaining, cap) + 1):
            for tail in gen(remaining - first, first // 2):
                yield (first,) + tail
    return sorted(gen(deg, deg))


def bf_nullspace(rows):
    """Nullspace basis of a 0/1 matrix given as list of lists."""
    if not rows:
        return []
    ncols = len(rows[0])
    m = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(len(m)):
            if i != r and m[i][c]:
                m[i] = [(x + y) % 2 for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for i, p in enumerate(pivots):
            v[p] = m[i][f]
        basis.append(v)
    return basis


def bf_sphere_ext(max_s, max_t):
    """Ext dims of the base field over the Steenrod algebra, by brute force."""
    # generator lists per stage: (degree, differential) with the
    # differential a dict {lower index: frozenset of monomials}
    gens = [[(0, {})]]
    dims = {(0, 0): 1}

    def basis_of(stage, t):
        out = []
        for gi, (gt, _) in enumerate(gens[stage]):
            if gt <= t:
                for mon in bf_basis(t - gt):
                    out.append((gi, mon))
        return out

    def image_of(stage, gi, mon):
        """Expand mon * d(gen gi) into stage-1 coordinates."""
        vec = set()
        for gj, mons in gens[stage][gi][1].items():
            for xi in mons:
                for m2 in bf_adem(mon + xi):
                    vec.symmetric_difference_update({(gj, m2)})
        return frozenset(vec)

    for s in range(1, max_s + 1):
        gens.append([])
        for t in range(0, max_t + 1):
            dom = basis_of(s - 1, t)
            if not dom:
                continue
            if s == 1:
                # augmentation to the base field: only the unit survives
                images = [frozenset({((), ())}) if mon == () else frozenset()
                          for (_, mon) in dom]
                target = [((), ())]
            else:
                images = [image_of(s - 1, gi, mon) for (gi, mon) in dom]
                target = basis_of(s - 2, t)
            tpos = {k: i for i, k in enumerate(target)}
            rows = [[0] * len(dom) for _ in target]
            for j, img in enumerate(images):
                for key in img:
                    rows[tpos[key]][j] = 1
            kernel = bf_nullspace(rows) if target else [
                [1 if i == j else 0 for i in range(len(dom))] for j in range(len(dom))]
            # echelon basis of the span already covered by stage-s generators
            echelon = []

            def reduce_mod(vec):
                work = list(vec)
                for row in echelon:
                    lead = next(i for i, x in enumerate(row) if x)
                    if work[lead]:
                        work = [(x + y) % 2 for x, y in zip(work, row)]
                return work

            def insert(vec):
                red = reduce_mod(vec)
                if any(red):
                    echelon.append(red)
                    echelon.sort(key=lambda row: next(i for i, x in enumerate(row) if x))
                return red

            for (hi_, mon) in basis_of(s, t):
                if mon == ():
                    continue
                vec = [0] * len(dom)
                for key in image_of(s, hi_, mon):
                    vec[dom.index(key)] = 1
                insert(vec)
            for kv in kernel:
                work = insert(kv)
                if not any(work):
                    continue
                diff = {}
                for i, x in enumerate(work):
                    if x:
                        gj, mon = dom[i]
                        diff.setdefault(gj, set()).add(mon)
                gens[s].append((t, {k: frozenset(v) for k, v in diff.items()}))
                dims[(s, t)] = dims.get((s, t), 0) + 1
    return dims


# -- package-side helpers ------------------------------------------------------


def sphere_chart(max_s, max_t):
    res = rs.minimal_resolution(sm.sphere_module(max_t), max_s, max_t)
    return res, rs.ext_chart(res)


# -- tests ----------------------------------------------------------------------


def test_sphere_low_degrees():
    res, chart = sphere_chart(3, 8)
    assert [g.t for g in res.stages[1]] == [1, 2, 4, 8]
    assert [g.label for g in res.stages[1]] == ["h0·x0", "h1·x0", "h2·x0", "h3·x0"]


def test_sphere_against_brute_force():
    res, chart = sphere_chart(6, 20)
    want = bf_sphere_ext(6, 20)
    got = {k: v for k, v in chart.dims.items() if v}
    want = {k: v for k, v in want.items() if v}
    assert got == want


def test_sphere_spot_checks():
    _, chart = sphere_chart(6, 21)
    assert chart.dim(4, 18) == 1  # stem 14, filtration 4
    assert chart.dim(3, 20) == 1  # stem 17, filtration 3
    assert chart.dim(2, 17) == 1  # stem 15, filtration 2
    assert chart.dim(1, 16) == 1  # stem 15, filtration 1


def test_sphere_published_columns():
    # Standard chart columns, stems 1..14, filtration >= 1.  Note the
    # empty (2, 12) spot: the adjacent-index product there dies by an
    # Adem relation, so stem 10 holds only the degree-16 class at s=6.
    _, chart = sphere_chart(8, 22)
    known = {
        1: {1: 1},
        2: {2: 1},
        3: {1: 1, 2: 1, 3: 1},
        4: {},
        5: {},
        6: {2: 1},
        7: {1: 1, 2: 1, 3: 1, 4: 1},
        8: {2: 1, 3: 1},
        9: {3: 1, 4: 1, 5: 1},
        10: {6: 1},
        11: {5: 1, 6: 1, 7: 1},
        14: {2: 1, 3: 1, 4: 1, 5: 1, 6: 1},
    }
    for stem, want in known.items():
        got = {s: chart.dim(s, stem + s) for s in range(1, 9)
               if chart.dim(s, stem + s)}
        assert got == want, (stem, got, want)


def test_zero_module_resolution_is_empty():
    res = rs.minimal_resolution(sm.zero_module((0, 5)), 4, 5)
    assert res.total_generators == 0


def test_verify_on_produced_resolutions():
    for make in (
        lambda: rs.minimal_resolution(sm.sphere_module(14), 5, 14),
        lambda: rs.minimal_resolution(ep.d2_splitting_summands(16)[1], 5, 38),
        lambda: rs.minimal_resolution(ep.d2_splitting_summands(17)[1], 5, 40),
        lambda: rs.minimal_resolution(ep.d2_splitting_summands(12)[1], 5, 30),
        lambda: rs.minimal_resolution(
            sm.tensor(sm.builtin("o:1", 17), sm.builtin("o:1", 17), (32, 35)), 5, 39),
    ):
        res = make()
        for s in range(1, res.max_s + 1):
            assert rs.verify(res, s) == []
            # minimality, directly: no block at relative degree 0
            assert all(d > 0 for blocks in res.diff[s] for _, d, _ in blocks)


def test_verify_reads_no_mask_table(monkeypatch):
    # verify expands d.d through Adem products of sums, so it stays an
    # independent check of the table-driven action that built the resolution.
    res = rs.minimal_resolution(sm.sphere_module(14), 5, 14)

    def forbidden(*args):
        raise AssertionError("verify read a resolver table")

    for table in ("sq_masks", "first_letters", "first_letter_runs", "_adem_cs", "right_masks"):
        monkeypatch.setattr(steenrod, table, forbidden)
    for cached in (steenrod.mask_product, steenrod._left_mul, steenrod._adem_pair,
                   steenrod._index):
        cached.cache_clear()
    assert all(rs.verify(res, s) == [] for s in range(1, res.max_s + 1))


def test_the_resolver_reads_no_straightening(monkeypatch):
    # The other direction: the resolver builds from sq_masks and right_masks
    # alone, never from the Adem straightening that verify and validate use,
    # so a wrong straightening cannot hide a wrong table either.
    module = sm.sphere_module(30)
    want = rs.ext_chart(rs.minimal_resolution(module, 12, 30)).to_json()

    def forbidden(*args):
        raise AssertionError("the resolver read the straightening")

    cached = [f for f in vars(steenrod).values() if hasattr(f, "cache_clear")]
    for name in ("_left_mul", "_adem_pair", "_apply", "mask_product", "monomial_product",
                 "product"):
        monkeypatch.setattr(steenrod, name, forbidden)
    for f in cached:
        f.cache_clear()
    monkeypatch.setattr(steenrod, "_right_tables", {})
    monkeypatch.setattr(rs, "verify", lambda res, s: [])
    assert rs.ext_chart(rs.minimal_resolution(module, 12, 30)).to_json() == want


def test_stage_0_reads_no_resolver_table(monkeypatch):
    # Stage 0 lays a degree out from each generator's augmentation alone:
    # mon on g maps to the module's mon on d(g), through act_word, so no
    # mask table and no other degree's images are read.
    modules = [ep.tensor_square(17), sm.builtin("Z", 0), ep.d2_splitting_summands(16)[1]]
    want = [rs.ext_chart(rs.minimal_resolution(m, 0, m.hi + 20)).to_json() for m in modules]

    def forbidden(*args):
        raise AssertionError("stage 0 read a resolver table")

    for table in ("first_letter_runs", "first_letters", "sq_masks", "right_masks"):
        monkeypatch.setattr(steenrod, table, forbidden)
    assert [rs.ext_chart(rs.minimal_resolution(m, 0, m.hi + 20)).to_json()
            for m in modules] == want


def test_verify_catches_a_changed_differential_entry():
    # h2^2 maps by Sq4 + Sq3Sq1 onto h2; Sq4 alone has the same degree
    # and no unit term, but then d.d picks up Sq3Sq1 Sq4 = Sq7Sq1 != 0,
    # and the stage-3 generator h3·h1^2, which maps onto h2^2, breaks too.
    res = rs.minimal_resolution(sm.sphere_module(14), 5, 14)
    assert res.stages[2][3].label == "h2^2·x0"
    # basis(4) is (Sq3Sq1, Sq4): mask 0b11 is Sq4 + Sq3Sq1, 0b10 is Sq4 alone.
    assert res.diff[2][3] == [(1, 6, 0b100), (2, 4, 0b11)]
    bad = _with_block(res, 2, 3, 1, (2, 4, 0b10))
    assert rs.verify(bad, 2) == ["d.d != 0 at stage 2, generator 3"]
    assert rs.verify(bad, 3) == ["d.d != 0 at stage 3, generator 4"]
    assert [rs.verify(bad, s) for s in (1, 4, 5)] == [[], [], []]


def _with_block(res, s, i, b, block):
    """res with block b of stage-s generator i's differential replaced."""
    blocks = list(res.diff[s][i])
    blocks[b] = block
    stage = res.diff[s][:i] + (blocks,) + res.diff[s][i + 1:]
    return res._replace(diff=res.diff[:s] + (stage,) + res.diff[s + 1:])


def test_verify_catches_a_unit_entry():
    # h1's block Sq2 on x0, moved to relative degree 0, is the unit on x0:
    # minimality forbids it, and its augmentation is x0 itself.
    res = rs.minimal_resolution(sm.sphere_module(14), 5, 14)
    assert res.diff[1][1] == [(0, 2, 0b1)]
    bad = _with_block(res, 1, 1, 0, (0, 0, 0b1))
    assert rs.verify(bad, 1) == ["unit entry in differential at stage 1, generator 1",
                                 "augmentation of d(stage-1 generator 1) nonzero"]


def test_verify_catches_a_nonzero_augmentation():
    # h1·Q1(y15) maps by Sq2Sq1 onto Q0(y15), which Sq2Sq1 kills; Sq3 has
    # the same degree and no unit term, but Sq3 Q0(y15) = Q3(y15) != 0.
    res = rs.minimal_resolution(ep.d2_splitting_summands(16)[1], 2, 36)
    assert res.stages[1][0].label == "h1·Q1(y15)"
    # basis(3) is (Sq2Sq1, Sq3).
    assert res.diff[1][0] == [(0, 3, 0b01)]
    bad = _with_block(res, 1, 0, 0, (0, 3, 0b10))
    assert rs.verify(bad, 1) == ["augmentation of d(stage-1 generator 0) nonzero"]


def test_a_wrong_free_stage_stops_at_the_stage_it_spoils(monkeypatch):
    # A right-multiplication table that drops each row's lowest bit makes
    # wrong images from stage 1 on, so stage 2's generators cover false
    # relations; each stage is verified as it is laid out, so the run
    # stops there, before stage 3 gains a generator.
    real = steenrod.right_masks
    monkeypatch.setattr(steenrod, "right_masks",
                        lambda a, d, e: [row & (row - 1) for row in real(a, d, e)])
    gained = []
    real_add = rs._Stage.add_generator

    def counted(self, *args):
        s, stage = 0, self
        while stage.prev is not None:
            s, stage = s + 1, stage.prev
        gained.append(s)
        return real_add(self, *args)

    monkeypatch.setattr(rs._Stage, "add_generator", counted)
    with pytest.raises(InternalError, match=re.escape("d.d != 0 at stage 2")):
        rs.minimal_resolution(sm.sphere_module(16), 6, 16)
    assert 2 in gained and 3 not in gained


def test_determinism():
    res1, chart1 = sphere_chart(5, 16)
    res2, chart2 = sphere_chart(5, 16)
    assert chart1.dims == chart2.dims
    assert chart1.labels == chart2.labels
    assert chart1.products == chart2.products
    _, d2 = ep.d2_splitting_summands(17)
    c1 = rs.ext_chart(rs.minimal_resolution(d2, 5, 40))
    c2 = rs.ext_chart(rs.minimal_resolution(d2, 5, 40))
    assert (c1.dims, c1.labels, c1.products) == (c2.dims, c2.labels, c2.products)


def test_ext0_matches_module_generators():
    # Ext^0 dimension in degree t = dim of M_t modulo the positive action,
    # computed here independently with plain span arithmetic.
    from hcm import f2linalg as f2

    modules = [sm.builtin("o:0", 16), sm.builtin("o:1", 17), sm.builtin("o:4", 12),
               sm.builtin("Z", 0, window=(0, 5)), sm.sphere_module(6),
               ep.d2_splitting_summands(12)[1]]
    for m in modules:
        chart = rs.ext_chart(rs.minimal_resolution(m, 1, m.hi))
        for t in range(m.lo, m.hi + 1):
            hit = []
            for a in range(1, t - m.lo + 1):
                for i in range(m.dim(t - a)):
                    hit.append(m.act(a, t - a, 1 << i))
            covered = f2.span(hit, max(m.dim(t), 1)).dim
            assert chart.dim(0, t) == m.dim(t) - covered


@pytest.mark.parametrize("n", [16, 24, 32, 17, 25, 33, 12, 20, 28])
def test_quadratic_chart_shape_all_n(n):
    # chart shape in the displayed window is uniform within each residue
    ch = rs.ext_chart(rs.minimal_resolution(ep.d2_splitting_summands(n)[1], 5, 2 * n + 6))
    y = f"y{n - 1}"
    r = n % 8
    if r == 0:
        want = {(0, 2 * n - 2): (f"Q0({y})",), (1, 2 * n + 1): (f"h1·Q1({y})",)}
    elif r == 1:
        want = {(0, 2 * n - 2): (f"Q0({y})",), (0, 2 * n - 1): (f"Q1({y})",),
                (1, 2 * n + 1): (f"h1·Q1({y})",)}
    else:
        want = {(0, 2 * n - 2): (f"Q0({y})",),
                (0, 2 * n): (f"Q2({y}) + {y}·y{n + 1}",),
                (1, 2 * n + 1): (f"h1·Q1({y})",)}
    got = {(s, t): ch.labels[(s, t)] for (s, t), d in sorted(ch.dims.items())
           if d and t - s <= 2 * n and s <= 1}
    assert got == want


def test_prop_32_charts():
    # residue 0 at n = 16
    ch = rs.ext_chart(rs.minimal_resolution(ep.d2_splitting_summands(16)[1], 5, 38))
    assert ch.labels[(0, 30)] == ("Q0(y15)",)
    assert ch.labels[(1, 33)] == ("h1·Q1(y15)",)
    assert ch.dim(0, 31) == 0 and ch.dim(0, 32) == 0 and ch.dim(1, 31) == 0
    assert ch.dim(1, 32) == 0
    # residue 1 at n = 17
    ch = rs.ext_chart(rs.minimal_resolution(ep.d2_splitting_summands(17)[1], 5, 40))
    assert ch.labels[(0, 32)] == ("Q0(y16)",)
    assert ch.labels[(0, 33)] == ("Q1(y16)",)
    assert ch.labels[(1, 35)] == ("h1·Q1(y16)",)
    assert ((0, 33, 0), (1, 35, 0)) in ch.products[1]
    # residue 4 at n = 12
    ch = rs.ext_chart(rs.minimal_resolution(ep.d2_splitting_summands(12)[1], 5, 30))
    assert ch.labels[(0, 22)] == ("Q0(y11)",)
    assert ch.labels[(0, 24)] == ("Q2(y11) + y11·y13",)
    assert ch.labels[(1, 25)] == ("h1·Q1(y11)",)
    # the two stem-24 classes are not h0-linked
    assert not any(a == (0, 24, 0) and b == (1, 25, 0) for a, b in ch.products[0])


def test_prop_33_charts():
    o = sm.builtin("o:0", 16)
    t = sm.tensor(o, o, (30, 33))
    ch = rs.ext_chart(rs.minimal_resolution(t, 6, 37), torsion_free_top_stems=(30,))
    assert ch.labels[(0, 30)] == ("y15⊗y15",)
    assert ch.labels[(1, 31)] == ("h0·(y15⊗y15)",)
    assert ch.labels[(1, 32)] == ("h1·(y15⊗y15)",)
    assert ((0, 30, 0), (1, 31, 0)) in ch.products[0]
    assert ((0, 30, 0), (1, 32, 0)) in ch.products[1]

    o = sm.builtin("o:1", 17)
    t = sm.tensor(o, o, (32, 35))
    ch = rs.ext_chart(rs.minimal_resolution(t, 6, 39))
    assert ch.labels[(0, 32)] == ("y16⊗y16",)
    assert ch.labels[(0, 33)] == ("y16⊗y17 + y17⊗y16",)
    assert ch.labels[(1, 34)] == ("h1·(y16⊗y16)",)
    assert ((0, 33, 0), (1, 34, 0)) in ch.products[0]
    assert ((0, 32, 0), (1, 34, 0)) in ch.products[1]


def test_d2_integral_chart():
    z = ep.d2_integral(15)
    ch = rs.ext_chart(rs.minimal_resolution(z, 5, 38))
    assert ch.labels[(0, 30)] == ("i15^2",)
    assert ch.labels[(0, 32)] == ("Q2(i15) + i15·(z1^2 i15)",)
    assert ch.labels[(1, 33)] == ("h1·Q1(i15)",)
    assert rs.homotopy_from_chart(ch, 32) == AbelianGroup(0, (2, 2))


def test_d2_sphere_chart():
    s = ep.d2_sphere(15)
    ch = rs.ext_chart(rs.minimal_resolution(s, 5, 38))
    assert ch.labels[(0, 30)] == ("i15^2",)
    assert ch.labels[(1, 33)] == ("h1·Q1(i15)",)
    assert ch.dim(0, 31) == 0 and ch.dim(0, 32) == 0
    assert rs.homotopy_from_chart(ch, 32) == AbelianGroup.cyclic(2)


def test_homotopy_examples():
    # tensor-square column readings per residue
    o = sm.builtin("o:1", 17)
    ch = rs.ext_chart(rs.minimal_resolution(sm.tensor(o, o, (32, 35)), 6, 39))
    assert rs.homotopy_from_chart(ch, 33) == AbelianGroup.cyclic(4)
    o = sm.builtin("o:0", 16)
    ch = rs.ext_chart(rs.minimal_resolution(sm.tensor(o, o, (30, 33)), 6, 37),
                      torsion_free_top_stems=(30,))
    assert rs.homotopy_from_chart(ch, 30) == AbelianGroup.Z
    ch4 = rs.ext_chart(rs.minimal_resolution(ep.d2_splitting_summands(12)[1], 5, 30))
    assert rs.homotopy_from_chart(ch4, 24) == AbelianGroup(0, (2, 2))


def test_check_no_differentials():
    ch = rs.ext_chart(rs.minimal_resolution(ep.d2_splitting_summands(16)[1], 5, 38))
    assert rs.check_no_differentials(ch, (30, 32)) == []
    o = sm.builtin("o:1", 17)
    tch = rs.ext_chart(rs.minimal_resolution(sm.tensor(o, o, (32, 35)), 6, 39))
    assert rs.check_no_differentials(tch, (32, 33)) == []
    syn = rs.ExtChart(5, 12, {(0, 9): ("x",), (2, 10): ("y",)}, {})
    arrows = rs.check_no_differentials(syn, (0, 12))
    assert len(arrows) == 1 and arrows[0]["r"] == 2
    assert arrows[0]["from"] == (9, 0) and arrows[0]["to"] == (8, 2)


def test_refusals():
    # beyond the truncation trust region
    _, d2 = ep.d2_splitting_summands(16)
    ch = rs.ext_chart(rs.minimal_resolution(d2, 5, 38))
    with pytest.raises(RefusalError, match="stem 33 lies beyond the window truncation"):
        rs.homotopy_from_chart(ch, 33)
    # a tower column without the torsion-free flag: its arrows are not
    # ruled out by h0-linearity, so the arrow check refuses it first
    o = sm.builtin("o:0", 16)
    ch = rs.ext_chart(rs.minimal_resolution(sm.tensor(o, o, (30, 33)), 6, 37))
    with pytest.raises(RefusalError, match="possible Adams differentials touch stem 30"):
        rs.homotopy_from_chart(ch, 30)
    # a synthetic chart with a live differential
    syn = rs.ExtChart(5, 12, {(0, 9): ("x",), (2, 10): ("y",)}, {}, cell_degrees=(5,))
    with pytest.raises(RefusalError, match="possible Adams differentials touch stem 8"):
        rs.homotopy_from_chart(syn, 8)


def test_h0_string_refusals():
    # One h0 string up stem 3 to the top row: a tower unless flagged.
    up = {0: (((1, 4, 0), (2, 5, 0)), ((2, 5, 0), (3, 6, 0)))}
    tower = rs.ExtChart(3, 10, {(1, 4): ("x",), (2, 5): ("h0·x",), (3, 6): ("h0^2·x",)}, up,
                        cell_degrees=(0,))
    with pytest.raises(RefusalError, match="h0 string in stem 3 reaches the computed boundary"):
        rs.homotopy_from_chart(tower, 3)
    flagged = tower._replace(torsion_free_top_stems=frozenset({3}))
    assert rs.homotopy_from_chart(flagged, 3) == AbelianGroup.Z
    # Two classes at (1, 4) with an h0 edge to the same class merge.
    merge = {0: (((1, 4, 0), (2, 5, 0)), ((1, 4, 1), (2, 5, 0)), ((2, 5, 0), (3, 6, 0)))}
    branched = tower._replace(labels={**tower.labels, (1, 4): ("x", "y")}, products=merge)
    with pytest.raises(RefusalError, match="h0 structure in stem 3 branches"):
        rs.homotopy_from_chart(branched, 3)


def test_a_flag_without_a_tower_is_refused():
    # Stem 10 of the sphere is Z/2, and unflagged it is refused at this
    # range; flagged, it would read 0 unless the flag's tower is checked.
    ch = rs.ext_chart(rs.minimal_resolution(sm.sphere_module(14), 10, 14),
                      torsion_free_top_stems=(10,))
    with pytest.raises(RefusalError, match="stem 10 is flagged torsion-free-at-top") as err:
        rs.homotopy_from_chart(ch, 10)
    assert err.value.exit_code == 4
    with pytest.raises(RefusalError, match="stem 10 is flagged torsion-free-at-top"):
        rs.check_no_differentials(ch, (3, 4))
    # A string to the top row in a tangled stem is no tower either.
    up = {0: (((1, 4, 0), (2, 5, 0)), ((1, 4, 1), (2, 5, 0)), ((2, 5, 0), (3, 6, 0)))}
    tangled = rs.ExtChart(3, 10, {(1, 4): ("x", "y"), (2, 5): ("h0·x",), (3, 6): ("h0^2·x",)},
                          up, cell_degrees=(0,), torsion_free_top_stems=frozenset({3}))
    with pytest.raises(RefusalError, match="stem 3 is flagged torsion-free-at-top"):
        rs.homotopy_from_chart(tangled, 3)
    # A string that stops below the top row only because t runs out.
    short = rs.ExtChart(3, 5, {(1, 4): ("x",), (2, 5): ("h0·x",)},
                        {0: (((1, 4, 0), (2, 5, 0)),)}, cell_degrees=(0,),
                        torsion_free_top_stems=frozenset({3}))
    with pytest.raises(RefusalError, match="stem 3 is flagged torsion-free-at-top"):
        rs.homotopy_from_chart(short, 3)


def test_tower_exemption_reads_every_h0_edge():
    # x at (1, 5) has h0 edges to a and b at (2, 6); a's string reaches the
    # top row at (3, 7).  h0·x has a summand on that string, so x's string
    # is not finite, and the d2 from x to the flagged tower class c at
    # (3, 6) stays possible whichever order the two edges out of x come in.
    labels = {(1, 5): ("x",), (2, 6): ("a", "b"), (3, 7): ("a2",), (3, 6): ("c",)}
    out_of_x = [((1, 5, 0), (2, 6, 0)), ((1, 5, 0), (2, 6, 1))]
    for edges in (out_of_x, out_of_x[::-1]):
        ch = rs.ExtChart(max_s=3, max_t=20, labels=labels,
                         products={0: (*edges, ((2, 6, 0), (3, 7, 0)))},
                         torsion_free_top_stems=frozenset({3}))
        arrows = rs.check_no_differentials(ch, (3, 4))
        assert [(a["r"], a["source"], a["target"]) for a in arrows] == [(2, (1, 5), (3, 6))]
        with pytest.raises(RefusalError, match="possible Adams differentials touch stem 3"):
            rs.homotopy_from_chart(ch, 3)


@pytest.mark.parametrize("n", [0, 3, 9, 16])
def test_z_chart_is_the_h0_tower_by_change_of_rings(n):
    # H*HZ = A//A(0), so Ext_A(H*HZ) = Ext_A(0)(F2) = F2[h0]: in the stems
    # the window trusts, the chart is the h0 tower on the bottom cell,
    # one class at (s, n + s) for each s, and nothing else.
    m = sm.builtin("Z", n)
    ch = rs.ext_chart(rs.minimal_resolution(m, 12, m.hi + 12))
    trusted = lambda spot: spot[1] - spot[0] <= ch.trusted_stem_max
    assert {spot: d for spot, d in ch.dims.items() if trusted(spot)} == {
        (s, n + s): 1 for s in range(13)}
    edges = {(k, a, b) for k, pairs in ch.products.items() for a, b in pairs
             if trusted(a) or trusted(b)}
    assert edges == {(0, (s, n + s, 0), (s + 1, n + s + 1, 0)) for s in range(12)}


def test_uncertified_column_refused():
    # Z's bottom cell sits in stem 3, so no certificate covers that column.
    ch = rs.ext_chart(rs.minimal_resolution(sm.builtin("Z", 3), 6, 14))
    with pytest.raises(RefusalError, match="stem 3 column is not certified complete"):
        rs.homotopy_from_chart(ch, 3)


def test_certified_sphere_stems_match_the_stems_table():
    # Every stem the chart certifies must equal the bundled table; a wrong
    # group from either side, such as a misread 2-extension, fails here.
    chart = rs.ext_chart(rs.minimal_resolution(sm.sphere_module(40), 20, 40),
                         torsion_free_top_stems=(0,))
    db = classify.load_stems()
    certified = set()
    for k in range(1, 20):
        try:
            group = rs.homotopy_from_chart(chart, k)
        except RefusalError:
            continue
        assert group == db.stem(k).group, k
        certified.add(k)
    assert certified >= {1, 2, 3, 4, 5, 6, 9, 10, 11, 12, 13}
    for k in (14, 15):  # d2(h4) = h0·h3² is a real differential
        with pytest.raises(RefusalError):
            rs.homotopy_from_chart(chart, k)


def test_product_edges_geometry():
    # h_k edges connect (s, t) to (s+1, t + 2^k)
    for make in (lambda: sphere_chart(6, 20)[1],
                 lambda: rs.ext_chart(rs.minimal_resolution(
                     ep.d2_splitting_summands(17)[1], 5, 40))):
        chart = make()
        for k, pairs in chart.products.items():
            for (s1, t1, _), (s2, t2, _) in pairs:
                assert s2 == s1 + 1 and t2 == t1 + (1 << k)


# sha256 of the sorted-key chart JSON.  Any change of dims, labels or
# products shows here, so a digest changes only with a deliberate change
# of the charts, never with a change of the linear algebra behind them.
# Bump rs.CHART_VERSION whenever a digest here changes, so that the disk
# cache stops serving the old charts.  Each cache entry stores this same
# digest of its chart (tests/test_cli.py::test_chart_cache_env).
CHART_DIGESTS = [
    (lambda: sm.sphere_module(40), 20, 40,
     "ea7407b2636bc99811c85b6c7442803c33fbcbf50bdde8f984524112775f289f"),
    (lambda: ep.d2_splitting_summands(16)[1], 6, 39,
     "535c068dac27ad4634c79bd47f9be9ea5ca92b30763b51e5fc95ee9046612991"),
    (lambda: ep.d2_splitting_summands(17)[1], 6, 41,
     "694a7dc65fbe5f0e44171737c6ed7e460d1cd983d6b3e037927696b24f0a5342"),
    (lambda: ep.d2_splitting_summands(20)[1], 6, 47,
     "cc25eeae69ec0494f8ab36bc6885563876498a0ca273679d0f750bef83d77622"),
    (lambda: ep.tensor_square(16), 6, 37,
     "a5a9b50c8d998299fdacf181fb99b730ec692e2e0de4bf992421e31b8c4884a3"),
    (lambda: ep.tensor_square(17), 6, 39,
     "cbd1cc09c03db9c824f76b4581ac008a36d47d09c95b81f8c4f9c126a84a91fd"),
    (lambda: ep.tensor_square(20), 6, 45,
     "3475ef1ea51f231ab1002430a3ee5d5851acbdba398c306d787b369b223ef900"),
]


@pytest.mark.parametrize("make, max_s, max_t, digest", CHART_DIGESTS,
                         ids=["sphere", "d2-16", "d2-17", "d2-20",
                              "tensor-16", "tensor-17", "tensor-20"])
def test_chart_digests_pinned(make, max_s, max_t, digest):
    chart = rs.ext_chart(rs.minimal_resolution(make(), max_s, max_t))
    blob = json.dumps(chart.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == digest
    # the decoder checks nothing, so its round trip is pinned here
    assert rs.chart_from_json(chart.to_json()).to_json() == chart.to_json()


def test_exactness_check_catches_a_missing_generator(monkeypatch):
    # Dropping one kernel vector per bidegree leaves d.d = 0 and minimality
    # intact, so only the exactness check, which compares each image with
    # the previous stage's rows less their rank, can see the missing
    # generators.
    real = rs._Stage.kernel

    def lossy(self, t, piv):
        return list(real(self, t, piv))[:-1]

    monkeypatch.setattr(rs._Stage, "kernel", lossy)
    with pytest.raises(InternalError, match="not exact"):
        rs.minimal_resolution(sm.sphere_module(20), 6, 20)


def test_relations_only_where_a_generator_is_missing(monkeypatch):
    # The previous stage's rows less their rank give each kernel's dimension,
    # so relations are read only at bidegrees that gain a generator.
    real = rs._Stage.kernel
    calls = []

    def counted(self, t, piv):
        calls.append(t)
        return real(self, t, piv)

    monkeypatch.setattr(rs._Stage, "kernel", counted)
    res = rs.minimal_resolution(sm.sphere_module(20), 6, 20)
    gaining = {(s, g.t) for s, st in enumerate(res.stages) if s for g in st}
    assert len(calls) == len(gaining) == 37


def test_full_elimination_only_where_a_generator_is_missing(monkeypatch):
    # Every stage grows one forward echelon per bidegree, stage 0 names its
    # generators' cosets through reduce, and a kernel is read off the
    # relations among the rows off the image's pivots, so neither rref nor
    # span runs, not even where a stage-0 label is a sum over a coset.
    calls = []

    def counted(name):
        real = getattr(f2linalg, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)
        return wrapper

    for name in ("rref", "span"):
        monkeypatch.setattr(f2linalg, name, counted(name))
    for m, max_s, max_t, labels in [
            (sm.sphere_module(20), 6, 20, ["x0"]),
            (ep.tensor_square(17), 3, 38, ["y16⊗y16", "y16⊗y17 + y17⊗y16"]),
            (ep.d2_splitting_summands(20)[1], 3, 44, ["Q0(y19)", "Q2(y19) + y19·y21"])]:
        res = rs.minimal_resolution(m, max_s, max_t)
        assert calls == []
        assert [g.label for g in res.stages[0]] == labels


@pytest.mark.parametrize("exactness, message", [
    (True, "not exact at stage 2, degree 6"),
    (False, "d.d != 0 at stage 2"),
], ids=["exactness", "verify"])
def test_relations_outside_the_kernel_are_caught(monkeypatch, exactness, message):
    # A "kernel" that is the whole ambient space yields generators whose
    # differential is not a cycle; stopping early at the kernel's
    # dimension must not hide them.  The exactness check sees it first;
    # with that check off, verify's d.d = 0 must still see it.
    def everything(self, t, piv):
        return [1 << i for i in range(self.dim(t))]

    monkeypatch.setattr(rs._Stage, "kernel", everything)
    if not exactness:
        monkeypatch.setattr(rs, "_check_exact", lambda *args: None)
    with pytest.raises(InternalError, match=re.escape(message)):
        rs.minimal_resolution(sm.sphere_module(20), 6, 20)


def relations_read_resolution(m, max_s, max_t):
    """The resolver reading every relation: ``relations`` over all of a
    bidegree's rows keeps all of them, and new generators are drawn
    greedily from the reduced echelon basis of the relations, reduced
    against the image.

    It lays stages out through ``_Stage`` and labels them by ``_label_for``,
    as the engine does, but reads no ranks and no image complement.
    """
    stages = [rs._Stage(m)]
    for _ in range(max_s):
        stages.append(rs._Stage(stages[-1]))
    rels = [{} for _ in stages]
    st0 = stages[0]
    for t in range(m.lo, max_t + 1):
        rows = st0.extend(t)
        piv, rels[0][t] = f2linalg.echelon(rows), f2linalg.relations(rows)
        reds = {p: f2linalg.reduce(piv, 1 << p) for p in piv}
        for f in range(m.dim(t)):
            if f not in piv:
                phi = sum(1 << p for p, red in reds.items() if red >> f & 1)
                st0.add_generator(t, 1 << f, m.element_name(t, phi | 1 << f))
    for s in range(1, max_s + 1):
        prev, cur = stages[s - 1], stages[s]
        for t in range(min((g.t for g in prev.gens), default=max_t + 1) + 1, max_t + 1):
            rows = cur.extend(t)
            piv, rels[s][t] = f2linalg.echelon(rows), f2linalg.relations(rows)
            ordinal = 0
            for kv in f2linalg.reduced_basis(rels[s - 1][t]):
                red = f2linalg.reduce(piv, kv)
                if red:
                    blocks = prev.split(t, red)
                    cur.add_generator(t, blocks,
                                      rs._label_for(s, t, blocks, prev, m, piv, ordinal))
                    ordinal += 1
                    piv[(red & -red).bit_length() - 1] = red
    return rs._freeze(m, max_s, max_t, stages)


def assert_same_resolution(m, max_s, max_t):
    res = rs.minimal_resolution(m, max_s, max_t)
    want = relations_read_resolution(m, max_s, max_t)
    assert (res.stages, res.diff) == (want.stages, want.diff)
    return res


@pytest.mark.parametrize("spec, n", [
    ("sphere", None), ("o", 20), ("o:0", 16), ("o:1", 17), ("o:4", 12), ("Z", 9),
    ("d2-o", 16), ("d2-sphere", 15), ("d2-Z", 9), ("tensor-o", 17)])
def test_builtins_match_the_relations_read(spec, n):
    # Each builtin at the CLI's range: s <= 6 through hi + 6, and the sphere
    # at the s <= 15, t <= 36 its benchmark runs.
    if spec == "sphere":
        assert_same_resolution(sm.sphere_module(36), 15, 36)
    else:
        m = cli._load_module("builtin:" + spec, n)
        assert_same_resolution(m, 6, m.hi + 6)


def test_sphere_matches_the_relations_read_on_both_branches():
    # A bidegree gains as many generators as the basis of the kernel off
    # the image's pivots has vectors: one is the differential itself, and
    # two or more are drawn from the kernel's reduced basis.
    res = assert_same_resolution(sm.sphere_module(50), 25, 50)
    gained = Counter((s, g.t) for s, st in enumerate(res.stages) if s for g in st)
    assert Counter(gained.values()) == {1: 206, 2: 17}


@st.composite
def cell_diagrams(draw):
    degrees = sorted(draw(st.lists(st.integers(0, 5), min_size=1, max_size=4)))
    cells = [(f"c{i}", d) for i, d in enumerate(degrees)]
    edges = [(src, dst, ds - dd) for src, ds in cells for dst, dd in cells
             if ds - dd in (1, 2, 4) and draw(st.booleans())]
    return cells, edges


@given(cell_diagrams(), st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_cell_diagrams_match_the_relations_read(diagram, rise):
    cells, edges = diagram
    try:
        m = sm.from_cells(sm.diagram(cells, edges), (cells[0][1], cells[-1][1]), unstable=False)
    except ConstructionError:
        return  # an inconsistent action, refused
    assert_same_resolution(m, 5, m.hi + rise + 4)


@given(st.lists(st.integers(0, 6), min_size=1, max_size=4),
       st.lists(st.integers(1, 6), min_size=1, max_size=3), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_free_stage_blocks_match_monomial_products(degrees, rises, rng):
    # Oracle: each basis element is a (generator, monomial) pair at a
    # position that the layout convention fixes (generators in order, each
    # with steenrod.basis of its relative degree), and mon on a generator g
    # maps to the sum of monomial_product(mon, a) over the pairs (j, a) of
    # d(g), placed in generator j's block, with no mask table involved.
    # ``split`` must give d(g)'s pairs as one block per target generator j,
    # in generator order: j, the relative degree and the mask over its basis.
    degrees, top = sorted(degrees), 16
    prev = rs._Stage(types.SimpleNamespace(act_word=lambda w, d, v: 0))
    for t in range(top + 1):
        prev.extend(t)
        for gt in degrees:
            if gt == t:
                prev.add_generator(t, 0, "g")
    pos = {}
    for t in range(top + 1):
        keys = [(j, mon) for j, gt in enumerate(degrees) if gt <= t
                for mon in steenrod.basis(t - gt)]
        pos[t] = {key: p for p, key in enumerate(keys)}
        assert prev.dim(t) == len(keys)
    at = {t: {p: key for key, p in pos[t].items()} for t in pos}

    gens = sorted(degrees[0] + r for r in rises)
    dvecs = [rng.getrandbits(prev.dim(gt)) | 1 << rng.randrange(prev.dim(gt)) for gt in gens]
    cur = rs._Stage(prev)
    for t in range(top + 1):
        want = []
        for gt, dvec in zip(gens, dvecs):
            for mon in steenrod.basis(t - gt) if gt < t else ():
                row = 0
                for b in range(prev.dim(gt)):
                    if dvec >> b & 1:
                        j, a = at[gt][b]
                        for m2 in steenrod.monomial_product(mon, a).terms:
                            row ^= 1 << pos[t][(j, m2)]
                want.append(row)
        assert cur.extend(t) == want
        for gt, dvec in zip(gens, dvecs):
            if gt == t:
                masks = {}
                for b in range(prev.dim(t)):
                    if dvec >> b & 1:
                        j, a = at[t][b]
                        masks[j] = masks.get(j, 0) | 1 << steenrod.basis(t - degrees[j]).index(a)
                blocks = prev.split(t, dvec)
                assert blocks == [(j, t - degrees[j], mask) for j, mask in sorted(masks.items())]
                cur.add_generator(t, blocks, "h")
    with pytest.raises(InternalError, match="out of range"):
        cur.extend(top + 1)


def test_shared_right_tables_serve_no_stale_result():
    # steenrod.right_masks keeps its tables for the process, shared by
    # every resolution.  Results built on tables that other modules' runs
    # left warm must equal the same runs made after the tables are cleared.
    # The ranges are the CLI's: sphere s<=15, t<=36, the others s<=6 to hi + 6.
    cases = [(lambda: sm.sphere_module(36), 15, 36), (lambda: ep.tensor_square(17), 6, 41),
             (lambda: ep.d2_sphere(15), 6, 39)]

    def run(make, max_s, max_t):
        res = rs.minimal_resolution(make(), max_s, max_t)
        return res, rs.ext_chart(res).to_json()

    warm = [run(*case) for case in cases]
    assert steenrod._right_tables
    for case, result in zip(cases, warm):
        steenrod._right_tables.clear()
        assert run(*case) == result
