"""Acceptance suite: one criterion per test, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every expectation is pinned here; nothing defers to later calibration.
"""

from __future__ import annotations

import json
import random
import time

import pytest

from hcm import barpage as bp
from hcm import bounds as bd
from hcm import classify as cl
from hcm import cli
from hcm import extpower as ep
from hcm import f2linalg as f2
from hcm import resolution as rs
from hcm import stmodule as sm
from hcm.groups import AbelianGroup

Z = AbelianGroup.Z
Z2 = AbelianGroup.cyclic(2)
Z4 = AbelianGroup.cyclic(4)
Z8 = AbelianGroup.cyclic(8)
ZERO = AbelianGroup.ZERO


def report(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# -- 1. printed-table reproduction ---------------------------------------------


def test_criterion_1_table(capsys):
    t0 = time.perf_counter()
    code = cli.main(["bounds", "table", "--from", "25", "--to", "31", "--json"])
    elapsed = time.perf_counter() - t0
    out = json.loads(capsys.readouterr().out)
    with capsys.disabled():
        rows = out["rows"]
        ok = (code == 0
              and [r["lhs"] for r in rows] == [15, 17, 19, 19, 19, 19, 19]
              and [r["rhs"] for r in rows] == ["76/5", "78/5", "16", "82/5",
                                               "84/5", "86/5", "88/5"]
              and all(not r["discrepancy"] for r in rows)
              and elapsed < 1.0)
        row32 = bd.table1(32, 32)[0]
        ok = ok and row32.discrepancy and row32.lhs == 19 and row32.printed == 21
        report(1, ok, f"table rows 25..31 exact, n=32 flagged (19 vs printed 21), "
                      f"{elapsed:.3f}s")


# -- 2. threshold scans ----------------------------------------------------------


def test_criterion_2_scans(capsys):
    t0 = time.perf_counter()
    results = {case: bd.threshold_scan(case, 4096)
               for case in ("d1", "d2_mod0", "d2_mod1")}
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        ok = (results["d1"].N == 26 and results["d2_mod0"].N == 48
              and results["d2_mod1"].N == 49
              and all(r.dominance.certified for r in results.values())
              and elapsed < 5.0)
        report(2, ok, f"N = 26/48/49 at horizon 4096 with dominance certificates, "
                      f"{elapsed:.3f}s")


# -- 3. exceptional filtrations ---------------------------------------------------


def test_criterion_3_filtrations(capsys):
    with capsys.disabled():
        facts = bd.exceptional_filtrations()
        got = {n: f.filtration for n, f in facts.items()}
        formulas = {n: f.formula for n, f in facts.items()}
        ok = (got == {16: 5, 17: 7, 24: 13, 25: 11, 32: 16, 33: 17, 40: 24, 41: 25}
              and all(formulas[n] == "2M2-1" for n in (16, 17, 24))
              and formulas[25] == formulas[33] == formulas[41] == "2M2-5"
              and formulas[32] == formulas[40] == "2M2-4")
        report(3, ok, f"derived filtrations {sorted(got.items())}")


# -- 4. golden-chart suite --------------------------------------------------------


def chart_of(module, max_s, max_t, towers=()):
    res = rs.minimal_resolution(module, max_s, max_t)
    return rs.ext_chart(res, torsion_free_top_stems=towers)


GOLDEN_D2 = {
    16: {(0, 30): ("Q0(y15)",), (1, 33): ("h1·Q1(y15)",)},
    17: {(0, 32): ("Q0(y16)",), (0, 33): ("Q1(y16)",), (1, 35): ("h1·Q1(y16)",)},
    12: {(0, 22): ("Q0(y11)",), (0, 24): ("Q2(y11) + y11·y13",),
         (1, 25): ("h1·Q1(y11)",)},
}

GOLDEN_D2_HEDGES = {
    16: set(),
    17: {(1, (0, 33, 0), (1, 35, 0))},
    12: set(),
}

GOLDEN_TENSOR = {
    16: {(0, 30): ("y15⊗y15",), (1, 31): ("h0·(y15⊗y15)",), (1, 32): ("h1·(y15⊗y15)",)},
    17: {(0, 32): ("y16⊗y16",), (0, 33): ("y16⊗y17 + y17⊗y16",),
         (1, 34): ("h1·(y16⊗y16)",)},
    12: {(0, 22): ("y11⊗y11",), (1, 23): ("h0·(y11⊗y11)",)},
}

GOLDEN_TENSOR_HEDGES = {
    16: {(0, (0, 30, 0), (1, 31, 0)), (1, (0, 30, 0), (1, 32, 0))},
    17: {(0, (0, 33, 0), (1, 34, 0)), (1, (0, 32, 0), (1, 34, 0))},
    12: {(0, (0, 22, 0), (1, 23, 0))},
}


def window_cells(chart, stem_lo, stem_hi, s_max):
    out = {}
    for (s, t), d in sorted(chart.dims.items()):
        if d and stem_lo <= t - s <= stem_hi and s <= s_max:
            out[(s, t)] = chart.labels[(s, t)]
    return out


def edges_in(chart, spots):
    got = set()
    for k, pairs in chart.products.items():
        for a, b in pairs:
            if (a[0], a[1]) in spots and (b[0], b[1]) in spots:
                got.add((k, a, b))
    return got


def test_criterion_4_golden_charts(capsys):
    with capsys.disabled():
        problems = []
        for n in (16, 17, 12):
            _, d2 = ep.d2_splitting_summands(n)
            ch = chart_of(d2, 6, 2 * n + 7)
            got = window_cells(ch, 2 * n - 2, 2 * n, 1)
            if got != GOLDEN_D2[n]:
                problems.append(f"d2 chart n={n}: {got}")
            if edges_in(ch, set(GOLDEN_D2[n])) != GOLDEN_D2_HEDGES[n]:
                problems.append(f"d2 edges n={n}")

            tch = chart_of(ep.tensor_square(n), 6, 2 * n + 5,
                           towers=(2 * n - 2,) if n % 8 in (0, 4) else ())
            got = window_cells(tch, 2 * n - 2, 2 * n - 1, 1)
            if got != GOLDEN_TENSOR[n]:
                problems.append(f"tensor chart n={n}: {got}")
            if edges_in(tch, set(GOLDEN_TENSOR[n])) != GOLDEN_TENSOR_HEDGES[n]:
                problems.append(f"tensor edges n={n}")

        zch = chart_of(ep.d2_integral(15), 5, 38)
        want_z = {(0, 30): ("i15^2",), (0, 32): ("Q2(i15) + i15·(z1^2 i15)",),
                  (1, 33): ("h1·Q1(i15)",)}
        if window_cells(zch, 30, 32, 1) != want_z:
            problems.append("integral quadratic chart")
        if rs.homotopy_from_chart(zch, 32) != AbelianGroup(0, (2, 2)):
            problems.append("integral quadratic total in degree 32")

        sch = chart_of(ep.d2_sphere(15), 5, 38)
        want_s = {(0, 30): ("i15^2",), (1, 33): ("h1·Q1(i15)",)}
        if window_cells(sch, 30, 32, 1) != want_s:
            problems.append("sphere quadratic chart")

        report(4, not problems,
               "Prop-3.2/3.3-style charts at n=16,17,12 plus both quadratic charts "
               "at cell 15 match cell-for-cell" + ("; " + "; ".join(problems)
                                                   if problems else ""))


# -- 5. table-row reproduction from charts ---------------------------------------


def test_criterion_5_e1_pages(capsys):
    with capsys.disabled():
        expected = {
            16: (Z, Z2 + Z2, Z2),
            17: (Z2 + Z2, ZERO + Z2, Z4),
            20: (Z, Z2 + Z2 + Z2, ZERO),
        }
        ok = True
        details = []
        for n, (lo, hi, tensor) in expected.items():
            page = bp.e1_page(n)
            good = (page.group(1, 2 * n) == lo and page.group(1, 2 * n + 1) == hi
                    and page.group(2, 2 * n + 1) == tensor)
            arrows = rs.check_no_differentials(bp.d2_chart(n), (2 * n - 2, 2 * n))
            arrows += rs.check_no_differentials(bp.tensor_square_chart(n),
                                                (2 * n - 2, 2 * n - 1))
            good = good and not arrows
            ok = ok and good
            details.append(f"n={n}:{'ok' if good else 'BAD'}")
        report(5, ok, "pages assembled from charts, no differentials in windows "
                      f"({', '.join(details)})")


# -- 6. property suite -------------------------------------------------------------


def test_criterion_6_properties(capsys):
    from hcm import steenrod as sq
    from test_resolution import bf_sphere_ext

    with capsys.disabled():
        rng = random.Random(20)
        ok = True
        # Adem idempotence and associativity through degree 20
        for d in range(1, 21):
            for mon in sq.basis(d):
                ok = ok and sq.adem_reduce(mon).terms == (mon,)
        for _ in range(300):
            degs = [rng.randrange(1, 8) for _ in range(3)]
            if sum(degs) > 20:
                continue
            a, b, c = (sq.SqSum((rng.choice(sq.basis(d)),)) for d in degs)
            ok = ok and sq.product(sq.product(a, b), c) == sq.product(a, sq.product(b, c))

        # d.d = 0 and minimality on every produced resolution
        produced = [
            rs.minimal_resolution(sm.sphere_module(16), 6, 16),
            rs.minimal_resolution(ep.d2_splitting_summands(16)[1], 5, 38),
            rs.minimal_resolution(ep.d2_splitting_summands(17)[1], 5, 40),
            rs.minimal_resolution(ep.d2_splitting_summands(12)[1], 5, 30),
            rs.minimal_resolution(ep.d2_integral(15), 5, 38),
        ]
        ok = ok and all(rs.verify(res, s) == [] for res in produced
                        for s in range(1, res.max_s + 1))

        # Nishida-produced modules pass the full Adem validation
        for n in (16, 24, 32, 17, 25, 33, 12, 20, 28):
            ok = ok and ep.d2_splitting_summands(n)[1].validate() == []

        # h periodicity
        ok = ok and all(bd.h(k + 8) == bd.h(k) + 4 for k in range(1025))

        # sphere Ext dims vs the independent brute-force resolution
        chart = rs.ext_chart(rs.minimal_resolution(sm.sphere_module(20), 6, 20))
        brute = {k: v for k, v in bf_sphere_ext(6, 20).items() if v}
        mine = {k: v for k, v in chart.dims.items() if v}
        ok = ok and mine == brute

        report(6, ok, "Adem laws (deg <= 20), d.d = 0 + minimality, Nishida "
                      "validation, h periodicity (k <= 1024), brute-force Ext match "
                      "(t <= 20, s <= 6)")


# -- 7. classification table --------------------------------------------------------


def answer_key(n):
    """Transcribed classification row for one n."""
    inertia = "0"
    if n == 4:
        inertia = "conditional:p1 mod 8"
    elif n == 8:
        inertia = "conditional:p2 mod 24"
    elif n == 9:
        inertia = "conditional:H(M)"
    r = n % 8
    if r == 0 or n == 4:
        a = AbelianGroup(0, (2, 2))
    elif r == 1:
        a = Z8
    elif r in (2, 4):
        a = Z2
    else:
        a = ZERO
    kernel = {1: ("eta^2",), 3: ("nu^2",), 4: ("epsilon",), 7: ("sigma^2",),
              8: ("eta4",), 9: ("[h2h4]",)}.get(n, ())
    boundary = {4: "[epsilon]", 8: "[eta4]", 9: "omega(f)*[h2h4]"}.get(n, "standard")
    status = "open" if n == 63 else "complete"
    return inertia, a, kernel, boundary, status


def test_criterion_7_classification(capsys):
    with capsys.disabled():
        problems = []
        for n in range(3, 65):
            rec = cl.classification_result(n)
            inertia, a, kernel, boundary, status = answer_key(n)
            if inertia == "0" and rec.inertia.group != ZERO:
                problems.append(f"inertia n={n}")
            if inertia.startswith("conditional") and rec.inertia.decided:
                problems.append(f"inertia should branch at n={n}")
            if rec.homotopy_inertia != ZERO or rec.concordance_inertia != ZERO:
                problems.append(f"h/c inertia n={n}")
            if rec.a_group != a:
                problems.append(f"a-group n={n}")
            if rec.kernel.generators != kernel:
                problems.append(f"kernel n={n}")
            if boundary == "standard":
                if "standard sphere" not in rec.boundary.spheres_bounding:
                    problems.append(f"boundary n={n}")
            elif boundary not in rec.boundary.boundary_map:
                problems.append(f"boundary map n={n}")
            if status == "open" and "open" not in rec.status:
                problems.append("n=63 must be open")
            if status == "complete" and rec.status != "complete":
                problems.append(f"status n={n}")
            if not rec.citations:
                problems.append(f"citations n={n}")
        # conditional branches decide correctly
        checks = (
            cl.inertia_group(4, 8).group == ZERO,
            cl.inertia_group(4, 4).group == Z2,
            cl.inertia_group(8, 24).group == ZERO,
            cl.inertia_group(8, 8).group == Z2,
            cl.inertia_group(9, 0).group == ZERO,
            cl.inertia_group(9, 1).group == Z8,
        )
        if not all(checks):
            problems.append("conditional branches")
        report(7, not problems,
               "all n in [3, 64] match the transcribed key"
               + ("; " + "; ".join(problems[:5]) if problems else ""))


# -- 8. performance ------------------------------------------------------------------


def test_criterion_8_performance(capsys):
    with capsys.disabled():
        t0 = time.perf_counter()
        res = rs.minimal_resolution(sm.sphere_module(40), 20, 40)
        t_res = time.perf_counter() - t0
        chart = rs.ext_chart(res)

        rng = random.Random(99)
        m = f2.F2Matrix(2000, 2000, tuple(rng.getrandbits(2000) for _ in range(2000)))
        t0 = time.perf_counter()
        f2.rref(m)
        t_rref = time.perf_counter() - t0

        ok = (t_res < 60.0 and t_rref < 2.0
              and chart.dim(4, 18) == 1 and chart.dim(3, 20) == 1)
        report(8, ok, f"sphere resolution (s<=20, t<=40) in {t_res:.1f}s, "
                      f"2000x2000 rref in {t_rref:.2f}s")
