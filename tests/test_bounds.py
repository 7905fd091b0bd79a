"""Exact filtration arithmetic: h, M1/M2, scans, exceptional filtrations."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcm import bounds as bd
from hcm.errors import ContractViolationError, RangeError, UnsupportedError


def h_by_enumeration(k):
    return sum(1 for s in range(1, k + 1) if s % 8 in (0, 1, 2, 4))


def test_h_examples():
    assert bd.h(0) == 0
    assert bd.h(8) == 4
    assert bd.h(24) == 12


def test_h_closed_form_against_enumeration():
    for k in range(4097):
        assert bd.h(k) == h_by_enumeration(k)


def test_h_periodicity():
    for k in range(1025):
        assert bd.h(k + 8) == bd.h(k) + 4


def floor_log2(x):
    out = 0
    while x >= 2:
        x //= 2
        out += 1
    return out


def test_m1_m2_closed_forms():
    for n in range(1, 4097):
        assert bd.m1(n) == bd.h(n - 1) - floor_log2(n + 3) + 1
        assert bd.m2(n) == bd.h(n - 1) - floor_log2(2 * n + 2) + 1


def test_m_examples():
    assert bd.m1(25) == 9 and 2 * bd.m1(25) - 3 == 15
    assert bd.m2(16) == 3 and 2 * bd.m2(16) - 1 == 5
    assert bd.m2(24) == 7 and 2 * bd.m2(24) - 1 == 13


def test_v2():
    assert bd.v2(1) == 0
    assert bd.v2(48) == 4
    assert bd.v2(64) == 6
    with pytest.raises(ContractViolationError):
        bd.v2(0)


def test_davis_mahowald_values():
    assert bd.davis_mahowald(16) == Fraction(49, 5)
    assert bd.davis_mahowald(50) == 21
    assert bd.davis_mahowald(1) == Fraction(53, 10)


def test_vanishing_params():
    p1 = bd.vanishing_params(1)
    assert (p1.b, p1.d, p1.v, p1.m, p1.c, p1.r) == (
        Fraction(-3, 2), 1, 25, Fraction(1, 5), 5, 3)
    p2 = bd.vanishing_params(2)
    assert (p2.b, p2.v, p2.c, p2.r) == (Fraction(-9, 2), 45, 9, 6)
    p3 = bd.vanishing_params(3)
    assert (p3.b, p3.v, p3.c, p3.r) == (Fraction(-15, 2), Fraction(205, 3), 13, 10)
    for l in (1, 2, 3):
        p = bd.vanishing_params(l)
        assert p.b <= p.d and p.m == Fraction(1, 5) and p.r >= 1
    with pytest.raises(UnsupportedError):
        bd.vanishing_params(4)


def test_check_af_j_sanity_case():
    s = 2 * bd.m1(26) - 3
    assert s == 17
    report = bd.check_af_j(52, s, 1)
    assert report.all_hold
    assert all(isinstance(c.margin, Fraction) for c in report.conditions)


def test_check_af_j_l2_case():
    s = 2 * bd.m2(32) - 4
    assert s == 16
    report = bd.check_af_j(64, s, 2)
    # exact-rational margins; condition (3): 65/2 - 9/2 - 1 >= 96/5 + 4 + v2 terms
    c3 = report.conditions[2]
    assert c3.lhs == Fraction(65, 2) - Fraction(9, 2) - 1
    assert c3.rhs == bd.davis_mahowald(64)
    assert c3.holds == (c3.lhs >= c3.rhs)


def test_check_af_j_stem_boundary():
    assert bd.check_af_j(24, 10, 1).conditions[1].holds  # 25 >= 25
    assert not bd.check_af_j(23, 10, 1).conditions[1].holds


def test_table1_matches_printed_row():
    rows = bd.table1(25, 31)
    assert [r.lhs for r in rows] == [15, 17, 19, 19, 19, 19, 19]
    assert [str(r.rhs) for r in rows] == [
        "76/5", "78/5", "16", "82/5", "84/5", "86/5", "88/5"]
    assert all(r.printed == r.lhs and not r.discrepancy for r in rows)
    assert rows[0].verdict is False  # n = 25 fails
    assert all(r.verdict for r in rows[1:])


def test_table1_flags_n32():
    row = bd.table1(32, 32)[0]
    assert row.lhs == 19 and row.printed == 21 and row.discrepancy


@pytest.mark.parametrize("case,expected", [("d1", 26), ("d2_mod0", 48), ("d2_mod1", 49)])
def test_threshold_scans(case, expected):
    result = bd.threshold_scan(case, 4096)
    assert result.N == expected
    assert result.matches_stated
    assert result.dominance.certified
    assert result.condition3["stated_sufficient"]


def test_scan_monotone_above_threshold():
    for case in ("d1", "d2_mod0", "d2_mod1"):
        sc = bd.SCAN_CASES[case]
        res = bd.threshold_scan(case, 2048)
        for n in range(res.N, 2049):
            if n % 8 in sc.residues:
                assert sc.passes(n), (case, n)


def test_dominance_certificate_reads_the_whole_last_block(monkeypatch):
    # A lhs that is 0 at n = 4 mod 8 and huge elsewhere fails in every
    # block, so the certificate must fail although N lands above the last
    # failure and the other residues of the last block pass.
    monkeypatch.setitem(bd._FORMULAS, "spiky", lambda n: 0 if n % 8 == 4 else 10 ** 6)
    monkeypatch.setitem(bd.SCAN_CASES, "spiky",
                        bd.ScanCase("spiky", (0, 1, 4), "none", 26, 1, "spiky"))
    result = bd.threshold_scan("spiky", 256)
    assert result.N == 253
    assert not result.dominance.certified
    assert result.dominance.min_tail_margin == -bd.SCAN_CASES["spiky"].rhs(252)


def fraction_condition3_holds(k, l):
    # condition (3) exactly as stated, in Fractions
    b = bd.vanishing_params(l).b
    return (Fraction(k + 1, 2) + b - l + 1
            >= Fraction(3 * k, 10) + 4 + bd.v2(k + 2) + bd.v2(k + 1))


def fraction_passes(sc, n):
    c = bd.vanishing_params(sc.l).c
    return sc.side_ok(n) and sc.lhs(n) >= Fraction(2 * n + 1, 5) + c


@pytest.mark.parametrize("horizon", [256, 1000, 4096, 10000])
def test_integer_condition3_matches_fractions(horizon):
    for l in (1, 2, 3):
        expected = [k for k in range(1, horizon + 1) if not fraction_condition3_holds(k, l)]
        assert bd.condition3_failures(l, horizon) == expected, l


def test_integer_scan_verdicts_match_fractions():
    for sc in bd.SCAN_CASES.values():
        for n in range(1, 10001):
            assert sc.passes(n) == fraction_passes(sc, n), (sc.name, n)


@pytest.mark.parametrize("b, c", [
    (Fraction(-7, 3), Fraction(31, 3)),  # thirds: no factor shared with 10 or 5
    (Fraction(-3, 2), Fraction(8)),  # lhs = rhs exactly at n = 27
])
def test_integer_scans_of_other_records(monkeypatch, b, c):
    monkeypatch.setitem(bd._PARAMS, 1, bd.VanishingParams(
        b, Fraction(1), Fraction(25), Fraction(1, 5), c, 3))
    expected = [k for k in range(1, 1001) if not fraction_condition3_holds(k, 1)]
    assert expected and bd.condition3_failures(1, 1000) == expected
    sc = bd.SCAN_CASES["d1"]
    verdicts = [sc.passes(n) for n in range(1, 1001)]
    assert verdicts == [fraction_passes(sc, n) for n in range(1, 1001)]
    assert any(verdicts) and not all(verdicts)


def test_scan_horizon_guard():
    with pytest.raises(RangeError):
        bd.threshold_scan("d1", 100)
    with pytest.raises(UnsupportedError):
        bd.threshold_scan("nope")


def test_exceptional_filtrations():
    facts = bd.exceptional_filtrations()
    assert {n: f.filtration for n, f in facts.items()} == {
        16: 5, 17: 7, 24: 13, 25: 11, 32: 16, 33: 17, 40: 24, 41: 25}
    assert facts[16].formula == "2M2-1"
    assert facts[25].formula == "2M2-5"
    assert facts[32].formula == "2M2-4"
    assert facts[41].formula == "2M2-5"
    assert 26 not in facts


@given(st.integers(1, 10**6))
@settings(max_examples=200, deadline=None)
def test_v2_multiplicative_property(k):
    assert bd.v2(2 * k) == bd.v2(k) + 1
    if k % 2:
        assert bd.v2(k) == 0


@given(st.integers(1, 100000))
@settings(max_examples=100, deadline=None)
def test_everything_exact_rational(n):
    # verdict path values are Fraction/int, never float
    row = bd.table1(n, n)[0]
    assert isinstance(row.rhs, Fraction)
    assert isinstance(row.lhs, int)
