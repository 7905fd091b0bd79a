"""Filtration-bound arithmetic: h, M1, M2, vanishing-line records, scans.

Everything on a verdict path is exact: integers and
:class:`fractions.Fraction`, no floats.  The printed reference values
that the formulas are checked against live here as data, and any cell
where formula and printed value disagree is emitted with a discrepancy
marker instead of silently preferring either.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple, Optional

from .errors import ContractViolationError, InternalError, RangeError, UnsupportedError, checked

# Count of 0 < s <= r with s mod 8 in {0,1,2,4}, for r = 0..7.
_PARTIAL = (0, 1, 2, 2, 3, 3, 3, 3)


def h(k: int) -> int:
    """Number of 0 < s <= k congruent to 0, 1, 2 or 4 mod 8."""
    if k < 0:
        raise ContractViolationError("h is defined for k >= 0")
    return 4 * (k // 8) + _PARTIAL[k % 8]


def m1(n: int) -> int:
    """h(n-1) - floor(log2(n+3)) + 1."""
    if n < 1:
        raise ContractViolationError("n >= 1 required")
    return h(n - 1) - (n + 3).bit_length() + 2


def m2(n: int) -> int:
    """h(n-1) - floor(log2(2n+2)) + 1."""
    if n < 1:
        raise ContractViolationError("n >= 1 required")
    return h(n - 1) - (2 * n + 2).bit_length() + 2


# Left-hand sides under the names the paper prints them with.
_FORMULAS = {
    "2M1-3": lambda n: 2 * m1(n) - 3,
    "2M2-1": lambda n: 2 * m2(n) - 1,
    "2M2-4": lambda n: 2 * m2(n) - 4,
    "2M2-5": lambda n: 2 * m2(n) - 5,
}


def v2(k: int) -> int:
    """2-adic valuation; undefined at 0."""
    if k <= 0:
        raise ContractViolationError("v2 needs a positive integer")
    return (k & -k).bit_length() - 1


def davis_mahowald(k: int) -> Fraction:
    """The filtration threshold 3k/10 + 4 + v2(k+2) + v2(k+1)."""
    if k < 1:
        raise ContractViolationError("k >= 1 required")
    return Fraction(3 * k, 10) + 4 + v2(k + 2) + v2(k + 1)


@checked
class VanishingParams(NamedTuple):
    """The five-tuple (b <= d, v, m, c, r) of a banded vanishing line."""

    b: Fraction
    d: Fraction
    v: Fraction
    m: Fraction
    c: Fraction
    r: int

    def _check(self):
        if self.b > self.d:
            raise ContractViolationError("need b <= d")
        if self.r < 1:
            raise ContractViolationError("need r >= 1")


_PARAMS = {
    1: VanishingParams(Fraction(-3, 2), Fraction(1), Fraction(25), Fraction(1, 5),
                       Fraction(5), 3),
    2: VanishingParams(Fraction(-9, 2), Fraction(2), Fraction(45), Fraction(1, 5),
                       Fraction(9), 6),
    3: VanishingParams(Fraction(-15, 2), Fraction(3), Fraction(205, 3), Fraction(1, 5),
                       Fraction(13), 10),
}


def vanishing_params(l: int) -> VanishingParams:
    """Builtin vanishing-line parameters for the mod 2^l Moore object, l = 1, 2, 3."""
    if l not in _PARAMS:
        raise UnsupportedError(f"no vanishing-line record for l = {l}")
    return _PARAMS[l]


class Condition(NamedTuple):
    name: str
    lhs: Fraction
    rhs: Fraction

    @property
    def holds(self) -> bool:
        return self.lhs >= self.rhs

    @property
    def margin(self) -> Fraction:
        return self.lhs - self.rhs


class AfJReport(NamedTuple):
    """The three image-of-J conditions for a mod 2^l class in stem k, filtration s."""

    k: int
    s: Fraction
    l: int
    conditions: tuple[Condition, ...]

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.conditions)


def check_af_j(k: int, s, l: int) -> AfJReport:
    """Evaluate the three conditions with exact rational margins.

    (1) s + l - 1 >= (k+1)/5 + c;  (2) k + 1 >= v;
    (3) (k+1)/2 + b - l + 1 >= 3k/10 + 4 + v2(k+2) + v2(k+1).
    """
    p = vanishing_params(l)
    s = Fraction(s)
    conds = (
        Condition("filtration", s + l - 1, Fraction(k + 1, 5) + p.c),
        Condition("stem", Fraction(k + 1), p.v),
        Condition("davis-mahowald", Fraction(k + 1, 2) + p.b - l + 1, davis_mahowald(k)),
    )
    return AfJReport(k, s, l, conds)


# Threshold above which condition (3) is asserted in the source analysis,
# per l; flagged there for double-checking, so scans verify sufficiency
# and also report the true minimal stem.
STATED_COND3_K = {1: 52, 2: 78, 3: 98}


def condition3_failures(l: int, horizon: int) -> list[int]:
    """The stems 1 <= k <= horizon at which condition (3) fails.

    Condition (3) is multiplied through by lcm(10, denominator of b),
    so each stem costs integer arithmetic only.
    """
    b = vanishing_params(l).b
    scale = lcm(10, b.denominator)
    half, three_tenths = scale // 2, 3 * scale // 10
    # scale·((k+1)/2 + b - l + 1 - 4) >= scale·(3k/10 + v2(k+2) + v2(k+1))
    const = half + b.numerator * (scale // b.denominator) - scale * (l + 3)
    return [k for k in range(1, horizon + 1)
            if half * k + const < three_tenths * k + scale * (v2(k + 2) + v2(k + 1))]


def condition3_scan(l: int, horizon: int = 4096) -> dict:
    """Verify the stated k-threshold for condition (3) and find the true one.

    Returns the stated bound, whether all k >= stated pass up to the
    horizon, the true minimal k from which the condition always holds,
    and a tail certificate: the margin k/5 - v2(k+2) - v2(k+1) - const
    exceeds k/5 - log2(k+2) - 1 - const, which is increasing and
    positive well before the horizon.
    """
    if horizon < 256:
        raise RangeError("horizon must be at least 256")
    p = vanishing_params(l)
    failures = condition3_failures(l, horizon)
    last_fail = failures[-1] if failures else 0
    stated = STATED_COND3_K[l]
    # Tail: need k/5 >= (7/2 + l - b) + v2(k+1) + v2(k+2); the valuation sum
    # is at most log2(k+2) + 1, and k/5 - log2(k+2) grows without bound.
    const = Fraction(7, 2) + l - p.b
    tail_ok = Fraction(horizon, 5) - ((horizon + 2).bit_length() + 1) >= const
    return {
        "l": l,
        "stated_k": stated,
        "stated_sufficient": last_fail < stated and tail_ok,
        "true_minimal_k": last_fail + 1,
        "tail_certified": tail_ok,
        "horizon": horizon,
    }


# -- the inequality table -----------------------------------------------------

# Printed reference row of lower-bound values, by n.
PRINTED_2M1_MINUS_3 = {25: 15, 26: 17, 27: 19, 28: 19, 29: 19, 30: 19, 31: 19, 32: 21}


class TableRow(NamedTuple):
    n: int
    lhs: int  # 2 M1 - 3
    rhs: Fraction  # 2n/5 + 26/5
    printed: Optional[int]

    @property
    def verdict(self) -> bool:
        return self.lhs >= self.rhs

    @property
    def discrepancy(self) -> bool:
        return self.printed is not None and self.printed != self.lhs


def table1(from_n: int, to_n: int) -> list[TableRow]:
    """Rows (n, 2M1-3, 0.4n + 5.2) with printed-value cross-checks."""
    if from_n > to_n:
        raise ContractViolationError("empty range")
    d1 = SCAN_CASES["d1"]
    return [TableRow(n, d1.lhs(n), d1.rhs(n), PRINTED_2M1_MINUS_3.get(n))
            for n in range(from_n, to_n + 1)]


# -- threshold scans ----------------------------------------------------------


class ScanCase(NamedTuple):
    name: str
    residues: tuple[int, ...]
    citation: str
    stated_n: int
    l: int  # Moore-object exponent, fixes the side condition on 2n
    formula: str  # key into _FORMULAS

    def lhs(self, n: int) -> int:
        return _FORMULAS[self.formula](n)

    def rhs(self, n: int) -> Fraction:
        c = vanishing_params(self.l).c
        return Fraction(2 * n + 1, 5) + c

    def side_ok(self, n: int) -> bool:
        return 2 * n >= STATED_COND3_K[self.l]

    def passes(self, n: int) -> bool:
        # lhs >= (2n+1)/5 + c, multiplied through by lcm(5, denominator of c)
        c = vanishing_params(self.l).c
        scale = lcm(5, c.denominator)
        return self.side_ok(n) and (
            scale * self.lhs(n)
            >= (scale // 5) * (2 * n + 1) + c.numerator * (scale // c.denominator))


SCAN_CASES = {
    "d1": ScanCase("d1", (0, 1, 4), "Prop 5.6", 26, 1, "2M1-3"),
    "d2_mod0": ScanCase("d2_mod0", (0,), "Prop 5.8", 48, 2, "2M2-4"),
    "d2_mod1": ScanCase("d2_mod1", (1,), "Prop 5.8", 49, 3, "2M2-5"),
}


class DominanceCertificate(NamedTuple):
    """Per-8-block growth: lhs gains >= 8 - 2 (one log step at most), rhs 16/5."""

    lhs_block_growth_min: int
    rhs_block_growth: Fraction
    min_tail_margin: Fraction
    certified: bool


class ScanResult(NamedTuple):
    case: str
    N: int
    horizon: int
    citation: str
    stated_n: int
    dominance: DominanceCertificate
    condition3: dict

    @property
    def matches_stated(self) -> bool:
        return self.N == self.stated_n


def threshold_scan(case: str, horizon: int = 4096) -> ScanResult:
    """Minimal N with inequality + side conditions holding for all admissible n >= N.

    For the single-residue cases the returned N is normalized into the
    residue class (the form in which the threshold is quoted); for the
    mixed-residue case it is the plain successor of the last failure,
    which there coincides with the side-condition boundary.
    """
    if horizon < 256:
        raise RangeError("horizon must be at least 256")
    try:
        sc = SCAN_CASES[case]
    except KeyError:
        raise UnsupportedError(f"unknown scan case {case!r}") from None
    admissible = [n for n in range(1, horizon + 1) if n % 8 in sc.residues]
    failures = [n for n in admissible if not sc.passes(n)]
    n0 = (failures[-1] + 1) if failures else admissible[0]
    if len(sc.residues) == 1:
        r = sc.residues[0]
        while n0 % 8 != r:
            n0 += 1

    # Dominance: across one 8-block the lhs gains 2*4 from h and loses at
    # most 2 from one floor-log step, the rhs gains 16/5; so the margins
    # persist beyond any horizon once every admissible n of the last
    # block passes.
    tail = [n for n in admissible if n >= horizon - 7]
    cert = DominanceCertificate(
        lhs_block_growth_min=6,
        rhs_block_growth=Fraction(16, 5),
        min_tail_margin=min(Fraction(sc.lhs(n)) - sc.rhs(n) for n in tail),
        certified=all(sc.passes(n) for n in tail),
    )
    return ScanResult(case=case, N=n0, horizon=horizon, citation=sc.citation,
                      stated_n=sc.stated_n, dominance=cert,
                      condition3=condition3_scan(sc.l, horizon))


# -- exceptional filtrations ---------------------------------------------------

_QUOTED_FILTRATIONS = {
    16: (5, "2M2-1", "Lemma 6.11"),
    17: (7, "2M2-1", "Lemma 6.11"),
    24: (13, "2M2-1", "Lemma 6.11"),
    25: (11, "2M2-5", "Prop 5.9"),
    32: (16, "2M2-4", "Prop 5.9"),
    33: (17, "2M2-5", "Prop 5.9"),
    40: (24, "2M2-4", "Prop 5.9"),
    41: (25, "2M2-5", "Prop 5.9"),
}

class FiltrationFact(NamedTuple):
    n: int
    filtration: int
    formula: str
    citation: str


def exceptional_filtrations() -> dict[int, FiltrationFact]:
    """Required filtrations for the finitely many leftover n, by formula.

    Derivations are asserted against the quoted values; a mismatch is a
    data error, not a user error.
    """
    out = {}
    for n, (quoted, formula, cite) in _QUOTED_FILTRATIONS.items():
        value = _FORMULAS[formula](n)
        if value != quoted:
            raise InternalError(
                f"derived filtration {value} for n={n} disagrees with quoted {quoted}")
        out[n] = FiltrationFact(n, value, formula, cite)
    return out

