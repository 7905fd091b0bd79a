"""Adem reduction, admissible bases, product structure."""

from __future__ import annotations

import random
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcm import steenrod as sq
from hcm.errors import ContractViolationError
from hcm.steenrod import SqSum


def straighten(word):
    """Sq^{word[0]}...Sq^{word[-1]} in the admissible basis, by the package's Adem tables."""
    return sq._from_mask(sq._apply(tuple(word), 0, 1), sum(word))


def xor_terms(terms):
    """The sum of the monomials that occur an odd number of times in ``terms``."""
    acc = set()
    for t in terms:
        acc ^= {t}
    return SqSum(tuple(sorted(acc, reverse=True)))


def brute_admissible_count(deg: int) -> int:
    """Independent recursion: sequences i_1 >= 2 i_2 >= 4 i_3 >= ... of weight deg."""

    def count(remaining, cap):
        if remaining == 0:
            return 1
        total = 0
        for first in range(1, min(remaining, cap) + 1):
            total += count(remaining - first, first // 2)
        return total

    return count(deg, deg)


def test_adem_examples():
    assert straighten((1, 1)).is_zero
    assert straighten((2, 2)).terms == ((3, 1),)
    assert straighten((3,)).terms == ((3,),)


def test_adem_known_relations():
    assert straighten((1, 2)).terms == ((3,),)
    assert straighten((2, 3)).terms == ((5,), (4, 1))
    assert straighten((3, 2)).is_zero
    assert straighten((1, 3)).is_zero
    assert straighten((2, 4)).terms == ((6,), (5, 1))


def test_adem_preserves_degree():
    rng = random.Random(2)
    for _ in range(200):
        word = tuple(rng.randrange(1, 9) for _ in range(rng.randrange(1, 5)))
        out = straighten(word)
        assert out.is_zero or out.degree == sum(word)


def test_basis_examples():
    assert sq.basis(0) == ((),)
    assert sq.basis(3) == ((2, 1), (3,))
    assert set(sq.basis(7)) == {(7,), (6, 1), (5, 2), (4, 2, 1)}


def test_basis_is_sorted_and_admissible():
    for d in range(15):
        mons = sq.basis(d)
        assert list(mons) == sorted(mons)
        assert all(sq.is_admissible(m) and sum(m) == d for m in mons)


def test_basis_matches_recursive_enumeration():
    # Admissible sequences by their first letter, from the largest down.
    def gen(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for tail in gen(remaining - first, first // 2):
                yield (first,) + tail

    for d in range(41):
        assert sq.basis(d) == tuple(sorted(gen(d, d))), d


def test_basis_counts_match_brute_force():
    for d in range(31):
        assert len(sq.basis(d)) == brute_admissible_count(d)


admissible_mons = st.integers(1, 10).flatmap(
    lambda d: st.sampled_from(sq.basis(d)))


@given(admissible_mons)
@settings(max_examples=100, deadline=None)
def test_adem_idempotent_on_admissibles(mon):
    assert straighten(mon).terms == (mon,)


@given(admissible_mons, admissible_mons, admissible_mons)
@settings(max_examples=150, deadline=None)
def test_product_associative(a, b, c):
    # total degree <= 30 by construction (each factor <= 10)
    x, y, z = SqSum((a,)), SqSum((b,)), SqSum((c,))
    assert sq.product(sq.product(x, y), z) == sq.product(x, sq.product(y, z))


def test_associativity_exhaustive_low_degrees():
    for d1 in range(1, 7):
        for d2 in range(1, 7):
            for d3 in range(1, 13 - d1 - d2):
                for a in sq.basis(d1):
                    for b in sq.basis(d2):
                        for c in sq.basis(d3):
                            x, y, z = SqSum((a,)), SqSum((b,)), SqSum((c,))
                            assert (sq.product(sq.product(x, y), z)
                                    == sq.product(x, sq.product(y, z)))


def test_adem_against_independent_rewriter():
    # the test_resolution oracle straightens with its own Adem formula
    from test_resolution import bf_adem

    rng = random.Random(17)
    for _ in range(400):
        word = tuple(rng.randrange(1, 10) for _ in range(rng.randrange(1, 5)))
        assert set(straighten(word).terms) == set(bf_adem(word))


def test_product_unit():
    x, unit = straighten((4, 2, 1)), SqSum(((),))
    assert sq.product(unit, x) == x
    assert sq.product(x, unit) == x


def test_product_examples():
    sq1, sq2 = SqSum(((1,),)), SqSum(((2,),))
    assert sq.product(sq1, sq1).is_zero and sq.product(sq1, sq1) == SqSum(())
    assert sq.product(sq2, sq2).terms == ((3, 1),)


def test_product_bilinear():
    a = xor_terms([(3,), (2, 1)])
    b = SqSum(((2,),))
    parts = sq.product(SqSum(((3,),)), b).terms + sq.product(SqSum(((2, 1),)), b).terms
    assert sq.product(a, b) == xor_terms(parts)


sq_sums = st.integers(0, 12).flatmap(
    lambda d: st.lists(st.sampled_from(sq.basis(d)), unique=True).map(xor_terms))


@given(sq_sums, sq_sums)
@settings(max_examples=150, deadline=None)
def test_product_matches_monomial_products(a, b):
    # Oracle: the pairwise path, one monomial product per pair of terms.
    def pairwise(x, y):
        acc = set()
        for ma in x.terms:
            for mb in y.terms:
                acc.symmetric_difference_update(sq.monomial_product(ma, mb).terms)
        return xor_terms(acc)

    assert sq.product(a, b) == pairwise(a, b)
    unit = SqSum(((),))
    assert sq.product(unit, b) == pairwise(unit, b) == b
    assert sq.product(a, unit) == pairwise(a, unit) == a


def test_sqsum_canonical_form_enforced():
    with pytest.raises(ContractViolationError):
        SqSum(((1,), (3,)))  # mixed degrees
    with pytest.raises(ContractViolationError):
        SqSum(((1, 1),))  # inadmissible
    with pytest.raises(ContractViolationError):
        SqSum(((3,), (2, 1), (3,)))  # duplicate / unsorted


def test_choose_mod2_lucas():
    from math import comb
    for m in range(40):
        for n in range(40):
            assert sq.choose_mod2(m, n) == (comb(m, n) % 2 if 0 <= n <= m else 0)


def test_sq_masks_match_left_multiplication():
    # sq_masks comes from its own bitmask recursion over first_letters;
    # _left_mul straightens through _adem_pair and its own position index,
    # so each table is an independent check of the other.
    for d in range(0, 64):
        for i in range(1, 65 - d):
            masks = sq.sq_masks(i, d)
            assert len(masks) == len(sq.basis(d))
            assert masks == sq._left_mul(i, d), (i, d)


@given(st.integers(0, 9), st.integers(0, 12), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_right_masks_match_monomial_products(d, e, rng):
    # Oracle: row k is the sum, over the terms of a, of
    # monomial_product(basis(e)[k], term), with no mask table involved.
    mons = sq.basis(d)
    a = rng.getrandbits(len(mons))
    pos = {mon: p for p, mon in enumerate(sq.basis(e + d))}
    want = []
    for mon in sq.basis(e):
        row = 0
        for b in range(len(mons)):
            if a >> b & 1:
                for m2 in sq.monomial_product(mon, mons[b]).terms:
                    row ^= 1 << pos[m2]
        want.append(row)
    assert sq.right_masks(a, d, e) == want


def test_right_masks_under_concurrent_first_use():
    # Threads that lay out the same tables at once, with the interpreter
    # switching threads as often as it can, must each read every degree
    # whole: a degree laid out twice, or read half-built, shifts the rows.
    sums = [(a, d) for d in range(1, 9) for a in range(1, 1 << len(sq.basis(d)))]
    want = [sq.right_masks(a, d, e) for e in range(16) for a, d in sums]

    def lay_out():
        return [sq.right_masks(a, d, e) for e in range(16) for a, d in sums]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            for _ in range(10):
                sq._right_tables.clear()
                futures = [pool.submit(lay_out) for _ in range(8)]
                results = [f.result(timeout=120) for f in futures]
                assert all(got == want for got in results)
    finally:
        sys.setswitchinterval(interval)


def test_first_letters_split_each_monomial():
    for deg in range(1, 25):
        for mon, (i, j) in zip(sq.basis(deg), sq.first_letters(deg)):
            assert (i,) + sq.basis(deg - i)[j] == mon


# -- Cartan oracle -------------------------------------------------------------
#
# The Steenrod algebra acts on F2[x1..xk] through Sq(x) = x + x^2 and the
# Cartan formula, so Sq^j x^e = C(e, j) x^(e+j) and Sq^n of a monomial sums
# over the ways to spread n across its variables.  An element of degree
# <= k acts faithfully on x1...xk, so equal actions there mean equal
# elements.  The oracle reads no Adem relation and no package helper.


def _cartan_sq(n, poly):
    """Sq^n on a polynomial given as a set of exponent tuples."""
    out = set()
    for mono in poly:
        def spread(m, left):
            if m == len(mono):
                if left == 0:
                    yield ()
                return
            e = mono[m]
            for j in range(min(e, left) + 1):
                if comb(e, j) % 2:
                    for tail in spread(m + 1, left - j):
                        yield (e + j,) + tail
        out.symmetric_difference_update(spread(0, n))
    return frozenset(out)


@lru_cache(maxsize=None)
def _cartan_act(word, k):
    """Sq^{word[0]}...Sq^{word[-1]} on x1...xk."""
    if not word:
        return frozenset({(1,) * k})
    return _cartan_sq(word[0], _cartan_act(word[1:], k))


def _cartan_sum(terms, k):
    out = set()
    for t in terms:
        out.symmetric_difference_update(_cartan_act(t, k))
    return out


def test_products_and_masks_match_cartan_action():
    top = 9
    for total in range(1, top + 1):
        for d in range(total + 1):
            for a in sq.basis(d):
                for b in sq.basis(total - d):
                    got = sq.product(SqSum((a,)), SqSum((b,))).terms
                    assert _cartan_sum(got, total) == _cartan_act(a + b, total), (a, b)
        target = sq.basis(total)
        for i in range(1, total + 1):
            for mon, mask in zip(sq.basis(total - i), sq.sq_masks(i, total - i)):
                got = [target[p] for p in range(len(target)) if (mask >> p) & 1]
                assert _cartan_sum(got, total) == _cartan_act((i,) + mon, total), (i, mon)
