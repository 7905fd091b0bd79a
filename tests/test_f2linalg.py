"""GF(2) linear algebra: oracle comparison, rank-nullity, solve round-trips."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hcm import f2linalg as f2
from hcm.errors import ContractViolationError


def naive_rref(rows, cols):
    """Unpacked Gaussian elimination on lists of 0/1, no shared code."""
    m = [list(r) for r in rows]
    nrows = len(m)
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(nrows):
            if i != r and m[i][c]:
                m[i] = [(a + b) % 2 for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def from_lists(rows, cols):
    """Pack lists of 0/1 into a matrix: entry j of a row is bit j."""
    return f2.F2Matrix(len(rows), cols, tuple(sum(b << j for j, b in enumerate(r)) for r in rows))


def to_lists(m):
    """Unpack a matrix into lists of 0/1."""
    return [[(r >> j) & 1 for j in range(m.cols)] for r in m.data]


def parity_product(m, x):
    """m·x over GF(2), the vector packed like a row."""
    out = 0
    for i, r in enumerate(m.data):
        if (r & x).bit_count() & 1:
            out |= 1 << i
    return out


def identity(n):
    return f2.F2Matrix(n, n, tuple(1 << i for i in range(n)))


def test_rref_identity():
    m = identity(3)
    r, piv = f2.rref(m)
    assert r == m
    assert piv == (0, 1, 2)


def test_rref_hand_example():
    m = from_lists([[1, 1], [1, 1]], 2)
    r, piv = f2.rref(m)
    assert to_lists(r) == [[1, 1], [0, 0]]
    assert piv == (0,)


def test_rref_zero_matrix():
    m = f2.F2Matrix.zero(2, 4)
    r, piv = f2.rref(m)
    assert r == m
    assert piv == ()


def test_rref_idempotent_random():
    rng = random.Random(7)
    for _ in range(100):
        rows, cols = rng.randrange(1, 10), rng.randrange(1, 10)
        m = f2.F2Matrix(rows, cols, tuple(rng.getrandbits(cols) for _ in range(rows)))
        r, piv = f2.rref(m)
        r2, piv2 = f2.rref(r)
        assert r2 == r and piv2 == piv


def test_rref_exhaustive_4x4_against_oracle():
    for bits in range(1 << 16):
        rows = [(bits >> (4 * i)) & 15 for i in range(4)]
        m = f2.F2Matrix(4, 4, tuple(rows))
        got, piv = f2.rref(m)
        want, want_piv = naive_rref(to_lists(m), 4)
        assert to_lists(got) == want
        assert list(piv) == want_piv


def test_rref_random_8x8_against_oracle():
    rng = random.Random(3)
    for _ in range(300):
        rows = rng.randrange(1, 9)
        cols = rng.randrange(1, 9)
        m = f2.F2Matrix(rows, cols, tuple(rng.getrandbits(cols) for _ in range(rows)))
        got, piv = f2.rref(m)
        want, want_piv = naive_rref(to_lists(m), cols)
        assert to_lists(got) == want and list(piv) == want_piv


def test_rref_preserves_row_space():
    rng = random.Random(11)
    for _ in range(50):
        m = f2.F2Matrix(6, 9, tuple(rng.getrandbits(9) for _ in range(6)))
        r, _ = f2.rref(m)
        span_before = f2.span(m.data, m.cols)
        for row in r.data:
            assert span_before.reduce(row) == 0
        span_after = f2.span(r.data, r.cols)
        for row in m.data:
            assert span_after.reduce(row) == 0


def test_kernel_examples():
    assert f2.kernel(identity(2)).basis == ()
    k = f2.kernel(from_lists([[1, 1]], 2))
    assert k.basis == (0b11,)
    k = f2.kernel(f2.F2Matrix.zero(1, 3))
    assert k.dim == 3 and k.ambient_dim == 3
    # rows 0 and 1 are equal, row 2 is independent: one relation
    k = f2.kernel(f2.F2Matrix(3, 2, (0b01, 0b01, 0b10)).transpose())
    assert k.basis == (0b011,) and k.ambient_dim == 3


def test_kernel_vectors_annihilate():
    rng = random.Random(5)
    for _ in range(80):
        rows, cols = rng.randrange(1, 12), rng.randrange(1, 12)
        m = f2.F2Matrix(rows, cols, tuple(rng.getrandbits(cols) for _ in range(rows)))
        ker = f2.kernel(m)
        for v in ker.basis:
            assert parity_product(m, v) == 0
        # reduced echelon: pivots (lowest set bits) strictly increase and
        # each pivot column is a unit column
        pivots = [(v & -v).bit_length() - 1 for v in ker.basis]
        assert tuple(ker.piv) == tuple(pivots)
        assert all(a < b for a, b in zip(pivots, pivots[1:]))
        for i, p in enumerate(pivots):
            assert [(v >> p) & 1 for v in ker.basis] == [int(j == i) for j in range(ker.dim)]


@given(st.integers(0, 64), st.integers(0, 64), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
@example(0, 5, random.Random(0))
@example(5, 0, random.Random(0))
@example(0, 0, random.Random(0))
def test_rank_nullity(rows, cols, rng):
    # about a quarter of the rows are zero; 0 x n and n x 0 shapes included
    m = f2.F2Matrix(rows, cols, tuple(rng.getrandbits(cols) if rng.random() < 0.75 else 0
                                      for _ in range(rows)))
    rank = len(f2.echelon(m.data))
    assert rank + f2.kernel(m).dim == cols
    assert rank == len(f2.rref(m)[1])


def test_rank_invariant_under_permutation():
    rng = random.Random(19)
    for _ in range(30):
        m = f2.F2Matrix(7, 7, tuple(rng.getrandbits(7) for _ in range(7)))
        rows = list(m.data)
        rng.shuffle(rows)
        i, j = rng.sample(range(7), 2)
        rows[i] ^= rows[j]  # an elementary row operation
        rank = len(f2.echelon(m.data))
        assert len(f2.echelon(rows)) == rank
        assert len(f2.echelon(m.transpose().data)) == rank


def test_solve_identity():
    m = identity(4)
    assert f2.solve(m, 0b1010) == 0b1010


def test_solve_no_solution():
    m = from_lists([[1, 1], [0, 0]], 2)
    assert f2.solve(m, 0b10) is None


def test_solve_underdetermined():
    m = from_lists([[1, 1]], 2)
    x = f2.solve(m, 0b1)
    assert x is not None and parity_product(m, x) == 0b1


def test_solve_round_trip_random():
    # 0 x n and n x 0 systems included; about a quarter of the rows are zero
    rng = random.Random(23)
    for _ in range(300):
        rows, cols = rng.randrange(0, 10), rng.randrange(0, 10)
        m = f2.F2Matrix(rows, cols, tuple(rng.getrandbits(cols) if rng.random() < 0.75 else 0
                                          for _ in range(rows)))
        b = rng.getrandbits(rows)
        x = f2.solve(m, b)
        if x is not None:
            assert parity_product(m, x) == b and x >> cols == 0
        else:
            # b outside the column space: confirm by brute force when small.
            if cols <= 8:
                assert all(parity_product(m, v) != b for v in range(1 << cols))


def test_solve_dimension_mismatch():
    m = identity(2)
    with pytest.raises(ContractViolationError):
        f2.solve(m, 0b111)


def test_matrix_bits_beyond_cols_rejected():
    with pytest.raises(ContractViolationError):
        f2.F2Matrix(1, 2, (0b100,))


def test_transpose_involution():
    rng = random.Random(31)
    m = f2.F2Matrix(5, 8, tuple(rng.getrandbits(8) for _ in range(5)))
    assert m.transpose().transpose() == m
    for rows, cols in itertools.product(range(4), range(4)):
        m = f2.F2Matrix(rows, cols, tuple(rng.getrandbits(cols) for _ in range(rows)))
        t = m.transpose()
        assert (t.rows, t.cols) == (cols, rows)
        entries = to_lists(m)
        assert to_lists(t) == [[entries[i][j] for i in range(rows)] for j in range(cols)]


def full_rref_relations(rows, width):
    """The rows of the full RREF of [rows | I] that pivot in the identity block."""
    nrows = len(rows)
    aug = [[(r >> j) & 1 for j in range(width)] + [int(i == k) for k in range(nrows)]
           for i, r in enumerate(rows)]
    red, pivots = naive_rref(aug, width + nrows)
    return [sum(b << j for j, b in enumerate(row[width:]))
            for row, p in zip(red, pivots) if p >= width]


def rows_with_relations(nrows, width, rng):
    """About a quarter of the rows are zero and some repeat an earlier row,
    so relations are common."""
    rows = []
    for _ in range(nrows):
        x = rng.random()
        rows.append(0 if x < 0.25 else rng.choice(rows) if rows and x < 0.4
                    else rng.getrandbits(width))
    return rows


@given(st.integers(0, 40), st.integers(0, 40), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
@example(0, 0, random.Random(0))
@example(5, 0, random.Random(0))
def test_relations_match_echelon_and_a_full_rref(nrows, width, rng):
    rows = rows_with_relations(nrows, width, rng)
    rels = f2.relations(rows)
    assert len(rels) == nrows - len(f2.top_echelon(rows))
    for rel in rels:
        acc = 0
        for i in range(nrows):
            if (rel >> i) & 1:
                acc ^= rows[i]
        assert acc == 0
    # Each relation's top bit is its own row's: a row in the span of the
    # rows before it, so solve can read b's relation as the last.
    dependent = [i for i in range(nrows)
                 if len(f2.echelon(rows[:i + 1])) == len(f2.echelon(rows[:i]))]
    assert [rel.bit_length() - 1 for rel in rels] == dependent
    assert list(f2.reduced_basis(rels)) == full_rref_relations(rows, width)


@given(st.integers(0, 40), st.integers(0, 40), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
@example(0, 0, random.Random(0))
@example(5, 0, random.Random(0))
def test_top_echelon_has_the_rank_and_the_span_of_echelon(nrows, width, rng):
    rows = rows_with_relations(nrows, width, rng)
    top = f2.top_echelon(rows)
    assert len(top) == len(f2.echelon(rows))
    assert all(row.bit_length() == k for k, row in top.items())
    assert f2.echelon(top.values()).keys() == f2.echelon(rows).keys()
    assert list(f2.reduced_basis(top.values())) == list(f2.reduced_basis(rows))


@given(st.integers(0, 40), st.integers(0, 40), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
@example(0, 0, random.Random(0))
@example(5, 0, random.Random(0))
def test_relations_and_rank_match_a_full_rref(nrows, width, rng):
    # about a quarter of the rows are zero, so relations are common
    rows = [rng.getrandbits(width) if rng.random() < 0.75 else 0 for _ in range(nrows)]
    want = full_rref_relations(rows, width)
    m = f2.F2Matrix(nrows, width, tuple(rows))
    got = f2.kernel(m.transpose())  # the relations among m's rows
    assert list(got.basis) == want and all(v >> nrows == 0 for v in got.basis)
    assert len(f2.echelon(rows)) == len(f2.rref(m)[1]) == nrows - len(want)


@given(st.integers(0, 24), st.integers(0, 24), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
@example(0, 0, random.Random(0))
@example(4, 0, random.Random(0))
def test_echelon_reduce_matches_the_reduced_span(nrows, width, rng):
    # about a quarter of the rows are zero, so dependent rows are common
    rows = [rng.getrandbits(width) if rng.random() < 0.75 else 0 for _ in range(nrows)]
    piv = f2.echelon(rows)
    sub = f2.span(rows, width)
    assert len(piv) == len(f2.rref(f2.F2Matrix(nrows, width, tuple(rows)))[1])
    for _ in range(8):
        v = rng.getrandbits(width)
        red = f2.reduce(piv, v)
        assert red == sub.reduce(v)
        assert all(not (red >> c) & 1 for c in piv)
        assert len(f2.echelon(rows + [red ^ v])) == len(piv)  # same coset as v
        # a nonzero representative joins the table at its lowest bit, as the
        # resolver grows it; the table then spans rows + [v]
        if red:
            piv[(red & -red).bit_length() - 1] = red
            rows.append(v)
            sub = f2.span(rows, width)
            assert len(piv) == sub.dim
