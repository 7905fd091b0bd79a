"""Exact dense linear algebra over GF(2) with bit-packed rows.

Rows are stored as Python integers, one bit per entry (bit ``j`` of row
``i`` is the (i, j) entry), so XOR gives whole-row addition.  Values are
immutable, and matrices compare by shape and entries.

There is one forward elimination per pivot convention.  A rank, a span
or a relation space does not depend on which bit a row pivots on, so
``top_echelon``, which finds them all, pivots on a row's highest set
bit: ``x.bit_length()`` makes no new int, where the lowest bit costs
two (``-x`` and ``x & -x``).  ``relations`` runs it on rows tagged with
their index.  A named representative is pinned to the lowest bit:
``echelon``'s table, ``reduce``'s canonical coset representative, and
the reduced echelon bases of ``reduced_basis`` and ``rref``, which runs
``top_echelon`` on bit-reversed rows.  Every RREF, kernel and solution
comes from these.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import ContractViolationError, checked


def _low_bit(x: int) -> int:
    """Index of the least significant set bit of x > 0."""
    return (x & -x).bit_length() - 1


def _bits(x: int):
    """Yield set-bit indices of x in increasing order."""
    while x:
        b = x & -x
        yield b.bit_length() - 1
        x ^= b


@checked
class F2Matrix(NamedTuple):
    """A rows x cols matrix over GF(2); ``data[i]`` packs row i."""

    rows: int
    cols: int
    data: tuple[int, ...]

    def _check(self):
        if self.rows < 0 or self.cols < 0 or len(self.data) != self.rows:
            raise ContractViolationError("inconsistent matrix shape")
        bound = 1 << self.cols
        if any(r < 0 or r >= bound for r in self.data):
            raise ContractViolationError("row has bits beyond the last column")

    @staticmethod
    def zero(rows: int, cols: int) -> "F2Matrix":
        return F2Matrix(rows, cols, (0,) * rows)

    def transpose(self) -> "F2Matrix":
        if not self.rows:
            return F2Matrix.zero(self.cols, 0)
        # Character k of a reversed binary string is bit k, so zip() over
        # the rows' strings walks columns.  Blocks of 256 columns keep the
        # strings small.
        cols: list[int] = []
        for lo in range(0, self.cols, 256):
            w = min(256, self.cols - lo)
            strs = [format((r >> lo) & ((1 << w) - 1), f"0{w}b")[::-1] for r in self.data]
            cols.extend(int("".join(col)[::-1], 2) for col in zip(*strs))
        return F2Matrix(self.cols, self.rows, tuple(cols))


def top_echelon(rows: Iterable[int]) -> dict[int, int]:
    """Forward elimination on the highest set bit: bit length -> a row of that length.

    Its length is the rows' rank and its values are a basis of their
    span.  A row is reduced only until its top bit is free, so the rows
    are not reduced against each other.  This is the elimination for a
    rank, a span or ``relations``; where a representative is named, use
    ``echelon``.
    """
    piv: dict[int, int] = {}
    for row in rows:
        while row:
            other = piv.get(k := row.bit_length())
            if other is None:
                piv[k] = row
                break
            row ^= other
    return piv


def echelon(rows: Iterable[int]) -> dict[int, int]:
    """Forward elimination on the lowest set bit: pivot column -> a row whose lowest bit it is.

    A row is reduced only until its lowest bit lands in a free column, so
    the rows are not reduced against each other; ``reduce`` still gives
    the canonical representative modulo their span.  The keys are the
    span's pivot columns whatever rows span it, so ``echelon`` of
    ``top_echelon``'s values has the keys of ``echelon`` of the rows.
    """
    piv: dict[int, int] = {}
    for row in rows:
        while row:
            c = (row & -row).bit_length() - 1  # _low_bit, inlined in this hot loop
            other = piv.get(c)
            if other is None:
                piv[c] = row
                break
            row ^= other
    return piv


def reduce(piv: dict[int, int], v: int) -> int:
    """Canonical representative of v modulo the span of the rows in ``piv``.

    v's bits are walked upwards; a pivot bit is cleared by its row, which
    touches only higher bits.  The result has no bit in a pivot column,
    which makes it unique in its coset, whether or not ``piv`` is reduced.
    """
    out = 0
    while v:
        low = v & -v
        row = piv.get(low.bit_length() - 1)
        if row is None:
            out |= low
            v ^= low
        else:
            v ^= row
    return out


def relations(rows: Sequence[int]) -> list[int]:
    """A basis of the relations among rows, Bruner's ``[d | I]`` kernel, in row order.

    With n rows, ``top_echelon`` runs over ``row << n | 1 << i``: the tag
    rides through the XORs, and the row's key stays above n while its
    data is nonzero.  Rows before i carry tags below i only, so once the
    data cancels the top bit is the row's own tag, and it lands at key
    i + 1, which no other row takes.  The keys up to n are the relations,
    one for each row in the span of those before it.
    """
    n = len(rows)
    piv = top_echelon(row << n | 1 << i for i, row in enumerate(rows))
    return [rel for k, rel in piv.items() if k <= n]


def reduced_basis(vectors: Iterable[int]) -> Iterator[int]:
    """The unique reduced echelon basis of the span of ``vectors``, in increasing pivot order.

    A vector's pivot is its lowest set bit.  After ``echelon``, the row
    for pivot c has only bits above c besides, so clearing its lowest
    pivot bit over and over uses rows above c only.  The vectors are
    yielded one at a time; a caller that stops early pays for no more.
    """
    piv = echelon(vectors)
    mask = sum(1 << c for c in piv)
    for c in sorted(piv):
        row = piv[c] ^ 1 << c
        while low := row & mask:
            row ^= piv[(low & -low).bit_length() - 1]
        yield row | 1 << c


def _reverse(x: int, w: int) -> int:
    """The w-bit x with its bits in reverse order."""
    return int(format(x, f"0{w}b")[::-1], 2)


def rref(m: F2Matrix) -> tuple[F2Matrix, tuple[int, ...]]:
    """Reduced row-echelon form of ``m`` and its pivot columns.

    The rows are ``reduced_basis`` of m's, padded with zero rows, found
    on the top bit: reversed over m's columns, a row's lowest bit is its
    highest, so ``top_echelon`` of the reversed rows has the pivots, and
    a top-bit RREF of them, reversed back, is the low-bit one.  Each row,
    shortest first, has its other pivot bits cleared from the top by the
    rows already reduced below it, which bring in no pivot bit.
    """
    w = m.cols
    piv = top_echelon(_reverse(r, w) for r in m.data)
    mask = 0
    for k in sorted(piv):
        row = piv[k]
        while high := row & mask:
            row ^= piv[high.bit_length()]
        piv[k] = row
        mask |= 1 << k - 1
    keys = sorted(piv, reverse=True)  # increasing pivot column w - k
    out_rows = [_reverse(piv[k], w) for k in keys] + [0] * (m.rows - len(keys))
    return F2Matrix(m.rows, m.cols, tuple(out_rows)), tuple(w - k for k in keys)


class Subspace(NamedTuple):
    """A subspace of GF(2)^ambient_dim, basis in reduced echelon form.

    Basis vectors are bit-packed, linearly independent, and listed in
    strictly increasing pivot order; ``piv`` maps each pivot, the lowest
    set bit of a basis vector, to that vector, in the same order.
    """

    basis: tuple[int, ...]
    ambient_dim: int

    @property
    def piv(self) -> dict[int, int]:
        return {_low_bit(b): b for b in self.basis}

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, v: int) -> int:
        """Canonical coset representative of v modulo this subspace."""
        return reduce(self.piv, v)


def span(vectors: Iterable[int], ambient_dim: int) -> Subspace:
    rows = tuple(vectors)
    r, pivots = rref(F2Matrix(len(rows), ambient_dim, rows))
    return Subspace(r.data[: len(pivots)], ambient_dim)


def kernel(m: F2Matrix) -> Subspace:
    """Null space {x : m x = 0}: the reduced echelon basis of the ``relations``
    among m's columns.
    """
    return Subspace(tuple(reduced_basis(relations(m.transpose().data))), m.cols)


def solve(m: F2Matrix, b: int) -> Optional[int]:
    """Some x with m x = b, or None if b is outside the column space.

    ``b`` is a bit-packed vector of length ``m.rows``.  ``relations``
    runs over m's columns with b last.  b is in the column space exactly
    when its row cancels; its relation is then the last, as each one's
    top bit is its own row's, and without b's own tag it is x.
    """
    if b < 0 or b >> m.rows:
        raise ContractViolationError("right-hand side longer than row count")
    rels = relations(m.transpose().data + (b,))
    if rels and rels[-1] >> m.cols:
        return rels[-1] ^ 1 << m.cols
    return None
