"""The mod-2 Steenrod algebra in its admissible-monomial basis.

A monomial Sq^{i_1}...Sq^{i_k} is a tuple of positive ints; it is
admissible when i_j >= 2 i_{j+1} for all j.  Arbitrary words straighten
to sums of admissible monomials through the Adem relations

    Sq^a Sq^b = sum_c  C(b-c-1, a-2c) Sq^{a+b-c} Sq^c      (a < 2b),

with binomial coefficients mod 2 evaluated by Lucas' theorem.  The
engine carries a sum as a bitmask over ``basis(d)``; Sq^k alone is the
last element of ``basis(k)``.  Straightening applies a word one letter
at a time through ``_left_mul(i, d)``, the rows of Sq^i on ``basis(d)``,
which the Adem relation on the first letter builds from lower degrees;
``mask_product`` caches the mask of a product per pair of masks and
their degrees.  :class:`SqSum`, a canonically ordered GF(2) sum of
admissible monomials of one degree (``SqSum(())`` is zero,
``SqSum(((),))`` the unit), ``product`` and ``monomial_product`` remain
only for the benchmark tracer's probes; no other module names ``SqSum``.
The resolver reads two other tables, built by a separate bitmask
recursion over ``first_letters``: ``sq_masks``, the rows of Sq^i on
``basis(d)``, and ``right_masks``, the products of each ``basis(e)``
element with one fixed sum, each row Sq^i (from ``sq_masks``) on a row
of lower degree.  Both are per-process caches of the algebra.  The
resolver builds resolutions from them alone, while ``verify`` checks
d.d = 0, and a module's ``validate`` its Adem relations, from
``mask_product`` alone, so the two sides check each other.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from typing import NamedTuple, Sequence

from .errors import ContractViolationError, checked
from .f2linalg import _bits

SqMonomial = tuple  # tuple[int, ...]; the empty tuple is the unit


def choose_mod2(m: int, n: int) -> int:
    """C(m, n) mod 2; zero outside 0 <= n <= m (Lucas: n AND (m-n) == 0)."""
    if n < 0 or m < 0 or n > m:
        return 0
    return 0 if (n & (m - n)) else 1


def is_admissible(mon: Sequence[int]) -> bool:
    return all(mon[j] >= 2 * mon[j + 1] for j in range(len(mon) - 1))


@checked
class SqSum(NamedTuple):
    """A GF(2) sum of admissible monomials, all of one degree.

    ``terms`` is sorted descending, which makes equality canonical.  The
    zero sum is ``SqSum(())`` with degree ``None``; the unit is
    ``SqSum(((),))``.
    """

    terms: tuple[SqMonomial, ...]

    def _check(self):
        if list(self.terms) != sorted(set(self.terms), reverse=True):
            raise ContractViolationError("SqSum terms must be distinct and sorted")
        for t in self.terms:
            if not is_admissible(t):
                raise ContractViolationError(f"inadmissible monomial {t} in SqSum")
        if len({sum(t) for t in self.terms}) > 1:
            raise ContractViolationError("SqSum mixes degrees")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self):
        return sum(self.terms[0]) if self.terms else None


@lru_cache(maxsize=None)
def _adem_pair(a: int, b: int) -> frozenset:
    """Straighten Sq^a Sq^b with a < 2b into admissible monomials."""
    out = set()
    for c in range(a // 2 + 1):
        if choose_mod2(b - c - 1, a - 2 * c):
            mon = (a + b - c, c) if c > 0 else (a + b - c,)
            out.symmetric_difference_update({mon})
    return frozenset(out)


@lru_cache(maxsize=None)
def _index(deg: int) -> dict:
    """Position of each admissible monomial in ``basis(deg)``."""
    return {mon: p for p, mon in enumerate(basis(deg))}


@lru_cache(maxsize=None)
def _left_mul(i: int, d: int) -> tuple[int, ...]:
    """Sq^i (i >= 1) on ``basis(d)`` as bitmasks over ``basis(d + i)``, by straightening.

    Sq^i mon is admissible when i >= 2 mon[0]; otherwise ``_adem_pair``
    straightens Sq^i Sq^{mon[0]}, and each of its admissible heads is
    applied letter by letter to the rest of mon, whose degree is lower.
    """
    pos = _index(d + i)
    if d == 0:
        return (1 << pos[(i,)],)
    rows = []
    for mon in basis(d):
        a = mon[0]
        if i >= 2 * a:
            rows.append(1 << pos[(i,) + mon])
            continue
        rest, row = 1 << _index(d - a)[mon[1:]], 0
        for head in _adem_pair(i, a):
            row ^= _apply(head, d - a, rest)
        rows.append(row)
    return tuple(rows)


def _apply(word: Sequence[int], d: int, mask: int) -> int:
    """Sq^{word[0]}...Sq^{word[-1]} on a sum over ``basis(d)`` given as a mask.

    The result is a mask over ``basis(d + sum(word))``.
    """
    for letter in reversed(word):
        rows, out = _left_mul(letter, d), 0
        while mask:
            low = mask & -mask
            out ^= rows[low.bit_length() - 1]
            mask ^= low
        mask, d = out, d + letter
    return mask


def _from_mask(mask: int, d: int) -> SqSum:
    """The sum of the ``basis(d)`` elements at the set bits of mask."""
    mons = basis(d)
    return SqSum(tuple(mons[p] for p in reversed(list(_bits(mask)))))


@lru_cache(maxsize=None)
def mask_product(a: int, d: int, b: int, e: int) -> int:
    """a * b as a mask over ``basis(d + e)``, for masks a over ``basis(d)``, b over ``basis(e)``.

    Each left monomial is applied to the whole right sum at once, and
    the result is cached per (a, d, b, e).
    """
    acc, mons = 0, basis(d)
    for p in _bits(a):
        acc ^= _apply(mons[p], e, b)
    return acc


def _to_mask(s: SqSum) -> int:
    """The mask over ``basis(s.degree)`` of a nonzero sum."""
    pos = _index(s.degree)
    return sum(1 << pos[t] for t in s.terms)


def product(a: SqSum, b: SqSum) -> SqSum:
    """Concatenate-and-reduce product, bilinear over GF(2)."""
    if a.is_zero or b.is_zero:
        return SqSum(())
    d, e = a.degree, b.degree
    return _from_mask(mask_product(_to_mask(a), d, _to_mask(b), e), d + e)


@lru_cache(maxsize=None)
def monomial_product(ma: SqMonomial, mb: SqMonomial) -> SqSum:
    d = sum(mb)
    return _from_mask(_apply(ma, d, 1 << _index(d)[mb]), sum(ma) + d)


@lru_cache(maxsize=None)
def basis(deg: int) -> tuple[SqMonomial, ...]:
    """All admissible monomials of the given degree, lexicographically.

    Each is Sq^i rest with rest in ``basis(deg - i)`` and i >= 2 rest[0]
    (rest empty when i = deg), so the cached lower degrees build it, in
    order: by first letter, then by rest.
    """
    if deg < 0:
        return ()
    if deg == 0:
        return ((),)
    out = []
    for i in range(2, deg):
        for rest in basis(deg - i):
            if 2 * rest[0] > i:
                break
            out.append((i,) + rest)
    out.append((deg,))
    return tuple(out)


@lru_cache(maxsize=None)
def sq_masks(i: int, d: int) -> tuple[int, ...]:
    """Sq^i (i >= 1) on ``basis(d)`` as bitmasks over ``basis(d + i)``.

    Bit p of entry k is set when ``basis(d + i)[p]`` occurs in the
    admissible expansion of Sq^i times ``basis(d)[k]``.  Rows follow the
    Adem relations on bitmasks: with ``basis(d)[k]`` split as Sq^a rest,
    Sq^i Sq^a rest is admissible when i >= 2a, and otherwise the sum,
    over the c <= i/2 with C(a-c-1, i-2c) odd, of Sq^{i+a-c} applied to
    Sq^c rest.  Every row read on the right sits in a degree below d, so
    the recursion ends.
    """
    # Position in basis(d + i) of each admissible Sq^j rest', keyed (j, rest' index).
    pos = {key: p for p, key in enumerate(first_letters(d + i))}
    if d == 0:
        return (1 << pos[(i, 0)],)
    rows = []
    for k, (a, r) in enumerate(first_letters(d)):
        if i >= 2 * a:
            rows.append(1 << pos[(i, k)])
            continue
        row = 0
        for c in _adem_cs(i, a):
            head = sq_masks(i + a - c, d - a + c)
            for b in _bits(sq_masks(c, d - a)[r] if c else 1 << r):
                row ^= head[b]
        rows.append(row)
    return tuple(rows)


@lru_cache(maxsize=None)
def _adem_cs(i: int, a: int) -> tuple[int, ...]:
    """The c <= i/2 with C(a-c-1, i-2c) odd: the terms Sq^{i+a-c} Sq^c of Sq^i Sq^a."""
    return tuple(c for c in range(i // 2 + 1) if choose_mod2(a - c - 1, i - 2 * c))


@lru_cache(maxsize=None)
def first_letters(deg: int) -> tuple[tuple[int, int], ...]:
    """For each ``basis(deg)`` element Sq^i rest (deg >= 1): i and the index of rest.

    ``rest`` is admissible, so it sits in ``basis(deg - i)``.
    """
    return tuple((mon[0], _index(deg - mon[0])[mon[1:]]) for mon in basis(deg))


@lru_cache(maxsize=None)
def first_letter_runs(deg: int) -> tuple[tuple[int, int], ...]:
    """``first_letters(deg)`` in runs (i, n): Sq^i on the prefix ``basis(deg - i)[:n]``."""
    return tuple({i: j + 1 for i, j in first_letters(deg)}.items())


# (a, d) -> (rows, starts): the rows of right_masks(a, d, e) for every e laid
# out so far, flat, degree e's being rows[starts[e]:starts[e + 1]].  Tables
# only grow, under the lock, so a reader sees each degree whole.
_right_tables: dict[tuple[int, int], tuple[list[int], list[int]]] = {}
_right_lock = threading.Lock()


def right_masks(a: int, d: int, e: int) -> list[int]:
    """``basis(e)[k]`` times a, for each k, with a sum a over ``basis(d)`` given as a mask.

    Each row is a mask over ``basis(e + d)``.  With ``basis(e)[k]`` split
    as Sq^i rest, row k is Sq^i, by ``sq_masks``, on the row of rest at
    degree e - i; the rests after one first letter are a prefix of
    ``basis(e - i)`` (``first_letter_runs``), so each run reads one slice.
    Degrees are laid out in order, on first use, and kept for the process.
    """
    table = _right_tables.get((a, d))
    if table is None or len(table[1]) <= e + 1:
        with _right_lock:
            rows, starts = table = _right_tables.setdefault((a, d), ([a], [0, 1]))
            for f in range(len(starts) - 1, e + 1):
                for i, n in first_letter_runs(f):
                    masks, lo = sq_masks(i, f - i + d), starts[f - i]
                    for row in rows[lo:lo + n]:
                        acc = 0
                        while row:
                            low = row & -row
                            acc ^= masks[low.bit_length() - 1]
                            row ^= low
                        rows.append(acc)
                starts.append(len(rows))
    rows, starts = table
    return rows[starts[e]:starts[e + 1]]
