"""Finite graded modules over the mod-2 Steenrod algebra in a degree window.

Input format is the homology cell diagram, made of plain tuples: cells
``(label, degree)`` and edges ``(src, dst, k)`` meaning the
degree-lowering homology operation Sq_k carries ``src`` to ``dst`` ("a
line of length k").  Construction dualizes to the cohomological left
module (the convention every other module here consumes): on dual
bases, Sq^k transposes the Sq_k edges.  Powers of two are the free
inputs; every other Sq^a is completed from them through the Adem
relations, and any non-2-power edge supplied in a diagram is checked
against the completed action.

A window [lo, hi] means the module is the quotient of the full
cohomology by degrees above hi (left actions raise degree, so that is a
genuine module).  Ext computed from such a truncation is exact in stems
<= hi - 1, which downstream chart readers rely on.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Sequence

from . import f2linalg, steenrod
from .errors import (ConstructionError, ContractViolationError, DiagramError, InputError,
                     RangeError, UnsupportedError, checked, fields, typed)
from .steenrod import choose_mod2


@checked
class CellDiagram(NamedTuple):
    cells: tuple[tuple[str, int], ...]
    edges: tuple[tuple[str, str, int], ...]

    def _check(self):
        degs = dict(self.cells)
        if len(degs) != len(self.cells):
            raise DiagramError("duplicate cell labels")
        for src, dst, k in self.edges:
            if src not in degs or dst not in degs:
                raise DiagramError(f"edge {src}->{dst} references unknown cell")
            if k <= 0 or degs[src] - degs[dst] != k:
                raise DiagramError(
                    f"edge {src}->{dst} labelled Sq_{k} but degrees differ by "
                    f"{degs[src] - degs[dst]}")


def diagram(cells: Iterable[tuple[str, int]], edges: Iterable[tuple[str, str, int]]) -> CellDiagram:
    return CellDiagram(tuple((l, d) for l, d in cells), tuple((s, t, k) for s, t, k in edges))


class GradedModule:
    """Cohomological left module over a degree window, with full Sq tables.

    ``basis[d]`` lists labels in degree d; ``action[(a, d)]`` holds one
    bit-packed vector per basis element of degree d, written in the
    basis of degree d + a.  Instances are immutable by convention once
    a constructor returns them; ``from_cells`` fills the tables of the
    one instance it builds before it returns it.
    """

    def __init__(self, lo: int, hi: int, basis: dict[int, tuple[str, ...]],
                 action: dict[tuple[int, int], tuple[int, ...]],
                 unstable: bool = True, truncated: bool = True):
        if lo > hi:
            raise ContractViolationError("empty window")
        self.lo = lo
        self.hi = hi
        self.basis = {d: tuple(basis.get(d, ())) for d in range(lo, hi + 1)}
        self.action = dict(action)
        self.unstable = unstable
        self.truncated = truncated
        self.warnings: tuple[str, ...] = ()
        self._index = {}
        for d in range(lo, hi + 1):
            for i, label in enumerate(self.basis[d]):
                if label in self._index:
                    raise DiagramError(f"duplicate basis label {label!r}")
                self._index[label] = (d, i)

    # -- views ----------------------------------------------------------

    def dim(self, d: int) -> int:
        return len(self.basis.get(d, ()))

    def labels(self, d: int) -> tuple[str, ...]:
        return self.basis.get(d, ())

    def locate(self, label: str) -> tuple[int, int]:
        return self._index[label]

    @property
    def bottom_nonzero(self) -> Optional[int]:
        for d in range(self.lo, self.hi + 1):
            if self.dim(d):
                return d
        return None

    def __eq__(self, other):
        return (isinstance(other, GradedModule)
                and (self.lo, self.hi, self.basis) == (other.lo, other.hi, other.basis)
                and self._nonzero_action() == other._nonzero_action())

    def _nonzero_action(self):
        return {k: v for k, v in self.action.items() if any(v)}

    # -- acting by Steenrod operations -----------------------------------

    def sq_rows(self, a: int, d: int) -> tuple[int, ...]:
        """Vectors Sq^a(e_i), a >= 1, for the degree-d basis, in degree d + a."""
        return self.action.get((a, d), (0,) * self.dim(d))

    def act(self, a: int, d: int, vec: int) -> int:
        """Apply Sq^a to a bit-packed degree-d vector."""
        if a == 0:
            return vec
        if d + a > self.hi or d < self.lo:
            return 0
        rows = self.sq_rows(a, d)
        out = 0
        while vec:
            b = vec & -vec
            out ^= rows[b.bit_length() - 1]
            vec ^= b
        return out

    def act_word(self, word: Sequence[int], d: int, vec: int) -> int:
        """Apply the composite Sq^{word[0]} ... Sq^{word[-1]}, last letter first.

        It stops at the first letter that gives 0, so a word costs one
        ``act`` per letter applied to a nonzero vector.
        """
        for a in reversed(word):
            if not vec:
                break
            vec = self.act(a, d, vec)
            d += a
        return vec

    def act_mask(self, mask: int, k: int, d: int, vec: int) -> int:
        """Apply the sum of the ``steenrod.basis(k)`` elements at the set bits of mask."""
        mons, out = steenrod.basis(k), 0
        for b in f2linalg._bits(mask):
            out ^= self.act_word(mons[b], d, vec)
        return out

    def element_name(self, d: int, vec: int) -> str:
        """Name a vector by the cells supporting it, in basis order."""
        names = [lbl for i, lbl in enumerate(self.labels(d)) if (vec >> i) & 1]
        return " + ".join(names) if names else "0"

    # -- validation -------------------------------------------------------

    def validate(self) -> list[str]:
        """Grading, unstability, and exhaustive in-window Adem checks; each
        relation Sq^a Sq^b is a ``steenrod.mask_product``, applied by :meth:`act_mask`."""
        report: list[str] = []
        for (a, d), rows in self.action.items():
            if len(rows) != self.dim(d):
                report.append(f"action table Sq^{a} at degree {d} has wrong width")
                continue
            bound = 1 << self.dim(d + a) if d + a <= self.hi else 1
            if any(r >= bound for r in rows):
                report.append(f"Sq^{a} at degree {d} does not respect grading")
        if self.unstable:
            for (a, d), rows in self.action.items():
                for i, r in enumerate(rows):
                    if r and a > d:
                        report.append(
                            f"unstable violation: Sq^{a} nonzero on degree-{d} "
                            f"class {self.labels(d)[i]}")
        width = self.hi - self.lo
        sq = lambda k: 1 << (len(steenrod.basis(k)) - 1)  # Sq^k, last in basis(k)
        for b in range(1, width + 1):
            for a in range(1, min(2 * b - 1, width - b) + 1):
                rel = steenrod.mask_product(sq(a), a, sq(b), b)
                for d in range(self.lo, self.hi - a - b + 1):
                    for i in range(self.dim(d)):
                        lhs = self.act(a, d + b, self.act(b, d, 1 << i))
                        rhs = self.act_mask(rel, a + b, d, 1 << i)
                        if lhs != rhs:
                            report.append(
                                f"Adem relation ({a},{b}) violated on degree-{d} "
                                f"class {self.labels(d)[i]}")
        return report

    # -- export -----------------------------------------------------------

    def to_cells(self) -> CellDiagram:
        """Homology cell diagram: one Sq_k edge per power of two k."""
        cells = []
        for d in range(self.lo, self.hi + 1):
            cells.extend((lbl, d) for lbl in self.labels(d))
        edges = []
        k = 1
        while k <= self.hi - self.lo:
            for d in range(self.lo, self.hi - k + 1):
                rows = self.sq_rows(k, d)
                for i, r in enumerate(rows):
                    for j in f2linalg._bits(r):
                        # cohomology Sq^k(e_i^d) contains e_j^{d+k}
                        # <=> homology Sq_k carries cell j to cell i.
                        edges.append((self.labels(d + k)[j], self.labels(d)[i], k))
            k *= 2
        return diagram(cells, edges)

    def to_json(self) -> dict:
        cd = self.to_cells()
        return {
            "window": [self.lo, self.hi],
            "cells": [{"label": lbl, "degree": d} for lbl, d in cd.cells],
            "edges": [{"from": src, "to": dst, "sq": k} for src, dst, k in cd.edges],
            "unstable": self.unstable,
        }


def from_json(obj: dict) -> GradedModule:
    """The module of a JSON cell diagram; a wrong type or unknown key is ``InputError``."""
    try:
        obj = fields(obj, ("window", "cells", "edges", "unstable"), "the module")
        lo, hi = (typed(x, int, "window") for x in obj["window"])
        cells = []
        for k, c in enumerate(obj["cells"]):
            c = fields(c, ("label", "degree"), f"cell {k}")
            cells.append((typed(c["label"], str, "label"), typed(c["degree"], int, "degree")))
        edges = []
        for k, e in enumerate(obj.get("edges", ())):
            e = fields(e, ("from", "to", "sq"), f"edge {k}")
            edges.append((typed(e["from"], str, "from"), typed(e["to"], str, "to"),
                          typed(e["sq"], int, "sq")))
        unstable = typed(obj.get("unstable", True), bool, "unstable")
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad module JSON: {exc}") from exc
    return from_cells(diagram(cells, edges), (lo, hi), unstable=unstable)


# -- construction ----------------------------------------------------------


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def from_cells(diag: CellDiagram, window: tuple[int, int], unstable: bool = True,
               truncated: bool = True) -> GradedModule:
    """Dualize a homology cell diagram into a windowed cohomology module.

    Powers of two come from the edges (absent edge = zero, recorded in
    ``warnings`` when the target degree is inhabited); every other Sq^a
    is Adem-forced.  Non-2-power edges are verified against the forced
    values.  The result always passes :meth:`GradedModule.validate`.
    """
    lo, hi = window
    cells = [(lbl, d) for lbl, d in diag.cells if lo <= d <= hi]
    basis: dict[int, tuple[str, ...]] = {}
    for lbl, d in cells:
        basis[d] = basis.get(d, ()) + (lbl,)
    mod = GradedModule(lo, hi, basis, {}, unstable=unstable, truncated=truncated)
    pos = {lbl: mod.locate(lbl) for lbl, _ in cells}

    # Sq_k: src -> dst dualizes to Sq^k(dst-dual) containing src-dual.  A
    # 2-power edge from a cell outside the window still states dst's Sq^k.
    given: dict[tuple[int, str], int] = {}
    for src, dst, k in diag.edges:
        if _is_pow2(k):
            bit = 1 << pos[src][1] if src in pos else 0
            given[(k, dst)] = given.get((k, dst), 0) ^ bit

    # Operations in increasing order: a power of two from the edges, any
    # other Sq^a Adem-forced from the lower ones already in the table.
    warnings = []
    for a in range(1, hi - lo + 1):
        m = 1 << (a.bit_length() - 1)
        s = a - m
        if s == 0:
            warnings += [f"Sq^{a} on {lbl} defaulted to zero (degree {d + a} inhabited)"
                         for lbl, d in cells if mod.dim(d + a) and (a, lbl) not in given]
            for d in range(lo, hi - a + 1):
                mod.action[(a, d)] = tuple(given.get((a, lbl), 0) for lbl in mod.labels(d))
            continue
        for d in range(lo, hi - a + 1):
            rows = []
            for i in range(mod.dim(d)):
                v = mod.act(s, d + m, mod.act(m, d, 1 << i))
                for cc in range(1, s // 2 + 1):
                    if choose_mod2(m - cc - 1, s - 2 * cc):
                        v ^= mod.act(a - cc, d + cc, mod.act(cc, d, 1 << i))
                rows.append(v)
            mod.action[(a, d)] = tuple(rows)

    for src, dst, k in diag.edges:
        if src in pos and dst in pos and not _is_pow2(k):
            dd, i_dst = pos[dst]
            got = mod.act(k, dd, 1 << i_dst)
            if not (got >> pos[src][1]) & 1:
                raise ConstructionError(
                    f"edge Sq_{k}: {src} -> {dst} is not Adem-forced "
                    f"(derived Sq^{k} gives {mod.element_name(dd + k, got)})")

    mod.warnings = tuple(warnings)
    problems = mod.validate()
    if problems:
        raise ConstructionError("; ".join(problems))
    return mod


def tensor(m1: GradedModule, m2: GradedModule, window: tuple[int, int]) -> GradedModule:
    """Tensor product with the Cartan action Sq^a(x@y) = sum Sq^i x @ Sq^j y.

    The result is validated; one that fails (a factor's action breaks an
    Adem relation, say) is ``ConstructionError``.
    """
    lo, hi = window
    if hi > m1.hi + m2.hi:
        raise RangeError("tensor window exceeds the factors' data")
    basis: dict[int, tuple[str, ...]] = {}
    index: dict[tuple[int, int, int, int], int] = {}  # (d1, i, d2, j) -> position
    pairs: dict[int, list[tuple[int, int, int]]] = {}
    for d in range(lo, hi + 1):
        lst: list[tuple[int, int, int]] = []
        names: list[str] = []
        for d1 in range(m1.lo, m1.hi + 1):
            d2 = d - d1
            for i, x in enumerate(m1.labels(d1)):
                for j, y in enumerate(m2.labels(d2)):
                    index[(d1, i, d2, j)] = len(lst)
                    lst.append((d1, i, j))
                    names.append(f"{x}⊗{y}")
        pairs[d] = lst
        basis[d] = tuple(names)

    action: dict[tuple[int, int], tuple[int, ...]] = {}
    for a in range(1, hi - lo + 1):
        for d in range(lo, hi - a + 1):
            rows = []
            for (d1, i, j) in pairs[d]:
                d2 = d - d1
                out = 0
                for ia in range(a + 1):
                    vx = m1.act(ia, d1, 1 << i)
                    vy = m2.act(a - ia, d2, 1 << j)
                    for bi in f2linalg._bits(vx):
                        for bj in f2linalg._bits(vy):
                            p = index.get((d1 + ia, bi, d2 + a - ia, bj))
                            if p is not None:
                                out ^= 1 << p
                rows.append(out)
            action[(a, d)] = tuple(rows)
    out = GradedModule(lo, hi, basis, action, unstable=m1.unstable and m2.unstable,
                       truncated=True)
    problems = out.validate()
    if problems:
        raise ConstructionError("Cartan output fails validation: " + "; ".join(problems))
    return out


# -- builtin modules --------------------------------------------------------


def sphere_module(max_t: int) -> GradedModule:
    """F_2 in degree 0: the cohomology of the sphere, complete (not truncated)."""
    return GradedModule(0, max_t, {0: ("x0",)}, {}, unstable=True, truncated=False)


def zero_module(window: tuple[int, int]) -> GradedModule:
    return GradedModule(window[0], window[1], {}, {}, unstable=True, truncated=True)


def o_diagram(n: int) -> CellDiagram:
    """Bottom cells of the connective-cover spectrum, residues 0/1/4 mod 8.

    Degrees n-1..n+2; the pattern depends only on n mod 8.  Like the
    classification, it is given for n >= 3 only.
    """
    if n < 3:
        raise UnsupportedError("n must be at least 3")
    r = n % 8
    y = lambda d: f"y{d}"
    if r == 0:
        return diagram([(y(n - 1), n - 1)], [])
    if r == 1:
        return diagram(
            [(y(n - 1), n - 1), (y(n), n), (y(n + 2), n + 2)],
            [(y(n), y(n - 1), 1), (y(n + 2), y(n), 2)])
    if r == 4:
        return diagram(
            [(y(n - 1), n - 1), (y(n + 1), n + 1), (y(n + 2), n + 2)],
            [(y(n + 1), y(n - 1), 2), (y(n + 2), y(n + 1), 1)])
    raise UnsupportedError(f"n = {n} mod 8 = {r}: only residues 0, 1, 4 carry cell data")


def z_diagram(shift: int) -> CellDiagram:
    """Integral Eilenberg-MacLane homology F_2[z1^2, z2, ...], degrees <= shift+5."""
    i = f"i{shift}" if shift else "i"
    mk = lambda mono: f"{mono} {i}" if shift else (mono if mono else "1")
    c1 = i if shift else "1"
    cells = [(c1, shift), (mk("z1^2"), shift + 2), (mk("z2"), shift + 3),
             (mk("z1^4"), shift + 4), (mk("z1^2 z2"), shift + 5)]
    edges = [
        (mk("z1^2"), c1, 2),
        (mk("z2"), mk("z1^2"), 1),
        (mk("z1^4"), c1, 4),
        (mk("z1^2 z2"), mk("z1^4"), 1),
        (mk("z1^2 z2"), mk("z2"), 2),
    ]
    return diagram(cells, edges)


def builtin(name: str, n: int, window: Optional[tuple[int, int]] = None) -> GradedModule:
    """The cell-diagram modules, built from ``n``.

    "o" is the bottom cells of the connective cover, its residue taken
    from n; "o:0", "o:1" and "o:4" are the same, with n checked against
    the stated residue (``InputError``).  n < 3 and residues other than
    0, 1 and 4 raise ``UnsupportedError`` from :func:`o_diagram`.  "Z" is
    integral Eilenberg-MacLane homology with its bottom cell in degree n.
    """
    if name in ("o", "o:0", "o:1", "o:4"):
        if name != "o" and n % 8 != int(name[2:]):
            raise InputError(f"builtin {name!r} needs n = {name[2:]} mod 8, got {n}")
        return from_cells(o_diagram(n), window or (n - 1, n + 2))
    if name == "Z":
        win = window or (n, n + 5)
        if win[1] > n + 5:
            raise RangeError("builtin Z only carries degrees up to shift+5")
        # Spectrum-level homology: exempt from the unstability condition.
        return from_cells(z_diagram(n), win, unstable=False)
    raise InputError(f"unknown builtin module {name!r}")
