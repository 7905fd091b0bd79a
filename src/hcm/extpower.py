"""Mod-2 homology of the quadratic extended power D_2(X) in a window.

For a spectrum X with homology basis {x}, H_*(D_2 X) has basis the
lower-indexed classes Q_i(x) in degree 2|x| + i (Q_0(x) is the square
class x.x) together with products x.y over unordered pairs x != y.  The
degree-lowering Steenrod action is

  Sq_a Q^r(x) = sum_e  C(r - a, a - 2e)  Q^{r-a+e}(Sq_e x)

in upper indexing (Q^r = Q_{r-|x|}), and the Cartan formula on
products.  Everything is computed from a windowed input module and
returned as a windowed cohomology module, which must pass the full Adem
validation; that check is the working proof of the Nishida bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import stmodule
from .errors import ConstructionError, RangeError
from .f2linalg import F2Matrix
from .steenrod import choose_mod2
from .stmodule import GradedModule


@dataclass(frozen=True)
class DLClass:
    """Basis class of H_*(D_2 X): Q_i of a cell, or a product of two cells.

    ``kind`` is "q" (base, i) with i >= 0, degree 2 deg(base) + i, or
    "prod" (x, y) with x before y in the base order.  Q_0(x) and the
    square x.x are the same class, stored once as ("q", x, 0).
    """

    kind: str
    a: tuple[int, int]  # (degree, index) of base cell / left factor
    b: tuple[int, int] | int  # i for "q"; (degree, index) of right factor

    @property
    def degree(self) -> int:
        if self.kind == "q":
            return 2 * self.a[0] + self.b
        return self.a[0] + self.b[0]


def _atom(label: str) -> str:
    return "(%s)" % label if (" " in label or "+" in label or "·" in label) else label


def product_label(x: str, y: str) -> str:
    return f"{_atom(x)}·{_atom(y)}"


def square_label(x: str, style: str) -> str:
    if style == "power":
        return f"{_atom(x)}^2"
    return f"Q0({x})"


def q_label(i: int, x: str) -> str:
    return f"Q{i}({x})"


def d2_homology(m: GradedModule, window: tuple[int, int],
                square_style: str = "q") -> GradedModule:
    """Windowed cohomology module of D_2 of the spectrum with homology ``m``.

    ``m`` is a windowed module in the usual cohomological convention; its
    dual basis is read as the homology of X.  The window may not exceed
    three times the bottom cell degree minus one, the range where the
    quadratic layer is the whole story for the intended consumers.
    """
    lo, hi = window
    bottom = m.bottom_nonzero
    if bottom is None:
        return stmodule.zero_module(window)
    if hi > 3 * bottom - 1:
        raise RangeError(
            f"window top {hi} exceeds 3*{bottom}-1, outside the quadratic range")
    if m.truncated and hi - bottom > m.hi:
        raise RangeError(
            f"window top {hi} needs base degrees up to {hi - bottom}, "
            f"but the base module stops at {m.hi}")

    cells: list[tuple[int, int]] = []  # (degree, index) in base order
    for d in range(m.lo, m.hi + 1):
        cells.extend((d, i) for i in range(m.dim(d)))
    name = {c: m.labels(c[0])[c[1]] for c in cells}

    classes: dict[int, list[DLClass]] = {d: [] for d in range(lo, hi + 1)}
    for c in cells:
        for i in range(max(0, lo - 2 * c[0]), hi - 2 * c[0] + 1):
            classes[2 * c[0] + i].append(DLClass("q", c, i))
    for ia, ca in enumerate(cells):
        for cb in cells[ia + 1:]:
            d = ca[0] + cb[0]
            if lo <= d <= hi:
                classes[d].append(DLClass("prod", ca, cb))
    for d in classes:
        classes[d].sort(key=lambda cl: (0, cl.a, cl.b) if cl.kind == "q"
                        else (1, cl.a, cl.b))
    index = {(d, cl.kind, cl.a, cl.b): i
             for d in classes for i, cl in enumerate(classes[d])}

    def base_sq(a: int, c: tuple[int, int]) -> list[tuple[int, int]]:
        """Cells in the homology action Sq_a on cell c (degree drops by a)."""
        if a == 0:
            return [c]
        d = c[0] - a
        if d < m.lo or c[0] > m.hi:
            return []
        rows = m.sq_rows(a, d)
        return [(d, j) for j in range(m.dim(d)) if (rows[j] >> c[1]) & 1]

    def q_of(r: int, c: tuple[int, int], out_deg: int) -> Optional[int]:
        """Position of Q^r(c) (upper index) in degree out_deg, None if zero."""
        i = r - c[0]
        if i < 0:
            return None
        return index.get((out_deg, "q", c, i))

    def prod_pos(ca: tuple[int, int], cb: tuple[int, int], out_deg: int) -> Optional[int]:
        if ca == cb:
            return index.get((out_deg, "q", ca, 0))
        lo_c, hi_c = min(ca, cb), max(ca, cb)
        return index.get((out_deg, "prod", lo_c, hi_c))

    def sq_lower(a: int, cl: DLClass) -> int:
        """Bit-packed homology Sq_a of one class, in degree cl.degree - a."""
        out_deg = cl.degree - a
        if out_deg < lo or out_deg > hi:
            return 0
        out = 0
        if cl.kind == "q":
            r = cl.a[0] + cl.b
            for e in range(0, a // 2 + 1):
                if not choose_mod2(r - a, a - 2 * e):
                    continue
                for c2 in base_sq(e, cl.a):
                    p = q_of(r - a + e, c2, out_deg)
                    if p is not None:
                        out ^= 1 << p
        else:
            for e in range(0, a + 1):
                for ca in base_sq(e, cl.a):
                    for cb in base_sq(a - e, cl.b):
                        p = prod_pos(ca, cb, out_deg)
                        if p is not None:
                            out ^= 1 << p
        return out

    basis = {}
    for d in range(lo, hi + 1):
        names = []
        for cl in classes[d]:
            if cl.kind == "q":
                lbl = square_label(name[cl.a], square_style) if cl.b == 0 \
                    else q_label(cl.b, name[cl.a])
            else:
                lbl = product_label(name[cl.a], name[cl.b])
            names.append(lbl)
        basis[d] = tuple(names)

    action: dict[tuple[int, int], tuple[int, ...]] = {}
    for a in range(1, hi - lo + 1):
        for d in range(lo, hi - a + 1):
            # Cohomology Sq^a at degree d transposes homology Sq_a from d+a.
            lowered = [sq_lower(a, cl) for cl in classes[d + a]]
            action[(a, d)] = F2Matrix(len(lowered), len(classes[d]),
                                      tuple(lowered)).transpose().data

    out = GradedModule(lo, hi, basis, action, unstable=False, truncated=True)
    problems = out.validate()
    if problems:
        raise ConstructionError("Nishida output fails validation: " + "; ".join(problems))
    return out


def derived_edges(m: GradedModule) -> list[tuple[int, str, str]]:
    """Nonzero homology actions (k, src, dst) for powers of two k.

    The operation realizing a chart edge is pinned by the degree
    difference; this listing makes every derived edge explicit so chart
    comparisons never guess.
    """
    edges = []
    cd = m.to_cells()
    for e in cd.edges:
        edges.append((e.sq, e.src, e.dst))
    edges.sort()
    return edges


def d2_splitting_summands(n: int) -> tuple[GradedModule, GradedModule]:
    """The two module summands feeding the stable homotopy of O<n-1>.

    Returns the bottom-cells module and the extended-power module whose
    charts assemble pi_* in degrees <= 3n-4.  Only n >= 3 with
    n = 0, 1, 4 mod 8 carries this decomposition here; any other n raises
    ``UnsupportedError`` from :func:`stmodule.o_diagram`.
    """
    bo_part = stmodule.builtin("o", n)
    d2_part = d2_homology(bo_part, (2 * n - 2, 2 * n + 1))
    return bo_part, d2_part


def tensor_square(n: int) -> GradedModule:
    """Tensor square of the bottom cells of the connective cover, degrees 2n-2..2n+1."""
    o = stmodule.builtin("o", n)
    return stmodule.tensor(o, o, (2 * n - 2, 2 * n + 1))


def d2_sphere(dim: int) -> GradedModule:
    """D_2 of a single cell in degree ``dim``, in the window [2dim, 2dim+3]."""
    base = stmodule.from_cells(stmodule.sphere_cell_diagram(dim), (dim, dim),
                               unstable=False, truncated=False)
    return d2_homology(base, (2 * dim, 2 * dim + 3), square_style="power")


def d2_integral(dim: int) -> GradedModule:
    """D_2 of the degree-``dim`` integral Eilenberg-MacLane spectrum, in [2dim, 2dim+3]."""
    base = stmodule.builtin("Z", dim, window=(dim, dim + 3))
    return d2_homology(base, (2 * dim, 2 * dim + 3), square_style="power")
