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

from . import stmodule
from .errors import ConstructionError, RangeError
from .f2linalg import F2Matrix
from .steenrod import choose_mod2
from .stmodule import GradedModule


def _atom(label: str) -> str:
    return "(%s)" % label if (" " in label or "+" in label or "·" in label) else label


def d2_homology(m: GradedModule, window: tuple[int, int],
                square_style: str = "q") -> GradedModule:
    """Windowed cohomology module of D_2 of the spectrum with homology ``m``.

    ``m`` is a windowed module in the usual cohomological convention; its
    dual basis is read as the homology of X.  The window may not exceed
    three times the bottom cell degree minus one, the range where the
    quadratic layer is the whole story for the intended consumers.

    A base cell is its (degree, index) in ``m``.  A class is the tuple
    (0, cell, i) for Q_i(cell), in degree 2 deg(cell) + i, or
    (1, cell, cell2) for the product with cell < cell2; the square
    cell.cell is Q_0(cell).  Each degree lists its classes in tuple order.
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

    cells = [(d, i) for d in range(m.lo, m.hi + 1) for i in range(m.dim(d))]
    keys = [(0, c, i) for c in cells for i in range(max(0, lo - 2 * c[0]), hi - 2 * c[0] + 1)]
    keys += [(1, ca, cb) for k, ca in enumerate(cells) for cb in cells[k + 1:]
             if lo <= ca[0] + cb[0] <= hi]
    classes: dict[int, list[tuple]] = {d: [] for d in range(lo, hi + 1)}
    for cl in sorted(keys):  # filed under its degree
        classes[2 * cl[1][0] + cl[2] if cl[0] == 0 else cl[1][0] + cl[2][0]].append(cl)
    pos = {cl: i for d in classes for i, cl in enumerate(classes[d])}

    def base_sq(a: int, c: tuple[int, int]) -> list[tuple[int, int]]:
        """Cells in the homology action Sq_a on cell c (degree drops by a)."""
        if a == 0:
            return [c]
        d = c[0] - a
        if d < m.lo:
            return []
        rows = m.sq_rows(a, d)
        return [(d, j) for j in range(m.dim(d)) if (rows[j] >> c[1]) & 1]

    def bit(cl: tuple) -> int:
        """The class's basis vector; zero for Q_i with i < 0 or outside the window."""
        p = pos.get(cl)
        return 0 if p is None else 1 << p

    def sq_lower(a: int, cl: tuple) -> int:
        """Bit-packed homology Sq_a of one class, in its degree minus a."""
        kind, x, y = cl
        out = 0
        if kind == 0:
            r = x[0] + y  # upper index: Q_y(x) = Q^r(x)
            for e in range(0, a // 2 + 1):
                if choose_mod2(r - a, a - 2 * e):
                    for c2 in base_sq(e, x):
                        out ^= bit((0, c2, r - a + e - c2[0]))
        else:
            for e in range(0, a + 1):
                for ca in base_sq(e, x):
                    for cb in base_sq(a - e, y):
                        out ^= bit((0, ca, 0) if ca == cb else (1, min(ca, cb), max(ca, cb)))
        return out

    def label(cl: tuple) -> str:
        kind, x, y = cl
        name = m.labels(x[0])[x[1]]
        if kind == 1:
            return f"{_atom(name)}·{_atom(m.labels(y[0])[y[1]])}"
        if y == 0 and square_style == "power":
            return f"{_atom(name)}^2"
        return f"Q{y}({name})"

    basis = {d: tuple(label(cl) for cl in classes[d]) for d in classes}
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
    return sorted((k, src, dst) for src, dst, k in m.to_cells().edges)


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
    base = stmodule.from_cells(stmodule.diagram([(f"i{dim}", dim)], []), (dim, dim),
                               unstable=False, truncated=False)
    return d2_homology(base, (2 * dim, 2 * dim + 3), square_style="power")


def d2_integral(dim: int) -> GradedModule:
    """D_2 of the degree-``dim`` integral Eilenberg-MacLane spectrum, in [2dim, 2dim+3]."""
    base = stmodule.builtin("Z", dim, window=(dim, dim + 3))
    return d2_homology(base, (2 * dim, 2 * dim + 3), square_style="power")
